"""The FFT scan of DFT row-subset frames, its detection, the greedy tie band, the rank-one update, and the replay.

The subset a run selects must not depend on how U was computed: the FFT and
the dense scan, and the loop's rank-one eigen-update and a fresh lapack or
jacobi factorization of T, differ in roundoff only, and the tie band absorbs
roundoff. The verify replay recomputes U, Phi and lambda_max from T's
eigenvalues and one linear solve, and must agree with the eigenvector route.
"""

import dataclasses
import json
import os
import warnings
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framesel
from framesel import (
    FrameFamily,
    barrier_schedule,
    frame_from_dict,
    frame_to_dict,
    harmonic_frame,
    initial_selection_state,
    load_certificate,
    modulated_harmonic_frame,
    select_prefixes,
    select_subset,
    selection_step,
    verify_certificate,
)
from framesel import selector
from framesel.hermitian import (
    EigenSystem,
    eigh,
    outer_product_accumulate,
    require_hermitian,
    resolvent_quadratic_form,
)

from oracles import jacobi_eigh

# criterion 11's frames and sizes
N_LIST = [(harmonic_frame(4, N), 2 * N) for N in (25, 100, 400)]
DFT_ROW_OFFSETS = selector._dft_row_offsets
DENSE_FEASIBILITY = selector._feasibility
DATA = Path(__file__).resolve().parent / "data"


def order(cert):
    return [step.index for step in cert.steps]


def factor_running_sum(solver, calls):
    """A stand-in for ``selector._rank_one_update`` that factors the running sum T itself.

    It builds its own T from zero with the loop's ``outer_product_accumulate``,
    so it factors exactly the matrix the loop's update tracks; each call
    appends to ``calls``.
    """
    T = None

    def update(eig, v):
        nonlocal T
        if T is None:
            T = np.zeros((eig.dim, eig.dim), dtype=np.complex128)
        T = outer_product_accumulate(T, v)
        calls.append(1)
        return solver(T)

    return update


def generic_frames():
    """Parseval frames made from harmonic_frame(4, 9) that are no longer DFT row subsets."""
    F = harmonic_frame(4, 9)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(F.vectors.shape) + 1j * rng.standard_normal(F.vectors.shape)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    haar = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
    return {
        "perturbed": FrameFamily(k=4, N=9, vectors=F.vectors + 1e-9 * noise),
        # the DFT pattern up to a common scale: |phi_i| is not 1
        "rescaled": FrameFamily(k=4, N=9, vectors=F.vectors * (1.0 + 2e-8)),
        "row-permuted": FrameFamily(k=4, N=9, vectors=F.vectors[rng.permutation(F.m)]),
        "haar-rotated": FrameFamily(k=4, N=9, vectors=F.vectors @ haar.T),
    }


class TestScansAgree:
    @pytest.mark.parametrize(
        "F",
        [harmonic_frame(8, 25), modulated_harmonic_frame(6, 16, seed=3), modulated_harmonic_frame(32, 50, seed=7)],
        ids=["harmonic-8-25", "modulated-6-16", "modulated-32-50"],
    )
    def test_fft_u_matches_dense_u_at_every_step(self, F):
        n = F.m - 1
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        assert state.dft_bins is not None
        for _ in range(n):
            fft_u = selector._scan(state, sched)[3]
            dense_u = selector._scan(dataclasses.replace(state, dft_bins=None), sched)[3]
            np.testing.assert_allclose(fft_u, dense_u, rtol=1e-13, atol=0.0)
            state, _ = selection_step(state, sched)

    def test_dense_scan_selects_the_fft_subsets(self, fresh_runs_8_25, monkeypatch):
        # over the criterion-1 sweep and the criterion-11 N-list
        fft = [order(select_subset(F, n)) for F, n in N_LIST]
        monkeypatch.setattr(selector, "_dft_row_offsets", lambda vectors: None)
        frame, fresh = fresh_runs_8_25
        assert initial_selection_state(frame).dft_bins is None
        ns = range(1, frame.m)
        for n, cert in zip(ns, select_prefixes(frame, ns), strict=True):
            assert order(cert) == order(fresh[n])
        assert [order(select_subset(F, n)) for F, n in N_LIST] == fft

    @pytest.mark.parametrize(
        "F, n",
        [(harmonic_frame(k, N), k * N - 1) for k, N in ((8, 25), (4, 25), (8, 9))]
        + N_LIST
        + [(F, F.m - 1) for F in (modulated_harmonic_frame(6, 16, seed=3), *generic_frames().values())],
    )
    def test_jacobi_selects_the_lapack_subsets(self, F, n, monkeypatch):
        # full runs on harmonic, modulated and dense-scan frames, plus the
        # criterion-11 N-list: factoring each T afresh with lapack or with
        # jacobi selects what the rank-one update selects
        update = order(select_subset(F, n))
        for solver in (eigh, lambda T: jacobi_eigh(require_hermitian(T))):
            calls = []
            monkeypatch.setattr(selector, "_rank_one_update", factor_running_sum(solver, calls))
            assert order(select_subset(F, n)) == update
            assert len(calls) == n


class TestDetection:
    def test_generated_and_loaded_frames_take_the_fft_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the dense scan ran on a DFT row-subset frame")

        monkeypatch.setattr(selector, "_feasibility", refuse)
        harmonic = harmonic_frame(8, 25)
        assert DFT_ROW_OFFSETS(harmonic.vectors).tolist() == list(range(8))
        for F in (harmonic, modulated_harmonic_frame(6, 16, seed=3), modulated_harmonic_frame(32, 50, seed=7)):
            loaded = frame_from_dict(json.loads(json.dumps(frame_to_dict(F))))
            for G in (F, loaded):
                assert initial_selection_state(G).dft_bins is not None
                cert = select_subset(G, G.m // 2)
                assert verify_certificate(G, cert).passed

    @pytest.mark.parametrize("name", ["perturbed", "rescaled", "row-permuted", "haar-rotated"])
    def test_other_frames_take_the_dense_path_and_verify(self, name, monkeypatch):
        F = generic_frames()[name]
        assert DFT_ROW_OFFSETS(F.vectors) is None
        calls = []
        monkeypatch.setattr(selector, "_feasibility", lambda *args: calls.append(1) or DENSE_FEASIBILITY(*args))
        cert = select_subset(F, F.m - 1)
        assert len(calls) == F.m - 1
        assert verify_certificate(F, cert).passed

    def test_import_leaves_numpy_fft_unloaded(self):
        # `import framesel` is the set-up cost of every CLI call; numpy.fft
        # loads on the first FFT scan instead
        src = str(Path(framesel.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, framesel; sys.exit('numpy.fft' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestTieBand:
    @pytest.mark.parametrize("F", [harmonic_frame(8, 25), harmonic_frame(1, 6)], ids=["harmonic-8-25", "k1"])
    def test_choice_and_diagnostics_follow_the_band(self, F):
        n = F.m - 1
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        ties = 0
        for _ in range(n):
            profile = selector._scan(state, sched)[3]
            u_min = profile.min()
            edge = u_min + selector._TIE_BAND * max(1.0, u_min)
            inside = profile <= edge
            remaining = state.remaining
            state, record = selection_step(state, sched)
            assert record.index == remaining[inside].min()
            assert record.feasibility <= edge
            assert record.tie_count == np.count_nonzero(inside)
            if inside.all():
                assert record.band_gap == np.inf
            else:
                assert record.band_gap == profile[~inside].min() - edge > 0.0
            ties += record.tie_count > 1
        assert ties > 0

    def test_k1_frame_ties_everything(self):
        # all candidates are one vector up to phase, so the band holds them all
        cert = select_subset(harmonic_frame(1, 6), 5)
        assert order(cert) == [1, 2, 3, 4, 5]
        assert [s.tie_count for s in cert.steps] == [6, 5, 4, 3, 2]
        assert all(s.band_gap == np.inf for s in cert.steps)


class TestRankOneUpdate:
    @pytest.mark.parametrize(
        "F",
        [harmonic_frame(8, 25), modulated_harmonic_frame(32, 50, seed=7), generic_frames()["haar-rotated"]],
        ids=["harmonic-8-25", "modulated-32-50", "haar-rotated-4-9"],
    )
    def test_update_matches_lapack_at_every_step(self, F):
        # harmonic-8-25 starts rank-deficient (lambda = 0 has multiplicity k - j)
        # and keeps clusters; haar-rotated takes the dense scan
        n = F.m - 1
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        T = np.zeros((F.k, F.k), dtype=np.complex128)  # the oracle T_j, rebuilt from the step records
        eye = np.eye(F.k)
        for _ in range(n):
            state, record = selection_step(state, sched)
            T = outer_product_accumulate(T, F.vectors[record.index - 1])
            E = state.eig.eigenvectors
            assert np.abs(state.eig.eigenvalues - eigh(T).eigenvalues).max() <= 1e-12
            assert np.linalg.norm(E.conj().T @ E - eye, 2) <= 1e-12
            assert np.linalg.norm(state.eig.reconstruct() - T, 2) <= 1e-12

    def test_loop_builds_no_running_sum(self, monkeypatch):
        # the loop carries T_j's eigensystem only; the verify replay alone rebuilds T_j
        calls = []

        def counted(T, v):
            calls.append(1)
            return outer_product_accumulate(T, v)

        monkeypatch.setattr(selector, "outer_product_accumulate", counted)
        F = harmonic_frame(8, 25)
        ns = range(1, F.m)
        assert [cert.n for cert in select_prefixes(F, ns)] == list(ns)  # the FFT scan
        assert calls == []
        F = generic_frames()["haar-rotated"]
        assert initial_selection_state(F).dft_bins is None  # the dense scan
        cert = select_subset(F, F.m - 1)
        assert calls == []
        assert verify_certificate(F, cert).passed
        assert len(calls) == cert.n

    @pytest.mark.parametrize("v", [[1, 0, 0, 0], [0, 0, 0.6 * np.exp(0.3j), 0]], ids=["e1", "phase"])
    def test_zero_components_deflate(self, v):
        # T diagonal with a double eigenvalue: z = E* v is exactly 0 off v's support
        T = np.diag([0.5, 0.5, 1.0, 2.0]).astype(np.complex128)
        v = np.asarray(v, dtype=np.complex128)
        eig = EigenSystem(eigenvalues=np.diag(T).real.copy(), eigenvectors=np.eye(4, dtype=np.complex128))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            updated = selector._rank_one_update(eig, v)
        T_next = T + np.outer(v, v.conj())
        E = updated.eigenvectors
        np.testing.assert_allclose(updated.eigenvalues, np.sort(np.diag(T_next).real), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(E.conj().T @ E, np.eye(4), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(updated.reconstruct(), T_next, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "name, F",
        [
            ("harmonic-8-25-n100", harmonic_frame(8, 25)),
            ("modulated-6-16-seed3-n48", modulated_harmonic_frame(6, 16, seed=3)),
        ],
        ids=["harmonic-8-25", "modulated-6-16"],
    )
    def test_certificates_written_by_lapack_factoring_still_verify(self, name, F):
        # written when the loop factored each T with lapack: the indices are the
        # same, and the recorded values differ from the update's in last bits only
        old = load_certificate(DATA / f"certificate-{name}.json")
        assert verify_certificate(F, old).passed
        new = select_subset(F, old.n)
        assert order(new) == order(old)
        for field in ("feasibility", "potential", "lambda_max"):
            got, want = ([getattr(s, field) for s in cert.steps] for cert in (new, old))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(new.eigenvalues, old.eigenvalues, rtol=0.0, atol=1e-14)


class TestReplay:
    @pytest.mark.parametrize(
        "F",
        [harmonic_frame(8, 25), modulated_harmonic_frame(32, 50, seed=7), generic_frames()["haar-rotated"]],
        ids=["harmonic-8-25", "modulated-32-50", "haar-rotated-4-9"],
    )
    def test_replay_matches_the_eigenvector_route_at_every_step(self, F):
        # the oracle factors every T_j with vectors and takes U through the
        # eigenbasis, as the replay did before it needed eigenvalues only
        cert = select_subset(F, F.m - 1)
        values = cert.schedule.values
        T = np.zeros((F.k, F.k), dtype=np.complex128)
        eig = eigh(T)
        replay = selector._replay(F, order(cert), values)
        for j, (u, eigenvalues, phi, failure, _) in enumerate(replay, 1):
            a, a_next = values[j - 1], values[j]
            v = F.vectors[cert.steps[j - 1].index - 1]
            lam = eig.eigenvalues
            gap = float(((a_next - a) / ((a - lam) * (a_next - lam))).sum())
            u_want = resolvent_quadratic_form(eig, a_next, v, 2) / gap + resolvent_quadratic_form(eig, a_next, v, 1)
            T = outer_product_accumulate(T, v)
            eig = eigh(T)
            phi_want = float((1.0 / (a_next - eig.eigenvalues)).sum())
            assert failure is None
            assert u == pytest.approx(u_want, rel=1e-12)
            assert phi == pytest.approx(phi_want, rel=1e-12)
            assert eigenvalues[-1] == pytest.approx(eig.lambda_max, rel=1e-12)
        assert j == cert.n

    def test_one_factorization_with_vectors_per_replay(self, monkeypatch):
        F = harmonic_frame(2, 25)
        passing = select_subset(F, 20)
        # steps 1..20 in index order cross the barrier at step 19
        crossing = dataclasses.replace(
            passing,
            steps=tuple(dataclasses.replace(s, index=j) for j, s in enumerate(passing.steps, 1)),
            indices=tuple(range(1, 21)),
        )
        start = barrier_schedule(F.N, F.m, 0)
        empty = dataclasses.replace(
            passing, schedule=start, steps=(), indices=(), eigenvalues=np.zeros(F.k), bound=start.bound
        )
        calls = []

        def counted(T):
            calls.append(1)
            return eigh(T)

        monkeypatch.setattr(selector, "eigh", counted)
        for cert, passed in ((passing, True), (crossing, False), (empty, True)):
            calls.clear()
            assert verify_certificate(F, cert).passed is passed
            assert len(calls) == 1
