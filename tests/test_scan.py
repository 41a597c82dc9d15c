"""The FFT scan of DFT row-subset frames, its detection, the greedy tie band, the rank-one update, and the replay.

The subset a run selects must not depend on how U was computed: the FFT and
the dense scan, and the loop's rank-one eigen-update and a fresh lapack or
jacobi factorization of T, differ in roundoff only, and the tie band absorbs
roundoff. The verify replay recomputes U, Phi and lambda_max from T's
eigenvalues and one linear solve, and must agree with the eigenvector route;
its stacked chunks must give the bits of a replay one step at a time.
"""

import dataclasses
import functools
import json
import os
import warnings
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import jacobi_eigh, reconstruct, replay_per_step

# criterion 11's frames and sizes
N_LIST = [(harmonic_frame(4, N), 2 * N) for N in (25, 100, 400)]
DFT_ROW_OFFSETS = selector._dft_row_offsets
DENSE_FEASIBILITY = selector._feasibility
DATA = Path(__file__).resolve().parent / "data"
LOWNER_K = selector._LOWNER_MIN_K


def order(cert):
    return [step.index for step in cert.steps]


def bits(value):
    return value if value is None or isinstance(value, str) else np.asarray(value).tobytes()


def replay_steps(F, steps, values):
    """``selector._replay``'s arrays as the per-step oracle's (U, spectrum, Phi, failure) tuples, and its last T."""
    us, spectra, phis, failures, T = selector._replay(F, steps, values)
    assert len(us) == len(spectra) and len(phis) in (len(us), len(us) - 1)
    assert set(failures) <= set(range(1, len(us) + 1))
    phis = [float(phi) for phi in phis] + [None]  # None for a step that ends the replay
    return [(float(u), s, phi, failures.get(j)) for j, (u, s, phi) in enumerate(zip(us, spectra, phis), 1)], T


def replays_alike(F, steps, values):
    """Assert that ``selector._replay`` has the per-step oracle's bits; return the steps replayed.

    Every step's U, spectrum, Phi and failure must match, and the returned T the oracle's last finite T_j.
    """
    got, T = replay_steps(F, steps, values)
    want = []
    for step in replay_per_step(F, steps, values):
        want.append(step)
        if step[2] is None:  # a crossing or an overflow: the oracle has no end of its own
            break
    assert len(got) == len(want)
    for j, (g, w) in enumerate(zip(got, want), 1):
        assert type(g[2]) is type(w[2])
        assert [bits(x) for x in g] == [bits(x) for x in w[:4]], f"step {j}"
    assert bits(T) == bits(want[-1][4] if want else np.zeros((F.k, F.k), dtype=np.complex128))
    return len(got)


# Steps 4 and 5 of this order have U > 1 and a rising Phi, and its norm stays under the barriers.
INFEASIBLE_ORDER = [1, 19, 8, 4, 23, 30, 22, 16, 11, 29]
# Edits to recorded steps 4 and 5 of modulated_harmonic_frame(4, 9, seed=1)'s 10-step certificate;
# "U-exceeds" records INFEASIBLE_ORDER's own values, so it fails on U and Phi alone.
REPORT_CASES = {
    "step-number": {4: dict(j=40), 5: dict(j=50)},
    "U": {4: dict(feasibility=0.5), 5: dict(feasibility=0.25)},
    "U-exceeds": {},
    "U-exceeds-and-recorded-U": {4: dict(feasibility=0.5)},
    "lambda": {4: dict(lambda_max=0.25), 5: dict(lambda_max=0.5)},
    "phi": {4: dict(potential=12.0), 5: dict(potential=13.0)},
    "mixed": {4: dict(potential=12.0), 5: dict(j=50, feasibility=0.25, lambda_max=0.5, potential=13.0)},
    # inside the 1e-8 tolerance at step 4, outside it at step 5 (Phi is near 10, so its tolerance is relative)
    "tolerance": {
        4: dict(feasibility=lambda u: u + 5e-9, lambda_max=lambda x: x - 5e-9, potential=lambda x: x * (1 + 5e-9)),
        5: dict(feasibility=lambda u: u - 2e-8, lambda_max=lambda x: x + 2e-8, potential=lambda x: x * (1 - 2e-8)),
    },
    "crossing": None,  # harmonic_frame(2, 25) with steps 1..20 in index order: it crosses at step 19
}
# (the steps check's detail, min_step_margin.hex(), min_margin_step), as the replay one step at a time reported them
PINNED_REPORTS = {
    "step-number": (
        "step 4: recorded as step 40; "
        "step 5: recorded as step 50",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "U": (
        "step 4: recorded U 0.5 != recomputed 0.6428111149280838; "
        "step 5: recorded U 0.25 != recomputed 0.7883424604853472",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "U-exceeds": (
        "step 4: U = 1.0551156915490945 exceeds 1 + slack; "
        "step 4: potential rose: 10.954372676908287 > 10.865538367214127 (excess 8.883e-02); "
        "step 5: U = 1.232636892741129 exceeds 1 + slack; "
        "step 5: potential rose: 11.371305638714825 > 10.954372676908287 (excess 4.169e-01)",
        "0x1.a121ecb2f56dcp-3",
        5,
    ),
    "U-exceeds-and-recorded-U": (
        "step 4: recorded U 0.5 != recomputed 1.0551156915490945; "
        "step 4: U = 1.0551156915490945 exceeds 1 + slack; "
        "step 4: potential rose: 10.954372676908287 > 10.865538367214127 (excess 8.883e-02); "
        "step 5: U = 1.232636892741129 exceeds 1 + slack",
        "0x1.a121ecb2f56dcp-3",
        5,
    ),
    "lambda": (
        "step 4: recorded lambda_max 0.25 != recomputed 0.14911334925840763; "
        "step 5: recorded lambda_max 0.5 != recomputed 0.20642491569174973",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "phi": (
        "step 4: recorded potential 12.0 != recomputed 10.347988487917608; "
        "step 5: recorded potential 13.0 != recomputed 10.063761495018811",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "mixed": (
        "step 4: recorded potential 12.0 != recomputed 10.347988487917608; "
        "step 5: recorded as step 50; "
        "step 5: recorded U 0.25 != recomputed 0.7883424604853472; "
        "step 5: recorded lambda_max 0.5 != recomputed 0.20642491569174973",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "tolerance": (
        "step 5: recorded U 0.7883424404853472 != recomputed 0.7883424604853472; "
        "step 5: recorded lambda_max 0.20642493569174966 != recomputed 0.20642491569174973; "
        "step 5: recorded potential 10.063761293743582 != recomputed 10.063761495018811",
        "0x1.0e38e38e38e39p-2",
        1,
    ),
    "crossing": (
        "step 19: norm bound breached: lambda_max = 0.6761518690585737 >= a_next = 0.675 (margin -1.152e-03); "
        "step 2: recorded U 0.7482649842271293 != recomputed 1.0230972122107882; "
        "step 2: U = 1.0230972122107882 exceeds 1 + slack; "
        "step 2: recorded lambda_max 0.04 != recomputed 0.07992106913713087",
        "-0x1.2df49fbe4f000p-10",
        19,
    ),
}


def report_case(name):
    """(frame, certificate) of ``REPORT_CASES[name]``."""
    if REPORT_CASES[name] is None:
        F = harmonic_frame(2, 25)
        cert = select_subset(F, 20)
        steps = [dataclasses.replace(s, index=j) for j, s in enumerate(cert.steps, 1)]
        return F, dataclasses.replace(cert, steps=tuple(steps), indices=tuple(range(1, 21)))
    F = modulated_harmonic_frame(4, 9, seed=1)
    cert = select_subset(F, 10)
    steps = list(cert.steps)
    if name.startswith("U-exceeds"):
        replay = replay_per_step(F, INFEASIBLE_ORDER, cert.schedule.values)
        steps = [
            dataclasses.replace(s, index=i, feasibility=u, lambda_max=float(spectrum[-1]), potential=phi)
            for s, i, (u, spectrum, phi, _, _) in zip(steps, INFEASIBLE_ORDER, replay, strict=True)
        ]
        cert = dataclasses.replace(cert, indices=tuple(sorted(INFEASIBLE_ORDER)))
    for j, fields in REPORT_CASES[name].items():
        old = steps[j - 1]
        fields = {key: value(getattr(old, key)) if callable(value) else value for key, value in fields.items()}
        steps[j - 1] = dataclasses.replace(old, **fields)
    return F, dataclasses.replace(cert, steps=tuple(steps))


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; return the list it appends one entry per call to."""
    calls, function = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(1) or function(*args, **kwargs))
    return calls


def set_chunk(monkeypatch, F, steps):
    monkeypatch.setattr(selector, "_REPLAY_CHUNK_BYTES", steps * 16 * F.k**2)


@functools.cache
def harmonic_4_9_run():
    F = harmonic_frame(4, 9)
    return F, select_subset(F, 10)


def scaled_case(scaled):
    """(frame, certificate, order) of harmonic_frame(4, 9)'s 10-step run, the vector of step j scaled by scaled[j]."""
    F, cert = harmonic_4_9_run()
    steps = order(cert)
    vectors = F.vectors.copy()
    for step, scale in scaled.items():
        vectors[steps[step - 1] - 1] *= scale
    return FrameFamily(k=F.k, N=F.N, vectors=vectors), cert, steps


# A scaled step ends the replay at itself: (factor, the start of its failure text). |v_i|^2 is 1/36 per entry.
STOPS = {
    "crossing": (10.0, "norm bound breached"),
    "product-overflow": (1e200, "T_{j} is not finite (overflow encountered in multiply)"),
    # |v_i|^2 = 1.2e308 per entry: T_j is finite, its symmetrization is not
    "symmetrization-overflow": (6 * np.sqrt(1.2e308), "T_{j} is not finite (overflow encountered in add)"),
    # 0.8e308 per entry: T_j and its symmetrization are finite, and a later add can overflow
    "huge-but-finite": (6 * np.sqrt(0.8e308), "norm bound breached"),
}


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
            k = len(eig.eigenvalues)
            T = np.zeros((k, k), dtype=np.complex128)
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
            fft_u = selector._scan(state, sched)[1]
            dense_u = selector._scan(dataclasses.replace(state, dft_bins=None), sched)[1]
            np.testing.assert_allclose(fft_u, dense_u, rtol=1e-13, atol=0.0)
            state, _ = selection_step(state, sched)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_scans_agree_on_the_smallest_band_gap(self, seed):
        # modulated (8, 400) seeds 1 and 3 hold the smallest band_gap measured, 9.1e-12 at seed 1's step 1454
        F = modulated_harmonic_frame(8, 400, seed=seed)
        sched = barrier_schedule(F.N, F.m, 1600)
        runs = []
        for state in (initial_selection_state(F), dataclasses.replace(initial_selection_state(F), dft_bins=None)):
            records = []
            for _ in range(sched.n):
                state, record = selection_step(state, sched)
                records.append(record)
            runs.append(records)
        fft, dense = ([record.index for record in records] for records in runs)
        assert fft == dense
        assert all(min(record.band_gap for record in records) < 1e-9 for records in runs)

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
            profile = selector._scan(state, sched)[1]
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
            assert np.linalg.norm(reconstruct(state.eig) - T, 2) <= 1e-12

    def test_loop_builds_no_running_sum(self, monkeypatch):
        # the loop carries T_j's eigensystem only; the verify replay builds T_j in chunks of its own
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
        assert len(calls) == 0

    @pytest.mark.parametrize(
        "d, v, atol",
        [
            ([0.5, 0.5, 1.0, 2.0], [1, 0, 0, 0], 1e-15),
            ([0.5, 0.5, 1.0, 2.0], [0, 0, 0.6 * np.exp(0.3j), 0], 1e-15),
            # at the Loewner route's smallest k: a zero component, then a double eigenvalue
            (np.linspace(0.05, 1.0, LOWNER_K), np.where(np.arange(LOWNER_K) == 3, 0.0, 0.2), 1e-14),
            (np.repeat(np.linspace(0.05, 1.0, LOWNER_K // 2), 2), np.full(LOWNER_K, 0.2), 1e-14),
        ],
        ids=["e1", "phase", f"zero-component-k{LOWNER_K}", f"double-eigenvalue-k{LOWNER_K}"],
    )
    def test_zero_components_deflate(self, d, v, atol, monkeypatch):
        # T diagonal: z = E* v is exactly 0 off v's support, and a repeated d_i has no gap; both take eigh
        k = len(d)
        T = np.diag(d).astype(np.complex128)
        v = np.asarray(v, dtype=np.complex128)
        eig = EigenSystem(eigenvalues=np.diag(T).real.copy(), eigenvectors=np.eye(k, dtype=np.complex128))
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        eigenvalue_calls = count_calls(monkeypatch, np.linalg, "eigvalsh")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            updated = selector._rank_one_update(eig, v)
        assert len(calls) == 1 and eigenvalue_calls == []  # deflation is seen before any LAPACK call
        T_next = T + np.outer(v, v.conj())
        E = updated.eigenvectors
        np.testing.assert_allclose(updated.eigenvalues, np.linalg.eigvalsh(T_next), rtol=0.0, atol=atol)
        np.testing.assert_allclose(E.conj().T @ E, np.eye(k), rtol=0.0, atol=atol)
        np.testing.assert_allclose(reconstruct(updated), T_next, rtol=0.0, atol=atol)

    def test_a_step_without_deflation_takes_no_eigh(self, monkeypatch):
        # the control for the cases above: distinct d and no zero component
        d = np.linspace(0.05, 1.0, LOWNER_K)
        v = np.full(LOWNER_K, 0.2, dtype=np.complex128)
        eig = EigenSystem(eigenvalues=d, eigenvectors=np.eye(LOWNER_K, dtype=np.complex128))
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        updated = selector._rank_one_update(eig, v)
        assert calls == []
        T_next = np.diag(d) + np.outer(v, v.conj())
        E = updated.eigenvectors
        np.testing.assert_allclose(updated.eigenvalues, np.linalg.eigvalsh(T_next), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(E.conj().T @ E, np.eye(LOWNER_K), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(reconstruct(updated), T_next, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize(
        "F", [modulated_harmonic_frame(32, 50, seed=7), modulated_harmonic_frame(64, 25, seed=1)],
        ids=["modulated-32-50", "modulated-64-25"],
    )
    def test_both_routes_select_alike(self, F, monkeypatch):
        # the default run takes the Loewner route wherever deflation allows; then eigh on every step
        n = F.m - 1
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        fast = select_subset(F, n)
        assert 0 < len(calls) < n / 4  # the rank-deficient start, and a few steps after
        monkeypatch.setattr(selector, "_LOWNER_MIN_K", F.k + 1)
        calls.clear()
        slow = select_subset(F, n)
        assert len(calls) == n
        assert order(fast) == order(slow)
        for field in ("feasibility", "potential", "lambda_max"):
            got, want = ([getattr(s, field) for s in cert.steps] for cert in (fast, slow))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "F, n, least, most",
        [
            # lambda = 0 is a multiple eigenvalue for the first k - 1 steps; after them, few steps deflate
            (modulated_harmonic_frame(64, 25, seed=1), 800, 63, 128),
            # harmonic spectra cluster: every step deflates
            (harmonic_frame(LOWNER_K, 25), 499, 499, 499),
            (harmonic_frame(32, 16), 511, 511, 511),
        ],
        ids=["modulated-64-25", f"harmonic-{LOWNER_K}-25", "harmonic-32-16"],
    )
    def test_eigh_runs_on_deflated_steps_only(self, F, n, least, most, monkeypatch):
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        select_subset(F, n)
        assert least <= len(calls) <= most

    @pytest.mark.parametrize(
        "F", [modulated_harmonic_frame(64, 25, seed=1), modulated_harmonic_frame(128, 8, seed=1)],
        ids=["modulated-64-25", "modulated-128-8"],
    )
    def test_carried_eigensystem_stays_close_over_a_full_run(self, F):
        # the Loewner route's mu are eigvalsh's, not offsets from d: E Lambda E* drifts more than eigh's
        n = F.m - 1
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        T = np.zeros((F.k, F.k), dtype=np.complex128)
        eye = np.eye(F.k)
        for j in range(1, n + 1):
            state, record = selection_step(state, sched)
            v = F.vectors[record.index - 1]
            T += np.outer(v, v.conj())
            if j % 50 == 0 or j == n:
                E = state.eig.eigenvectors
                assert np.linalg.norm(E.conj().T @ E - eye, 2) <= 1e-12, f"step {j}"
                assert np.linalg.norm(reconstruct(state.eig) - T, 2) <= 2e-12, f"step {j}"

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
        replay, _ = replay_steps(F, order(cert), values)
        for j, (u, eigenvalues, phi, failure) in enumerate(replay, 1):
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

    @pytest.mark.parametrize(
        "F, chunk",
        [
            (modulated_harmonic_frame(4, 513, seed=1), None),  # 1024 steps per chunk
            (modulated_harmonic_frame(8, 65, seed=2), None),   # 256 steps per chunk
            *[(F, 8) for F in generic_frames().values()],       # the dense scan's frames, m = 36
            (modulated_harmonic_frame(1, 40, seed=3), 8),       # size-1 axes can pick another numpy loop
            # on both sides of the cut between the cumulative sum and the loop of adds
            (modulated_harmonic_frame(16, 9, seed=4), None),    # 64 steps per chunk, summed
            (modulated_harmonic_frame(19, 5, seed=5), None),    # 45, summed
            (modulated_harmonic_frame(20, 5, seed=6), None),    # 40, added one step at a time
            (modulated_harmonic_frame(32, 3, seed=7), None),    # 16, added
        ],
        ids=[
            "modulated-4-513", "modulated-8-65", *(f"{name}-4-9" for name in generic_frames()), "modulated-1-40",
            "modulated-16-9", "modulated-19-5", "modulated-20-5", "modulated-32-3",
        ],
    )
    def test_chunked_replay_has_the_per_step_bits(self, F, chunk, monkeypatch):
        if chunk is not None:
            set_chunk(monkeypatch, F, chunk)
        c = selector._REPLAY_CHUNK_BYTES // (16 * F.k**2)
        assert c == (chunk or {4: 1024, 8: 256, 16: 64, 19: 45, 20: 40, 32: 16}[F.k])
        ns = [c - 1, c, c + 1, 2 * c + 1]
        for n, cert in zip(ns, select_prefixes(F, ns), strict=True):
            assert replays_alike(F, order(cert), cert.schedule.values) == n

    @pytest.mark.parametrize("chunk", [8, 9], ids=["mid-chunk", "chunk-start"])
    def test_crossing_anywhere_in_a_chunk_solves_no_step_past_it(self, chunk, monkeypatch):
        # steps 1..20 in index order cross at step 19: the third of chunk 17..24, the first of 19..27
        F = harmonic_frame(2, 25)
        values = barrier_schedule(F.N, F.m, 20).values
        set_chunk(monkeypatch, F, chunk)
        assert replays_alike(F, list(range(1, 21)), values) == 19
        solved = []
        solve = np.linalg.solve

        def counted(a, b):
            solved.append(1 if a.ndim == 2 else len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        steps, _ = replay_steps(F, list(range(1, 21)), values)
        assert len(steps) == 19 and steps[-1][3].startswith("norm bound breached")
        assert sum(solved) == 19

    @pytest.mark.parametrize(
        "scaled, j, failure",
        [
            ({5: 1e200}, 5, "T_5 is not finite (overflow encountered in multiply)"),
            ({7: 1e200}, 7, "T_7 is not finite (overflow encountered in multiply)"),
            # |v_i|^2 = 1.2e308 per entry: T_5 is finite, its symmetrization is not
            ({5: 6 * np.sqrt(1.2e308)}, 5, "T_5 is not finite (overflow encountered in add)"),
            # the chunk's products fail at step 7, its stacked symmetrization at step 5
            ({5: 6 * np.sqrt(1.2e308), 7: 1e200}, 5, "T_5 is not finite (overflow encountered in add)"),
            ({5: 10.0, 7: 1e200}, 5, "norm bound breached"),
        ],
        ids=["chunk-start", "mid-chunk", "symmetrization", "earliest-overflow", "crossing-first"],
    )
    def test_overflow_anywhere_in_a_chunk_keeps_the_last_finite_sum(self, scaled, j, failure, monkeypatch):
        # chunks of 4 steps: 1..4, 5..8, 9..10; the sum an overflow at step 5 yields is the first chunk's last
        G, cert, steps = scaled_case(scaled)
        set_chunk(monkeypatch, G, 4)
        with np.errstate(over="raise", invalid="raise"):
            assert replays_alike(G, steps, cert.schedule.values) == j
            (*_, (u, spectrum, phi, message)), T = replay_steps(G, steps, cert.schedule.values)
        assert phi is None and message.startswith(failure)
        if "not finite" in failure:
            assert np.isinf(spectrum).all()
            np.testing.assert_allclose(T, G.rank_one_sum(steps[: j - 1]), rtol=0.0, atol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_certificate(G, cert)
        assert report.failures()[0].startswith(f"steps: step {j}: {failure}")
        assert report.min_margin_step == j

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3, 4], ids=["default", "1", "2", "3", "4"])
    @pytest.mark.parametrize("name", list(REPORT_CASES))
    def test_failure_reports_are_pinned(self, name, chunk, monkeypatch):
        # every chunk size puts a chunk edge next to step 4 or 5, or next to the crossing at step 19
        F, cert = report_case(name)
        if chunk is not None:
            set_chunk(monkeypatch, F, chunk)
        report = verify_certificate(F, cert)
        detail, margin, step = PINNED_REPORTS[name]
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert checks["steps"] == (False, detail)
        assert (report.min_step_margin.hex(), report.min_margin_step) == (margin, step)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_potential_rises_anywhere_in_a_chunk_have_the_per_step_bits(self, chunk, monkeypatch):
        # the rises at steps 4 and 5: the first and the middle of 4..6, or the last of 3..4 and the first of 5..6
        F, cert = report_case("U-exceeds")
        set_chunk(monkeypatch, F, chunk)
        assert replays_alike(F, INFEASIBLE_ORDER, cert.schedule.values) == 10
        replay, _ = replay_steps(F, INFEASIBLE_ORDER, cert.schedule.values)
        failures = {j: failure for j, (_, _, _, failure) in enumerate(replay, 1) if failure is not None}
        assert list(failures) == [4, 5] and all(f.startswith("potential rose") for f in failures.values())

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("j", [4, 5, 6], ids=["step-4", "step-5", "step-6"])
    @pytest.mark.parametrize(
        "scale, failure",
        [
            (10.0, "norm bound breached"),
            (1e200, "T_{j} is not finite (overflow encountered in multiply)"),
            (6 * np.sqrt(1.2e308), "T_{j} is not finite (overflow encountered in add)"),  # in the symmetrization
        ],
        ids=["crossing", "overflow", "symmetrization-overflow"],
    )
    def test_a_stop_anywhere_in_a_chunk_has_the_per_step_bits(self, scale, failure, j, chunk, monkeypatch):
        # at 3 steps per chunk, steps 4, 5 and 6 are the first, the middle and the last of a chunk
        G, cert, steps = scaled_case({j: scale})
        set_chunk(monkeypatch, G, chunk)
        with np.errstate(over="raise", invalid="raise"):
            assert replays_alike(G, steps, cert.schedule.values) == j
        report = verify_certificate(G, cert)
        assert report.failures()[0].startswith(f"steps: step {j}: {failure.format(j=j)}")
        assert report.min_margin_step == j
        checks = {name: detail for name, _, detail in report.checks}
        assert checks["final-norm"] == f"replay stopped at step {j} of 10"

    @pytest.mark.parametrize(
        "shape, chunk, chunks, cumsums",
        [((8, 400), None, 7, 7), ((8, 400), 64, 25, 25), ((64, 25), None, 200, 0)],
        ids=["256-steps", "64-steps", "k-64"],
    )
    def test_the_replay_tail_runs_once_per_chunk(self, shape, chunk, chunks, cumsums, monkeypatch):
        # m/2 steps: the replay writes its gaps and Phi as array expressions over each chunk, so the one-spectrum
        # helpers run only for Phi of T_0; its stacked LAPACK calls run once per chunk, and so does the cumulative
        # sum at k = 8, while k = 64 adds its T_j one step at a time
        F = modulated_harmonic_frame(*shape, seed=1)
        cert = select_subset(F, F.m // 2)
        if chunk is not None:
            set_chunk(monkeypatch, F, chunk)
        calls = {name: count_calls(monkeypatch, selector, name) for name in ("_gap", "_potential", "_advance")}
        calls.update({name: count_calls(monkeypatch, np.linalg, name) for name in ("eigvalsh", "solve")})
        calls["cumsum"] = count_calls(monkeypatch, np, "cumsum")
        assert verify_certificate(F, cert).passed
        counts = {name: len(made) for name, made in calls.items()}
        # _advance only words failures
        want = {"_gap": 0, "_potential": 1, "_advance": 0, "eigvalsh": chunks, "solve": chunks, "cumsum": cumsums}
        assert counts == want

    def test_crossing_ends_the_replay_before_a_later_overflow_in_its_chunk(self, monkeypatch):
        # T_5 = 0.8e308 per entry crosses its barrier; the chunk builds T_6 before it sees that,
        # and T_6 = T_5 + v (x) v overflows in the add
        G, cert, steps = scaled_case({5: 6 * np.sqrt(0.8e308), 6: 6e154})
        set_chunk(monkeypatch, G, 4)
        with np.errstate(over="raise", invalid="raise"):
            assert replays_alike(G, steps, cert.schedule.values) == 5
            (*_, (u, spectrum, phi, message)), _ = replay_steps(G, steps, cert.schedule.values)
        assert phi is None and message.startswith("norm bound breached")

    @pytest.mark.parametrize("chunk", [1, 3, 4])
    @pytest.mark.parametrize("kind", ["product-overflow", "symmetrization-overflow"])
    def test_the_replay_owns_its_errstate(self, kind, chunk, monkeypatch):
        # under numpy's default errstate an overflow warns, and the suite turns any warning into an error
        G, cert, steps = scaled_case({5: STOPS[kind][0]})
        values = cert.schedule.values
        set_chunk(monkeypatch, G, chunk)
        with np.errstate(over="raise", invalid="raise"):  # the oracle's
            want = list(replay_per_step(G, steps, values))
        assert len(want) == 5 and want[-1][3] == STOPS[kind][1].format(j=5)
        caller = np.geterr()
        got, T = replay_steps(G, steps, values)
        assert np.geterr() == caller  # the replay's own errstate ends with it
        assert len(got) == len(want)
        for j, (g, w) in enumerate(zip(got, want), 1):
            assert [bits(x) for x in g] == [bits(x) for x in w[:4]], f"step {j}"
        assert bits(T) == bits(want[-1][4])

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        scaled=st.dictionaries(st.integers(1, 10), st.sampled_from(sorted(STOPS)), min_size=1, max_size=2),
        chunk=st.integers(1, 5),
    )
    def test_any_stop_in_any_chunk_has_the_per_step_bits(self, scaled, chunk):
        # the first scaled step ends the replay, whatever a second one later in its chunk does to the sums
        G, cert, steps = scaled_case({step: STOPS[kind][0] for step, kind in scaled.items()})
        j = min(scaled)
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_chunk(monkeypatch, G, chunk)
            with np.errstate(over="raise", invalid="raise"):  # the oracle's
                assert replays_alike(G, steps, cert.schedule.values) == j
            report = verify_certificate(G, cert)
        assert report.failures()[0].startswith(f"steps: step {j}: {STOPS[scaled[j]][1].format(j=j)}")
        assert report.min_margin_step == j
