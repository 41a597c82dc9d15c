"""Acceptance gate: the package's headline guarantees, one criterion per test.

Each test prints a single PASS/FAIL line (outside pytest's capture) so the
whole gate can be eyeballed in one screen, then asserts. Criteria stress the
exact tolerances promised by the library, not looser ones.
"""

import itertools
import math
import time

import numpy as np
import pytest

from framesel import (
    DiagonalSelector,
    chebyshev_sum_bound,
    compressed_gram,
    complement_lower_bound,
    build_katz,
    dichotomy_check,
    feasibility_value,
    frame_to_projection,
    harmonic_frame,
    resolvent_rank_one_downdate,
    select_subset,
    sherman_morrison_resolvent_update,
    upper_potential,
)

from oracles import gauss_jordan_inverse, random_psd, random_unit


@pytest.fixture()
def announce(capsys):
    def _announce(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")

    return _announce


@pytest.fixture(scope="module")
def full_sweep():
    """Criterion-1 workload, shared by criteria 1, 2, 3, and 7."""
    frame = harmonic_frame(8, 25)
    start = time.perf_counter()
    certs = {n: select_subset(frame, n) for n in range(1, 200)}
    elapsed = time.perf_counter() - start
    return frame, certs, elapsed


def test_criterion_01_full_sweep_bound(full_sweep, announce):
    frame, certs, elapsed = full_sweep
    ok = True
    worst = math.inf
    for n, cert in certs.items():
        expected_bound = 0.2 + 1.25 * (n / 200.0)
        ok &= cert.n == n
        ok &= len(set(cert.indices)) == n
        ok &= abs(cert.bound - expected_bound) < 1e-12
        ok &= cert.lambda_max < cert.bound  # strict, no tolerance credit
        worst = min(worst, cert.margin)
    ok &= elapsed < 10.0
    announce(1, ok, f"199 runs on k=8 N=25, all strict, worst margin {worst:.4f}, {elapsed:.2f}s")
    assert ok


def test_criterion_02_initial_potential_and_monotonicity(full_sweep, announce):
    frame, certs, _ = full_sweep
    k, N = frame.k, frame.N
    start_value = upper_potential(np.zeros((k, k)), 1.0 / math.sqrt(N))
    ok = abs(start_value - k * math.sqrt(N)) <= 1e-10 * k * math.sqrt(N)
    for cert in certs.values():
        phis = [float(s.potential) for s in cert.steps]
        ok &= phis[0] <= start_value + 1e-9
        ok &= all(later <= earlier + 1e-9 for earlier, later in zip(phis, phis[1:]))
    announce(2, ok, f"initial potential {start_value:.12f} = k*sqrt(N) = {k * math.sqrt(N)}, all runs nonincreasing")
    assert ok


def test_criterion_03_averaging_identity(full_sweep, announce):
    frame, certs, _ = full_sweep
    m, N, k = frame.m, frame.N, frame.k
    norms2 = np.sum(np.abs(frame.vectors) ** 2, axis=1)
    ok = True
    for cert in certs.values():
        trace = 0.0
        for step in cert.steps:
            j = step.j - 1  # state the step was computed from
            ok &= abs(N * (k - trace) - (m - j)) <= 1e-8 * m
            ok &= step.remaining_count == m - j
            ok &= step.feasibility_sum <= (m - j) * (1.0 + 1e-9)
            trace += float(norms2[step.index - 1])
        ok &= abs(N * (k - trace) - (m - cert.n)) <= 1e-8 * m
    announce(3, ok, "N*Tr(I - T_j) = m - j and sum U <= m - j at every step of every run")
    assert ok


def test_criterion_04_feasible_push_suite(announce):
    rng = np.random.default_rng(104)
    trials = 1000
    ok = True
    for _ in range(trials):
        k = int(rng.integers(1, 11))
        T = random_psd(rng, k)
        lam = np.linalg.eigvalsh(T)
        a = float(lam[-1]) + float(rng.uniform(1e-3, 1.0))
        delta = float(rng.uniform(1e-3, 1.0))
        v = float(rng.uniform(0.1, 2.0)) * random_unit(rng, k)
        u = feasibility_value(T, v, a, a + delta)
        if u > 1.0:
            v = v * (0.999 / math.sqrt(u))  # feasibility scales exactly quadratically
        updated = T + np.outer(v, v.conj())
        top = float(np.max(np.linalg.eigvalsh(updated)))
        ok &= top < a + delta
        ok &= upper_potential(updated, a + delta) <= upper_potential(T, a) + 1e-10
    announce(4, ok, f"{trials} random feasible rank-one pushes kept norm and potential in bounds")
    assert ok


def test_criterion_05_ordered_sum_inequality(announce):
    rng = np.random.default_rng(105)
    trials = 10_000
    ok = True
    for _ in range(trials):
        k = int(rng.integers(1, 21))
        a = np.sort(rng.uniform(1e-3, 10.0, size=k))
        b = np.sort(rng.uniform(1e-3, 10.0, size=k))[::-1]
        lhs, rhs = chebyshev_sum_bound(a, b)
        ok &= lhs <= rhs * (1.0 + 1e-12)
    for k in (1, 5, 20):
        lhs, rhs = chebyshev_sum_bound(np.full(k, 2.5), np.full(k, 0.4))
        ok &= abs(lhs - rhs) <= 1e-12 * rhs
    announce(5, ok, f"{trials} monotone pairs satisfy the bound; constant sequences attain equality")
    assert ok


def test_criterion_06_sherman_morrison_cross_check(announce):
    rng = np.random.default_rng(106)
    trials = 1000
    ok = True
    worst = 0.0
    for _ in range(trials):
        k = int(rng.integers(2, 9))
        T = random_psd(rng, k)
        lam_top = float(np.max(np.linalg.eigvalsh(T)))
        a = lam_top + float(rng.uniform(0.1, 1.0))
        R = a * np.eye(k) - T
        Rinv = gauss_jordan_inverse(R)
        v = math.sqrt(0.5 * (a - lam_top)) * random_unit(rng, k)
        down = resolvent_rank_one_downdate(Rinv, v)
        direct_down = gauss_jordan_inverse(R - np.outer(v, v.conj()))
        rel = float(np.linalg.norm(down - direct_down) / np.linalg.norm(direct_down))
        up = sherman_morrison_resolvent_update(Rinv, v)
        direct_up = gauss_jordan_inverse(R + np.outer(v, v.conj()))
        rel = max(rel, float(np.linalg.norm(up - direct_up) / np.linalg.norm(direct_up)))
        worst = max(worst, rel)
        ok &= rel <= 1e-8
    announce(6, ok, f"{trials} rank-one updates vs dense inversion, worst relative error {worst:.2e}")
    assert ok


def test_criterion_07_complement_bound(full_sweep, announce):
    frame, certs, _ = full_sweep
    ok = True
    for n, cert in certs.items():
        lam_min, bound = complement_lower_bound(frame, cert)
        ok &= lam_min >= bound - 1e-9
        ok &= frame.m - cert.n == 200 - n
    announce(7, ok, "complement lambda_min >= 1 - a_n - 1e-9 over all 199 runs, sizes m - n")
    assert ok


def test_criterion_08_gram_compression_equivalence(announce):
    ok = True
    worst = 0.0
    for k, N in itertools.product((2, 4), (4, 9)):
        frame = harmonic_frame(k, N)
        P = frame_to_projection(frame)
        m = frame.m
        for n in sorted({max(1, m // 4), m // 2, min(m - 1, 3 * m // 4)}):
            cert = select_subset(frame, n)
            sub = compressed_gram(P, DiagonalSelector(m=m, indices=cert.indices))
            qpq_norm = float(np.max(np.linalg.eigvalsh(sub)))
            dev = abs(qpq_norm - cert.lambda_max)
            worst = max(worst, dev)
            ok &= dev <= 1e-10
    announce(8, ok, f"||QPQ|| vs lambda_max(T_n) on k in {{2,4}}, N in {{4,9}}, worst gap {worst:.2e}")
    assert ok


def test_criterion_09_katz_dichotomy_exhaustive(announce):
    start = time.perf_counter()
    ok = True
    for N in range(2, 11):
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        ok &= report.passed
        ok &= report.subsets_checked == 2 ** (2 * N)
        ok &= not report.violations
        ok &= not report.closed_form_mismatches
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(9, ok, f"exhaustive N in 2..10, exact arithmetic, closed form confirmed, {elapsed:.2f}s")
    assert ok


def test_criterion_10_brute_force_subset_oracle(announce):
    frame = harmonic_frame(2, 4)
    vectors = frame.vectors
    ok = True
    for n in range(1, 8):
        cert = select_subset(frame, n)
        bound = cert.bound
        meeting = set()
        for subset in itertools.combinations(range(8), n):
            vs = vectors[list(subset)]
            top = float(np.max(np.linalg.eigvalsh(vs.T @ vs.conj())))
            if top < bound:
                meeting.add(subset)
        ok &= len(meeting) > 0
        greedy = tuple(i - 1 for i in cert.indices)
        ok &= greedy in meeting
    announce(10, ok, "k=2 N=4: exhaustive enumeration confirms the greedy subset meets every bound")
    assert ok


def test_criterion_11_scaling_trend(announce):
    ok = True
    rows = []
    for N in (25, 100, 400):
        frame = harmonic_frame(4, N)
        n = frame.m // 2
        cert = select_subset(frame, n)
        excess = cert.lambda_max - 0.5
        root = math.sqrt(N)
        limit = 1.0 / root + 1.0 / (2.0 * (root - 1.0))
        ok &= excess <= limit
        rows.append(f"N={N}: excess {excess:.5f} <= {limit:.5f}")
    announce(11, ok, "; ".join(rows))
    assert ok
