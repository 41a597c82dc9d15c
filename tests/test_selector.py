"""Barrier schedule, feasibility, greedy selection, certificates."""

import copy
import math
import warnings

import numpy as np
import pytest

from framesel import (
    BarrierError,
    CertificateMismatchError,
    FrameError,
    FrameFamily,
    SelectionError,
    ToleranceBreachError,
    averaging_identity_check,
    barrier_push_check,
    barrier_schedule,
    certificate_from_dict,
    certificate_to_dict,
    complement_lower_bound,
    eigenvalue_histogram,
    eigh,
    feasibility_value,
    harmonic_frame,
    initial_selection_state,
    load_certificate,
    modulated_harmonic_frame,
    outer_product_accumulate,
    save_certificate,
    select_prefixes,
    select_subset,
    selection_step,
    upper_potential,
    verify_certificate,
)
from framesel import selector

from oracles import feasibility_by_inverse, potential_by_inverse, random_psd, random_unit


class TestSchedule:
    def test_displayed_values_n25_m200(self):
        sched = barrier_schedule(25, 200, 199)
        assert sched.start == pytest.approx(0.2, abs=1e-15)
        assert sched.step == pytest.approx(1.25 / 200, abs=1e-15)
        assert sched.values[100] == pytest.approx(0.2 + 1.25 * 0.5, abs=1e-12)

    def test_displayed_values_n4_m8(self):
        sched = barrier_schedule(4, 8, 7)
        assert sched.start == pytest.approx(0.5, abs=1e-15)
        assert sched.step == pytest.approx(0.25, abs=1e-15)

    def test_start_is_inverse_root(self):
        for N in (2, 9, 49):
            assert barrier_schedule(N, 10, 5).start == pytest.approx(1.0 / math.sqrt(N), abs=1e-15)

    def test_telescoping(self):
        sched = barrier_schedule(9, 36, 35)
        total = sched.values[-1] - sched.values[0]
        assert total == pytest.approx(sched.step * 35, rel=1e-12)

    def test_strictly_increasing(self):
        sched = barrier_schedule(16, 64, 63)
        assert np.all(np.diff(sched.values) > 0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            barrier_schedule(1, 8, 4)
        with pytest.raises(ValueError):
            barrier_schedule(4, 8, 8)
        with pytest.raises(ValueError):
            barrier_schedule(4, 8, -1)
        with pytest.raises(ValueError):
            barrier_schedule(4, 0, 0)


class TestPotential:
    def test_zero_operator_value(self):
        k, N = 8, 25
        T = np.zeros((k, k))
        assert upper_potential(T, 1.0 / math.sqrt(N)) == pytest.approx(k * math.sqrt(N), rel=1e-12)

    def test_scalar_example(self):
        assert upper_potential(np.diag([0.5]), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            T = random_psd(rng, k)
            a = float(np.max(np.linalg.eigvalsh(T))) + 0.3
            assert upper_potential(T, a) == pytest.approx(potential_by_inverse(T, a), rel=1e-8)

    def test_decreasing_in_barrier(self):
        rng = np.random.default_rng(41)
        T = random_psd(rng, 5)
        top = float(np.max(np.linalg.eigvalsh(T)))
        assert upper_potential(T, top + 0.2) > upper_potential(T, top + 0.5)

    def test_rejects_barrier_below_spectrum(self):
        with pytest.raises(BarrierError):
            upper_potential(np.diag([1.0, 2.0]), 1.5)

    def test_resolvent_trace_ordering(self):
        # Tr((aI-T)^{-1}(a'I-T)^{-1}) > Tr((a'I-T)^{-2}) for a < a'
        rng = np.random.default_rng(42)
        for _ in range(20):
            T = random_psd(rng, 6)
            lam = np.linalg.eigvalsh(T)
            a = float(lam[-1]) + 0.1
            a_next = a + float(rng.uniform(0.05, 0.5))
            mixed = float(np.sum(1.0 / ((a - lam) * (a_next - lam))))
            squared = float(np.sum(1.0 / (a_next - lam) ** 2))
            assert mixed > squared


class TestFeasibility:
    def test_scalar_hand_example(self):
        # T = 0 in dimension 1, a = 0.5, a' = 0.75, v = 1/2:
        # gap = 2 - 4/3 = 2/3, U = (0.25 * 16/9)/(2/3) + 0.25 * 4/3 = 1
        T = np.zeros((1, 1))
        v = np.array([0.5])
        assert feasibility_value(T, v, 0.5, 0.75) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_gives_zero(self):
        T = np.diag([0.1, 0.2])
        assert feasibility_value(T, np.zeros(2), 0.5, 0.75) == 0.0

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            T = random_psd(rng, k)
            top = float(np.max(np.linalg.eigvalsh(T)))
            a = top + float(rng.uniform(0.05, 0.5))
            a_next = a + float(rng.uniform(0.05, 0.5))
            v = random_unit(rng, k)
            fast = feasibility_value(T, v, a, a_next)
            slow = feasibility_by_inverse(T, v, a, a_next)
            assert fast == pytest.approx(slow, rel=1e-8)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(51)
        T = random_psd(rng, 4)
        top = float(np.max(np.linalg.eigvalsh(T)))
        v = random_unit(rng, 4)
        a, a_next = top + 0.2, top + 0.4
        base = feasibility_value(T, v, a, a_next)
        for c in (0.5, 2.0, 3.0):
            assert feasibility_value(T, c * v, a, a_next) == pytest.approx(c * c * base, rel=1e-10)

    def test_requires_ordered_barriers(self):
        T = np.diag([0.1])
        with pytest.raises(BarrierError):
            feasibility_value(T, np.array([0.1]), 0.5, 0.5)
        with pytest.raises(BarrierError):
            feasibility_value(T, np.array([0.1]), 0.05, 0.5)


class TestBarrierPush:
    def test_zero_vector_decreases_potential(self):
        rng = np.random.default_rng(60)
        T = random_psd(rng, 4)
        top = float(np.max(np.linalg.eigvalsh(T)))
        a, a_next = top + 0.2, top + 0.4
        ok, phi_after = barrier_push_check(T, np.zeros(4), a, a_next)
        assert ok
        assert phi_after < upper_potential(T, a)

    def test_boundary_scalar_case(self):
        # U = 1 exactly: norm strictly below the shifted barrier, potentials equal
        T = np.zeros((1, 1))
        v = np.array([0.5])
        ok, phi_after = barrier_push_check(T, v, 0.5, 0.75)
        assert ok
        assert phi_after == pytest.approx(upper_potential(T, 0.5), rel=1e-12)

    def test_random_feasible_pushes(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            T = random_psd(rng, k)
            top = float(np.max(np.linalg.eigvalsh(T)))
            a = top + float(rng.uniform(0.05, 0.6))
            a_next = a + float(rng.uniform(0.05, 0.6))
            v = random_unit(rng, k)
            u = feasibility_value(T, v, a, a_next)
            if u > 1.0:
                v = v * (0.999 / math.sqrt(u))
            ok, phi_after = barrier_push_check(T, v, a, a_next)
            assert ok
            assert phi_after <= upper_potential(T, a) + 1e-10

    def test_breach_is_loud(self):
        # an infeasible vector pushes the norm past the barrier
        T = np.zeros((2, 2))
        v = np.array([2.0, 0.0])
        with pytest.raises(ToleranceBreachError):
            barrier_push_check(T, v, 0.5, 0.75)


class TestSelection:
    def test_sizes_and_margins(self):
        F = harmonic_frame(3, 4)
        for n in (1, 5, 11):
            cert = select_subset(F, n)
            assert cert.n == n
            assert len(set(cert.indices)) == n
            assert cert.margin > 0.0

    def test_prefix_consistency(self):
        F = harmonic_frame(2, 5)
        long_run = select_subset(F, 8)
        short_run = select_subset(F, 3)
        long_order = [s.index for s in long_run.steps]
        short_order = [s.index for s in short_run.steps]
        assert long_order[:3] == short_order

    def test_determinism(self):
        F = modulated_harmonic_frame(3, 4, seed=2)
        a = select_subset(F, 6)
        b = select_subset(F, 6)
        assert a.indices == b.indices
        assert [s.index for s in a.steps] == [s.index for s in b.steps]
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_k1_frame_selects_smallest_indices(self):
        # all candidates identical, so ties break to the smallest index
        F = harmonic_frame(1, 6)
        cert = select_subset(F, 3)
        assert [s.index for s in cert.steps] == [1, 2, 3]
        assert cert.lambda_max == pytest.approx(3.0 / 6.0, rel=1e-12)

    def test_potentials_nonincreasing(self):
        F = harmonic_frame(4, 4)
        cert = select_subset(F, 10)
        phis = [s.potential for s in cert.steps]
        start = F.k * math.sqrt(F.N)
        assert phis[0] <= start + 1e-9
        assert all(b <= a + 1e-9 for a, b in zip(phis, phis[1:]))

    def test_feasibility_at_most_one(self):
        F = harmonic_frame(4, 9)
        cert = select_subset(F, 20)
        assert all(s.feasibility <= 1.0 + 1e-9 for s in cert.steps)
        assert all(s.feasibility >= 0.0 for s in cert.steps)

    def test_lambda_max_under_schedule_at_each_step(self):
        F = harmonic_frame(3, 9)
        cert = select_subset(F, 15)
        for s in cert.steps:
            assert s.lambda_max < float(cert.schedule.values[s.j])

    def test_trace_identity_along_run(self):
        F = harmonic_frame(3, 5)
        state = initial_selection_state(F)
        sched = barrier_schedule(F.N, F.m, 10)
        T = np.zeros((F.k, F.k), dtype=np.complex128)  # T_j, rebuilt from the step records
        for j in range(10):
            assert float(np.real(np.trace(T))) == pytest.approx(j / F.N, abs=1e-9)
            assert float(state.eig.eigenvalues.sum()) == pytest.approx(j / F.N, abs=1e-9)
            state, record = selection_step(state, sched)
            T = outer_product_accumulate(T, F.vectors[record.index - 1])

    def test_rejects_out_of_range_n(self):
        F = harmonic_frame(2, 3)
        with pytest.raises(ValueError):
            select_subset(F, 0)
        with pytest.raises(ValueError):
            select_subset(F, F.m)

    def test_rejects_invalid_frame(self):
        F = harmonic_frame(2, 3)
        bad = FrameFamily(k=2, N=3, vectors=F.vectors * 1.05)
        with pytest.raises(FrameError):
            select_subset(bad, 2)

    def test_accepts_tiny_norm_drift_and_records_it(self):
        F = harmonic_frame(2, 4)
        drifted = FrameFamily(k=2, N=4, vectors=F.vectors * (1.0 + 2e-8))
        cert = select_subset(drifted, 4)
        assert cert.margin > 0.0
        assert cert.norm_deviation > 0.0

    def test_selection_error_carries_profile(self, monkeypatch):
        # an impossible feasibility threshold forces the no-candidate path
        F = harmonic_frame(2, 4)
        monkeypatch.setattr(selector, "_FEASIBILITY_SLACK", -2.0)
        with pytest.raises(SelectionError) as err:
            select_subset(F, 2)
        assert err.value.u_profile is not None
        assert len(err.value.u_profile) == F.m
        assert err.value.remaining.tolist() == list(range(1, F.m + 1))

    def test_schedule_exhaustion_and_empty_remaining(self):
        F = harmonic_frame(1, 3)
        sched = barrier_schedule(F.N, F.m, 1)
        state = initial_selection_state(F)
        state, _ = selection_step(state, sched)
        with pytest.raises(ValueError):
            selection_step(state, sched)

    @pytest.mark.parametrize(
        "F", [harmonic_frame(4, 9), modulated_harmonic_frame(6, 16, seed=3)], ids=["harmonic", "modulated"]
    )
    def test_recorded_feasibility_is_feasibility_value(self, F):
        # the scan's batched U and the one-vector feasibility_value are one formula
        n = F.m - 1
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        T = np.zeros((F.k, F.k), dtype=np.complex128)  # T_j, rebuilt from the step records
        for j in range(n):
            state, record = selection_step(state, sched)
            v = F.vectors[record.index - 1]
            u = feasibility_value(T, v, sched.values[j], sched.values[j + 1])
            assert record.feasibility == pytest.approx(u, rel=1e-12, abs=0.0)
            T = outer_product_accumulate(T, v)

    def test_remaining_is_a_fresh_read_only_array_per_step(self):
        F = harmonic_frame(2, 4)
        sched = barrier_schedule(F.N, F.m, 3)
        state = initial_selection_state(F)
        assert state.remaining.dtype == np.int64
        assert state.remaining.tolist() == list(range(1, F.m + 1))
        for _ in range(3):
            before = state.remaining.copy()
            nxt, step = selection_step(state, sched)
            assert np.array_equal(state.remaining, before)  # the old state is untouched
            assert nxt.remaining.tolist() == [i for i in before.tolist() if i != step.index]
            assert not nxt.remaining.flags.writeable
            with pytest.raises(ValueError):
                nxt.remaining[0] = 0
            state = nxt


def assert_same_certificate(got, want):
    assert got.steps == want.steps  # every recorded float, bit for bit
    assert got.indices == want.indices
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.bound == want.bound
    assert got.schedule.n == want.schedule.n
    assert got.schedule.values.tobytes() == want.schedule.values.tobytes()
    assert got.norm_deviation == want.norm_deviation


class TestPrefixes:
    """One greedy pass must reproduce every fresh run it stands in for."""

    def test_every_n_on_harmonic_frame(self, fresh_runs_8_25):
        frame, fresh = fresh_runs_8_25
        ns = range(1, frame.m)
        for n, cert in zip(ns, select_prefixes(frame, ns), strict=True):
            assert_same_certificate(cert, fresh[n])

    def test_every_n_on_modulated_frame(self):
        frame = modulated_harmonic_frame(6, 16, seed=3)
        ns = range(1, frame.m)
        for n, cert in zip(ns, select_prefixes(frame, ns), strict=True):
            assert_same_certificate(cert, select_subset(frame, n))

    def test_repeated_and_skipped_n(self):
        frame = harmonic_frame(3, 8)
        ns = [2, 2, 5, 11, 23]
        for n, cert in zip(ns, select_prefixes(frame, ns), strict=True):
            assert_same_certificate(cert, select_subset(frame, n))

    def test_bad_n_raises_when_reached(self):
        frame = harmonic_frame(2, 4)
        prefixes = select_prefixes(frame, [3, 8])
        assert next(prefixes).n == 3
        with pytest.raises(ValueError):
            next(prefixes)

    def test_decreasing_n_rejected(self):
        prefixes = select_prefixes(harmonic_frame(2, 4), [3, 2])
        next(prefixes)
        with pytest.raises(ValueError):
            next(prefixes)


class TestAveraging:
    def test_sum_bounded_by_count_along_run(self):
        F = harmonic_frame(3, 8)
        n = 12
        sched = barrier_schedule(F.N, F.m, n)
        state = initial_selection_state(F)
        for j in range(n):
            total, count = averaging_identity_check(state, sched)
            assert count == F.m - j
            assert total <= count * (1.0 + 1e-9)
            state, _ = selection_step(state, sched)

    def test_k1_symmetry_forces_feasibility(self):
        F = harmonic_frame(1, 5)
        sched = barrier_schedule(F.N, F.m, 2)
        state = initial_selection_state(F)
        total, count = averaging_identity_check(state, sched)
        per_vector = total / count
        assert per_vector <= 1.0 + 1e-12

    def test_requires_live_schedule(self):
        F = harmonic_frame(1, 3)
        sched = barrier_schedule(F.N, F.m, 1)
        state = initial_selection_state(F)
        state, _ = selection_step(state, sched)
        with pytest.raises(ValueError):
            averaging_identity_check(state, sched)


class TestComplement:
    def test_bound_holds(self):
        F = harmonic_frame(4, 9)
        cert = select_subset(F, 18)
        lam_min, bound = complement_lower_bound(F, cert)
        assert bound == pytest.approx(1.0 - cert.bound, abs=1e-15)
        assert lam_min >= bound - 1e-9

    def test_spectral_mapping_identity(self):
        F = harmonic_frame(3, 4)
        cert = select_subset(F, 6)
        lam_min, _ = complement_lower_bound(F, cert)
        assert lam_min == pytest.approx(1.0 - cert.lambda_max, abs=1e-10)

    def test_complement_size(self):
        F = harmonic_frame(2, 6)
        cert = select_subset(F, 5)
        assert F.m - cert.n == 7

    def test_mismatched_frame_rejected(self):
        cert = select_subset(harmonic_frame(2, 6), 5)
        other = harmonic_frame(3, 4)
        with pytest.raises(CertificateMismatchError):
            complement_lower_bound(other, cert)


class TestVerification:
    def test_fresh_certificate_verifies(self):
        F = harmonic_frame(4, 4)
        cert = select_subset(F, 8)
        report = verify_certificate(F, cert)
        assert report.passed, report.summary()
        assert report.final_margin > 0.0
        assert report.min_step_margin > 0.0

    def test_all_failure_modes_detected(self):
        F = harmonic_frame(2, 4)
        cert = select_subset(F, 4)
        base = certificate_to_dict(cert)

        def tampered(mutate):
            import copy

            data = copy.deepcopy(base)
            mutate(data)
            return certificate_from_dict(data)

        # smaller claimed top eigenvalue
        report = verify_certificate(F, tampered(lambda d: d["final"]["eigenvalues"].__setitem__(-1, 0.01)))
        assert not report.passed
        # altered recorded potential
        report = verify_certificate(F, tampered(lambda d: d["steps"][1].__setitem__("phi", 1.0)))
        assert not report.passed
        # altered recorded feasibility
        report = verify_certificate(F, tampered(lambda d: d["steps"][0].__setitem__("U", 0.0)))
        assert not report.passed
        # index swapped for an unused one, final set left alone
        used = {s["index"] for s in base["steps"]}
        spare = next(i for i in range(1, F.m + 1) if i not in used)
        report = verify_certificate(F, tampered(lambda d: d["steps"][2].__setitem__("index", spare)))
        assert not report.passed
        # truncated steps
        report = verify_certificate(F, tampered(lambda d: d.__setitem__("steps", d["steps"][:-1])))
        assert not report.passed
        # schedule off formula
        report = verify_certificate(F, tampered(lambda d: d["schedule"]["values"].__setitem__(0, 0.9)))
        assert not report.passed

    def test_barrier_crossing_is_reported_not_raised(self):
        # step indices 1..20 in order: T_19 = v_1 (x) v_1 + ... + v_19 (x) v_19
        # reaches past a_19 = 0.675, so the replay must stop there and say so
        F = harmonic_frame(2, 25)
        data = certificate_to_dict(select_subset(F, 20))
        for j, step in enumerate(data["steps"], 1):
            step["index"] = j
        data["final"]["indices"] = list(range(1, 21))
        report = verify_certificate(F, certificate_from_dict(data))
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert not report.passed
        assert not checks["steps"][0]
        assert checks["steps"][1].startswith("step 19: norm bound breached")
        assert checks["final-norm"] == (False, "replay stopped at step 19 of 20")
        assert math.isnan(report.final_margin)
        lam_19 = float(np.linalg.eigvalsh(F.rank_one_sum(range(1, 20)))[-1])
        assert report.min_step_margin == pytest.approx(0.675 - lam_19, abs=1e-12)
        assert report.min_step_margin < 0.0
        assert report.min_margin_step == 19

    @pytest.mark.parametrize("scale", [1e200, 1e160])
    def test_overflowing_replay_is_reported_not_raised(self, scale):
        # every T_1 = v (x) v of the scaled frame overflows; the replay must stop
        # at step 1, warn nothing, count its margin as -inf, and factor T_0 for
        # the final spectrum
        F = harmonic_frame(4, 9)
        cert = select_subset(F, 10)
        G = FrameFamily(k=F.k, N=F.N, vectors=F.vectors * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_certificate(G, cert)
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert not report.passed
        assert not checks["steps"][0]
        assert checks["steps"][1].startswith("step 1: T_1 is not finite")
        assert checks["spectrum"] == (False, "final eigenvalues differ")
        assert checks["final-norm"] == (False, "replay stopped at step 1 of 10")
        assert math.isnan(report.final_margin)
        assert report.min_step_margin == -math.inf
        assert report.min_margin_step == 1

    def test_overflow_at_a_later_step_keeps_the_last_finite_sum(self, monkeypatch):
        F = harmonic_frame(4, 9)
        cert = select_subset(F, 10)
        order = [s.index for s in cert.steps]
        vectors = F.vectors.copy()
        vectors[order[2] - 1] *= 1e200
        factored = []

        def recorded(T):
            factored.append(T)
            return eigh(T)

        monkeypatch.setattr(selector, "eigh", recorded)
        report = verify_certificate(FrameFamily(k=F.k, N=F.N, vectors=vectors), cert)
        checks = {name: (ok, detail) for name, ok, detail in report.checks}
        assert checks["steps"][1].startswith("step 3: T_3 is not finite")
        assert checks["final-norm"] == (False, "replay stopped at step 3 of 10")
        assert report.min_step_margin == -math.inf
        assert report.min_margin_step == 3
        [T] = factored
        np.testing.assert_allclose(T, F.rank_one_sum(order[:2]), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "F, n, tightest",
        [(harmonic_frame(4, 4), 15, 1), (modulated_harmonic_frame(16, 25, seed=3), 200, 13)],
        ids=["harmonic-4-4", "modulated-16-25"],
    )
    def test_min_margin_step_names_the_tightest_step(self, F, n, tightest):
        cert = select_subset(F, n)
        report = verify_certificate(F, cert)
        assert report.passed
        order = [s.index for s in cert.steps]
        margins = [
            float(cert.schedule.values[j]) - float(np.linalg.eigvalsh(F.rank_one_sum(order[:j]))[-1])
            for j in range(1, n + 1)
        ]
        assert report.min_margin_step == int(np.argmin(margins)) + 1 == tightest
        assert report.min_step_margin == pytest.approx(min(margins), abs=1e-12)

    def test_bad_step_numbers_and_schedule_are_reported(self):
        F = harmonic_frame(2, 4)
        base = certificate_to_dict(select_subset(F, 4))
        data = copy.deepcopy(base)
        data["steps"][1]["j"] = 99
        report = verify_certificate(F, certificate_from_dict(data))
        assert [name for name, ok, _ in report.checks if not ok] == ["steps"]
        assert "step 2: recorded as step 99" in report.summary()
        # a flat schedule has no potential gap; the replay runs on the formula's
        data = copy.deepcopy(base)
        data["schedule"]["values"][1] = data["schedule"]["values"][0]
        report = verify_certificate(F, certificate_from_dict(data))
        assert [name for name, ok, _ in report.checks if not ok] == ["schedule"]

    def test_malformed_schedule_is_reported_not_raised(self):
        # a value too many, or an n outside 0..m-1, leaves no formula schedule
        # to compare against: the schedule check fails and the replay stops
        F = harmonic_frame(2, 4)
        base = certificate_to_dict(select_subset(F, 4))
        for key, value in (("values", base["schedule"]["values"] + [1.0]), ("n", 8), ("n", -1)):
            data = copy.deepcopy(base)
            data["schedule"][key] = value
            report = verify_certificate(F, certificate_from_dict(data))
            assert [(name, ok) for name, ok, _ in report.checks] == [("compatibility", True), ("schedule", False)]
            assert math.isnan(report.final_margin) and math.isnan(report.min_step_margin)
            assert report.min_margin_step is None

    def test_wrong_frame_is_mismatch(self):
        F = harmonic_frame(2, 4)
        cert = select_subset(F, 4)
        other = harmonic_frame(4, 2)  # same m = 8, different k and N
        report = verify_certificate(other, cert)
        assert not report.passed
        assert any("mismatch" in line for line in report.failures())

    def test_same_shape_different_frame_fails_replay(self):
        # seeds chosen so the two frames differ in their Gram structure;
        # frames equal up to per-vector phases replay each other's
        # certificates legitimately (every recorded quantity is phase-blind)
        Fa = modulated_harmonic_frame(3, 4, seed=1)
        Fb = modulated_harmonic_frame(3, 4, seed=2)
        cert = select_subset(Fa, 6)
        report = verify_certificate(Fb, cert)
        assert not report.passed

    def test_phase_modulation_preserves_certificates(self):
        # rank-one sums ignore per-vector phases, so a rephased copy of the
        # frame accepts the original certificate
        rng = np.random.default_rng(3)
        Fa = harmonic_frame(2, 4)
        phases = np.exp(2j * np.pi * rng.random(Fa.m))
        Fb = FrameFamily(k=2, N=4, vectors=Fa.vectors * phases[:, None])
        cert = select_subset(Fa, 4)
        assert verify_certificate(Fb, cert).passed

    def test_report_summary_format(self):
        F = harmonic_frame(2, 2)
        report = verify_certificate(F, select_subset(F, 2))
        text = report.summary()
        assert "final margin" in text
        assert text.count("ok") >= 5


class TestCertificateJson:
    def test_round_trip_preserves_everything(self, tmp_path):
        F = harmonic_frame(3, 4)
        cert = select_subset(F, 7)
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        loaded = load_certificate(path)
        assert loaded.indices == cert.indices
        assert loaded.bound == cert.bound
        assert np.array_equal(loaded.eigenvalues, cert.eigenvalues)
        assert np.array_equal(loaded.schedule.values, cert.schedule.values)
        assert [s.index for s in loaded.steps] == [s.index for s in cert.steps]
        assert [s.feasibility for s in loaded.steps] == [s.feasibility for s in cert.steps]
        assert verify_certificate(F, loaded).passed

    def test_dict_schema(self):
        cert = select_subset(harmonic_frame(2, 2), 2)
        data = certificate_to_dict(cert)
        assert set(data) == {"schedule", "steps", "final", "norm_deviation"}
        assert set(data["schedule"]) == {"N", "m", "n", "values"}
        assert set(data["steps"][0]) == {"j", "index", "U", "phi", "lambda_max"}
        assert set(data["final"]) == {"indices", "eigenvalues", "bound"}
        assert data["steps"][0]["j"] == 1
        assert min(data["final"]["indices"]) >= 1

    def test_malformed_rejected(self):
        cert = select_subset(harmonic_frame(2, 2), 2)
        data = certificate_to_dict(cert)
        del data["schedule"]
        with pytest.raises(CertificateMismatchError):
            certificate_from_dict(data)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("schedule", "N"), 4.0),
            (("schedule", "m"), "8"),
            (("schedule", "n"), True),
            (("steps", 1, "j"), True),
            (("steps", 1, "index"), 1.7),
            (("steps", 1, "index"), "3"),
            (("final", "indices", 0), 1.0),
            (("steps", 0, "U"), "0.5"),
            (("steps", 0, "phi"), False),
            (("schedule", "values", 1), "0.75"),
            (("final", "eigenvalues", 0), True),
            (("final", "bound"), "1.5"),
            (("norm_deviation",), False),
        ],
    )
    def test_fields_are_type_checked_not_coerced(self, path, value):
        # before, int() and float() coerced these, and a step index of 1.7 or
        # a "j" of true loaded and then verified
        data = certificate_to_dict(select_subset(harmonic_frame(2, 4), 4))
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(CertificateMismatchError, match="expected an? (integer|number)"):
            certificate_from_dict(data)

    def test_nonfinite_rejected(self):
        # _number refuses these as it reads them; no second pass looks again
        cert = select_subset(harmonic_frame(2, 2), 2)
        places = [("final", "eigenvalues", 0), ("steps", 1, "U"), ("schedule", "values", 2)]
        for place in places:
            for value in (math.inf, math.nan, -math.inf):
                data = certificate_to_dict(cert)
                target = data
                for key in place[:-1]:
                    target = target[key]
                target[place[-1]] = value
                with pytest.raises(CertificateMismatchError, match="expected a finite number"):
                    certificate_from_dict(data)


class TestDiagnostics:
    def test_histogram_mass_near_ratio(self):
        F = harmonic_frame(8, 25)
        cert = select_subset(F, 100)
        counts, edges = eigenvalue_histogram(cert, bins=10)
        assert counts.sum() == F.k
        ratio = cert.n / cert.schedule.m
        centers = (edges[:-1] + edges[1:]) / 2
        # sanity only: the heaviest bin sits in the neighborhood of n/m
        heaviest = centers[int(np.argmax(counts))]
        assert abs(heaviest - ratio) < 0.3
