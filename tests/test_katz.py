"""Exact set-system machinery and the endpoint-pinning dichotomy."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from framesel import (
    KatzSystem,
    build_katz,
    closed_form_range,
    dichotomy_check,
    save_dichotomy_report,
    subset_sum_range,
)


def brute_range(N, members):
    """Independent route: enumerate N-subsets as Python sets, no bitmasks."""
    ground = range(1, 2 * N + 1)
    counts = [len(set(A) & set(members)) for A in itertools.combinations(ground, N)]
    return Fraction(min(counts), N), Fraction(max(counts), N)


class TestConstruction:
    @pytest.mark.parametrize("N,size", [(1, 2), (2, 6), (3, 20), (5, 252)])
    def test_point_counts(self, N, size):
        assert build_katz(N).num_points == size
        assert build_katz(N).num_points == math.comb(2 * N, N)

    def test_every_point_has_n_elements(self):
        system = build_katz(4)
        for pos in range(system.num_points):
            assert len(system.point_members(pos)) == 4

    def test_lexicographic_order(self):
        system = build_katz(2)
        assert system.point_members(0) == (1, 2)
        assert system.point_members(1) == (1, 3)
        assert system.point_members(-1 % system.num_points) == (3, 4)

    @pytest.mark.parametrize("N", range(1, 11))
    def test_masks_match_itertools_combinations(self, N):
        want = [sum(1 << e for e in combo) for combo in itertools.combinations(range(2 * N), N)]
        masks = build_katz(N).masks
        assert masks.dtype == np.uint64 and not masks.flags.writeable
        assert masks.tolist() == want

    def test_functions_sum_to_one_everywhere(self):
        system = build_katz(3)
        values = system.function_sum_values(range(1, 7))
        assert all(v == Fraction(1) for v in values)

    def test_n1_system(self):
        system = build_katz(1)
        assert system.num_points == 2
        assert system.point_members(0) == (1,)
        assert system.point_members(1) == (2,)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_katz(11)  # C(22, 11) = 705432 points

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_katz(0)


class TestSubsetSums:
    def test_empty_subset(self):
        assert subset_sum_range(build_katz(3), ()) == (Fraction(0), Fraction(0))

    def test_displayed_n2_cases(self):
        system = build_katz(2)
        lo, hi = subset_sum_range(system, (1, 2, 3))
        assert hi == Fraction(1)  # S contains the point {1, 2}
        lo, hi = subset_sum_range(system, (1,))
        assert lo == Fraction(0)  # some point avoids S

    def test_matches_closed_form_exhaustively(self):
        for N in (1, 2, 3):
            system = build_katz(N)
            ground = range(1, 2 * N + 1)
            for size in range(2 * N + 1):
                for members in itertools.combinations(ground, size):
                    assert subset_sum_range(system, members) == closed_form_range(N, size)

    def test_matches_setwise_brute_force(self):
        system = build_katz(3)
        for members in [(1,), (2, 5), (1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5, 6), tuple(range(1, 7))]:
            assert subset_sum_range(system, members) == brute_range(3, members)

    def test_results_are_exact_fractions(self):
        lo, hi = subset_sum_range(build_katz(4), (1, 2, 3))
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert hi == Fraction(3, 4)

    def test_rejects_bad_indices(self):
        system = build_katz(2)
        with pytest.raises(ValueError):
            subset_sum_range(system, (0,))
        with pytest.raises(ValueError):
            subset_sum_range(system, (5,))
        with pytest.raises(ValueError):
            subset_sum_range(system, (1, 1))

    def test_closed_form_validates(self):
        with pytest.raises(ValueError):
            closed_form_range(0, 0)
        with pytest.raises(ValueError):
            closed_form_range(3, 7)

    def test_closed_form_large_n(self):
        lo, hi = closed_form_range(10**6, 10**6 + 3)
        assert lo == Fraction(3, 10**6)
        assert hi == Fraction(1)


class TestDichotomy:
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_exhaustive_pass(self, N):
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        assert report.passed
        assert report.subsets_checked == 2 ** (2 * N)
        assert not report.violations
        assert not report.closed_form_mismatches

    def test_both_endpoints_at_size_n(self):
        N = 3
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        assert report.both_pinned == math.comb(2 * N, N)

    def test_pinned_counts(self):
        # subsets with |S| <= N hit min 0; |S| >= N hit max 1
        N = 2
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        expected_min = sum(math.comb(4, s) for s in range(N + 1))
        expected_max = sum(math.comb(4, s) for s in range(N, 5))
        assert report.min_pinned == expected_min
        assert report.max_pinned == expected_max

    def test_sampled_mode_deterministic(self):
        system = build_katz(8)
        a = dichotomy_check(system, mode="sampled", trials=500, seed=3)
        b = dichotomy_check(system, mode="sampled", trials=500, seed=3)
        assert a.passed and b.passed
        assert a.subsets_checked == b.subsets_checked == 500
        assert a.to_dict() == b.to_dict()

    def test_auto_mode_switches(self):
        assert dichotomy_check(build_katz(2)).mode == "exhaustive"
        assert dichotomy_check(build_katz(7), trials=50).mode == "sampled"

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
    def test_rejects_nonpositive_trials(self, mode):
        # zero draws would pass having checked nothing
        for trials in (0, -1):
            with pytest.raises(ValueError):
                dichotomy_check(build_katz(3), mode=mode, trials=trials)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            dichotomy_check(build_katz(2), mode="guess")

    def test_confined_subsets_are_recorded_by_members(self):
        # two disjoint points {1, 2} and {3, 4}: every S with one element
        # from each meets both once, so it is confined and off the closed form
        system = KatzSystem(N=2, masks=np.array([0b0011, 0b1100], dtype=np.uint64))
        report = dichotomy_check(system, mode="exhaustive")
        confined = ((1, 3), (2, 3), (1, 4), (2, 4))
        assert report.violations == confined
        assert report.closed_form_mismatches == confined
        assert report.subsets_checked == 16

    def test_report_json(self, tmp_path):
        report = dichotomy_check(build_katz(2))
        path = tmp_path / "report.json"
        save_dichotomy_report(report, path)
        data = json.loads(path.read_text())
        assert data["N"] == 2
        assert data["mode"] == "exhaustive"
        assert data["passed"] is True
        assert data["violations"] == []
        assert "confined" in data["note"]
