"""Exact set-system machinery and the endpoint-pinning dichotomy."""

import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesel import (
    KatzSystem,
    build_katz,
    closed_form_range,
    dichotomy_check,
    save_dichotomy_report,
    subset_sum_range,
)
from framesel import katz
from framesel.cli import main
from oracles import count_extremes_all_points, dichotomy_by_sets

DATA = Path(__file__).resolve().parent / "data"


def brute_range(N, members):
    """Independent route: enumerate N-subsets as Python sets, no bitmasks."""
    ground = range(1, 2 * N + 1)
    counts = [len(set(A) & set(members)) for A in itertools.combinations(ground, N)]
    return Fraction(min(counts), N), Fraction(max(counts), N)


def ground_set(mask, size):
    """1-based elements of the lowest ``size`` bits of ``mask``, read off its binary digits."""
    digits = format(int(mask) & ((1 << size) - 1), f"0{size}b")
    return {size - pos for pos, digit in enumerate(digits) if digit == "1"}


def system_of(N, masks):
    masks = np.array(masks, dtype=np.uint64)
    masks.setflags(write=False)
    return KatzSystem(N=N, masks=masks)


def tally(report):
    """The fields ``dichotomy_by_sets`` computes, read off a report."""
    return {name: getattr(report, name) for name in (
        "subsets_checked", "min_pinned", "max_pinned", "both_pinned", "violations", "closed_form_mismatches",
    )}


def sampled_draws(N, trials, seed):
    """The subsets sampled mode checks, as masks: its documented uniform draw."""
    return np.random.default_rng(seed).integers(0, 1 << 2 * N, size=trials, dtype=np.uint64)


def drawn_subsets(N, trials, seed):
    """The subsets sampled mode checks, decoded to sets."""
    return [ground_set(s, 2 * N) for s in sampled_draws(N, trials, seed)]


def stray_bit_system():
    """build_katz(3)'s points, with bits above the ground set switched on."""
    stray = np.uint64(0b1011 << 6) | np.uint64(1 << 63)
    return system_of(3, build_katz(3).masks | stray)


def wide_masks():
    """N = 17 points as ints: 34 ground elements, and points that use elements 33 and 34."""
    N, rng = 17, np.random.default_rng(11)
    masks = [sum(1 << int(e) for e in rng.choice(2 * N, N, replace=False)) for _ in range(120)]
    return masks + [(0b11 << 32) | ((1 << 15) - 1), (1 << 33) | ((1 << 16) - 1)]


def product_system(N, seed, pairs):
    """Points (h << N) | l over a few products H x L of random high and low parts, shuffled.

    Each pair in ``pairs`` gives (|H|, |L|), so several high parts share one
    set of low parts; a part may repeat, which duplicates points.
    """
    rng = np.random.default_rng(seed)
    masks = []
    for h_size, l_size in pairs:
        highs, lows = rng.integers(0, 1 << N, h_size), rng.integers(0, 1 << N, l_size)
        masks += [(int(h) << N) | int(l) for h in highs for l in lows]
    return system_of(N, rng.permutation(masks))


def hand_built_systems():
    """Seeded systems that no symmetry of build_katz describes."""
    rng = np.random.default_rng(5)
    base = rng.integers(0, 1 << 10, 40)
    yield "duplicated", system_of(5, np.concatenate([base, base[rng.integers(0, 40, 25)], base[:3]]))
    yield "shared-low-sets", product_system(5, 6, [(6, 4), (3, 7), (1, 1)])
    # one product less five points: groups whose low parts differ from a shared set by one
    yield "almost-shared", system_of(5, product_system(5, 7, [(4, 6), (7, 3)]).masks[5:])
    # every group by high part has its own low part: one point per group, the costliest layout
    yield "all-groups-distinct", system_of(5, (rng.permutation(32) << 5) | rng.permutation(32))
    yield "random-popcounts", system_of(6, rng.integers(0, 1 << 12, 300))


class TestConstruction:
    @pytest.mark.parametrize("N,size", [(1, 2), (2, 6), (3, 20), (5, 252)])
    def test_point_counts(self, N, size):
        assert build_katz(N).num_points == size
        assert build_katz(N).num_points == math.comb(2 * N, N)

    def test_numpy_integer_n_gives_the_int_report(self, tmp_path):
        for name, N in (("int", 5), ("int64", np.int64(5))):
            system = build_katz(N)
            assert type(system.N) is int
            save_dichotomy_report(dichotomy_check(system), tmp_path / f"{name}.json")
        assert (tmp_path / "int64.json").read_bytes() == (tmp_path / "int.json").read_bytes()
        assert type(KatzSystem(N=np.int64(2), masks=build_katz(2).masks).N) is int

    @pytest.mark.parametrize("N", [5.0, True, np.float64(5.0)], ids=repr)
    def test_float_and_bool_n_are_refused(self, N, tmp_path):
        text = f"^{re.escape(f'expected an integer, got {N!r}')}$"
        with pytest.raises(TypeError, match=text):
            save_dichotomy_report(dichotomy_check(build_katz(N)), tmp_path / "report.json")
        with pytest.raises(TypeError, match=text):
            KatzSystem(N=N, masks=build_katz(5).masks)
        assert list(tmp_path.iterdir()) == []

    def test_every_point_has_n_elements(self):
        system = build_katz(4)
        for mask in system.masks:
            assert len(ground_set(mask, 8)) == 4

    def test_lexicographic_order(self):
        system = build_katz(2)
        assert ground_set(system.masks[0], 4) == {1, 2}
        assert ground_set(system.masks[1], 4) == {1, 3}
        assert ground_set(system.masks[-1], 4) == {3, 4}

    @pytest.mark.parametrize("N", range(1, 11))
    def test_masks_match_itertools_combinations(self, N):
        want = [sum(1 << e for e in combo) for combo in itertools.combinations(range(2 * N), N)]
        masks = build_katz(N).masks
        assert masks.dtype == np.uint64 and not masks.flags.writeable
        assert masks.tolist() == want

    def test_functions_sum_to_one_everywhere(self):
        system = build_katz(3)
        values = [Fraction(int(c), system.N) for c in system.intersection_counts(range(1, 7))]
        assert all(v == Fraction(1) for v in values)

    def test_n1_system(self):
        system = build_katz(1)
        assert system.num_points == 2
        assert ground_set(system.masks[0], 2) == {1}
        assert ground_set(system.masks[1], 2) == {2}

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

    def test_stray_high_bits_do_not_count(self):
        system = stray_bit_system()
        for members in [(1,), (2, 5), (1, 2, 3), (2, 3, 4, 5, 6), tuple(range(1, 7))]:
            assert subset_sum_range(system, members) == brute_range(3, members)
            assert system.intersection_counts(members).tolist() == \
                build_katz(3).intersection_counts(members).tolist()

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
    @pytest.mark.parametrize("N", [1, 2, 3, 7, 8])
    def test_exhaustive_pass(self, N):
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        assert report.passed
        assert report.subsets_checked == 2 ** (2 * N)
        assert not report.violations
        assert not report.closed_form_mismatches

    @pytest.mark.parametrize("N", [9, 10])
    def test_auto_mode_checks_every_subset_up_to_the_build_cap(self, N):
        report = dichotomy_check(build_katz(N))
        assert report.mode == "exhaustive" and report.subsets_checked == 4 ** N
        assert report.min_pinned == sum(math.comb(2 * N, s) for s in range(N + 1))
        assert report.max_pinned == sum(math.comb(2 * N, s) for s in range(N, 2 * N + 1))
        assert report.both_pinned == math.comb(2 * N, N)
        assert report.passed and not report.violations and not report.closed_form_mismatches

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
        # build_katz stops at N = 10, so only a hand-built system is large enough to be sampled
        assert dichotomy_check(system_of(11, [(1 << 11) - 1, ((1 << 11) - 1) << 11]), trials=50).mode == "sampled"

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
    def test_rejects_nonpositive_trials(self, mode):
        # zero draws would pass having checked nothing
        for trials in (0, -1):
            with pytest.raises(ValueError):
                dichotomy_check(build_katz(3), mode=mode, trials=trials)

    @pytest.mark.parametrize("check", [
        lambda system: dichotomy_check(system),
        lambda system: dichotomy_check(system, mode="sampled", trials=10),
        lambda system: subset_sum_range(system, (1, 2)),
    ])
    def test_rejects_a_system_without_points(self, check):
        with pytest.raises(ValueError, match="empty point set"):
            check(system_of(3, []))

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


class TestGoldenReports:
    @pytest.mark.parametrize("name,argv", [
        ("katz-N6-exhaustive.json", ["--N", 6]),
        ("katz-N8-sampled-trials500-seed3.json", ["--N", 8, "--sampled", "--trials", 500, "--seed", 3]),
        ("katz-N10-sampled-trials4000-seed1.json", ["--N", 10, "--sampled", "--trials", 4000, "--seed", 1]),
        ("katz-N10-sampled-trials4000-seed2.json", ["--N", 10, "--sampled", "--trials", 4000, "--seed", 2]),
        ("katz-N10-exhaustive.json", ["--N", 10]),
    ])
    def test_cli_reproduces_report_bytes(self, name, argv, tmp_path):
        out = tmp_path / name
        assert main(["katz", *map(str, argv), "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()


class TestDichotomyAgainstSets:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_exhaustive(self, N):
        points = itertools.combinations(range(1, 2 * N + 1), N)
        subsets = [ground_set(s, 2 * N) for s in range(1 << 2 * N)]
        report = dichotomy_check(build_katz(N), mode="exhaustive")
        assert tally(report) == dichotomy_by_sets(N, points, subsets)

    def test_doctored_two_point_system(self):
        system = system_of(2, [0b0011, 0b1100])
        report = dichotomy_check(system, mode="exhaustive")
        want = dichotomy_by_sets(2, [{1, 2}, {3, 4}], [ground_set(s, 4) for s in range(16)])
        assert tally(report) == want
        assert not report.passed

    def test_maximum_off_the_closed_form_alone(self):
        # one point {1, 2}: S = {3, 4} meets it 0 to 0 times, where the closed form says 0 to 2, so only the max is off
        report = dichotomy_check(system_of(2, [0b0011]), mode="exhaustive")
        assert (3, 4) in report.closed_form_mismatches
        assert tally(report) == dichotomy_by_sets(2, [{1, 2}], [ground_set(s, 4) for s in range(16)])

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_stray_high_bits_are_ignored(self, mode):
        system = stray_bit_system()
        points = [ground_set(m, 6) for m in build_katz(3).masks]
        subsets = [ground_set(s, 6) for s in range(64)] if mode == "exhaustive" else drawn_subsets(3, 300, 4)
        report = dichotomy_check(system, mode=mode, trials=300, seed=4)
        assert tally(report) == dichotomy_by_sets(3, points, subsets)
        assert report == dichotomy_check(build_katz(3), mode=mode, trials=300, seed=4)

    def test_sampled_masks_wider_than_32_bits(self):
        N, masks = 17, wide_masks()
        system = system_of(N, masks)
        assert katz._narrowed_masks(system).dtype == np.uint64
        report = dichotomy_check(system, mode="sampled", trials=400, seed=9)
        want = dichotomy_by_sets(N, [ground_set(m, 2 * N) for m in masks], drawn_subsets(N, 400, 9))
        assert tally(report) == want
        assert report.violations and report.closed_form_mismatches

    def test_first_32_flags_span_kernel_blocks(self):
        # build_katz(6) with one point doubled per high part, so 64 low multisets make blocks of 1820 subsets,
        # less 21 points S holding element 12 and their complements: those 42 subsets alone are confined and
        # off the closed form, and the first 32 in subset order lie in more than one block of the kernel
        N, full = 6, (1 << 12) - 1
        gone = [sum(1 << e for e in c) | 1 << 11 for c in itertools.combinations(range(11), 5)][::23]
        gone += [full ^ s for s in gone]
        masks = [m for m in [*build_katz(N).masks.tolist(), *((h << N) | (63 ^ h) for h in range(64))] if m not in gone]
        system = system_of(N, masks)
        report = dichotomy_check(system, mode="exhaustive")
        assert tally(report) == dichotomy_by_sets(N, [ground_set(m, 12) for m in masks],
                                                  [ground_set(s, 12) for s in range(1 << 12)])
        ends = np.cumsum([block.size for block, *_ in katz._count_extremes(katz._narrowed_masks(system), None, N)])
        for flagged in (report.violations, report.closed_form_mismatches):
            where = np.searchsorted(ends, [sum(1 << e - 1 for e in members) for members in flagged], side="right")
            assert len(flagged) == 32 and where[0] < where[-1]

    def test_katz_masks_narrow_to_32_bits(self):
        assert katz._narrowed_masks(build_katz(10)).dtype == np.uint32


class TestSplitKernelAgainstAllPoints:
    """The split-mask kernel's (lo, hi, |S|) per subset equal the all-points popcount's."""

    def check(self, system, draws=None):
        """Both kernels on the same subsets: every one, or ``draws``."""
        masks = katz._narrowed_masks(system)
        draws = None if draws is None else draws.astype(masks.dtype)
        want = count_extremes_all_points(masks.copy(), draws, system.N)
        subsets, *got = map(np.concatenate, zip(*katz._count_extremes(masks, draws, system.N)))
        assert np.array_equal(subsets, np.arange(1 << 2 * system.N) if draws is None else draws)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == np.uint8
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_katz_exhaustive(self, N):
        self.check(build_katz(N))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_katz_n10_sampled(self, seed):
        self.check(build_katz(10), sampled_draws(10, 1000, seed))

    def test_stray_bits_and_doctored_points(self):
        self.check(stray_bit_system())
        self.check(stray_bit_system(), sampled_draws(3, 300, 4))
        self.check(system_of(2, [0b0011, 0b1100]))

    def test_masks_wider_than_32_bits(self):
        self.check(system_of(17, wide_masks()), sampled_draws(17, 400, 9))
        # 2^17 draws: the table over every half value, transformed over 17 bits of uint64 masks
        self.check(system_of(17, wide_masks()[-12:]), sampled_draws(17, 1 << 17, 9))

    def test_halves_that_repeat(self):
        # at least 2^N draws: tables over every half value; fewer: over the distinct halves that np.unique finds
        self.check(build_katz(4), sampled_draws(4, 5000, 6))
        self.check(stray_bit_system(), sampled_draws(3, 2000, 7))
        pool = sampled_draws(10, 12, 8)
        self.check(build_katz(10), pool[np.random.default_rng(9).integers(0, 12, 600)])
        # 122 groups of points: the 3000 draws take three blocks of subsets
        pool = sampled_draws(17, 500, 10)
        self.check(system_of(17, wide_masks()), pool[np.random.default_rng(11).integers(0, 500, 3000)])

    @pytest.mark.parametrize("system", [pytest.param(system, id=name) for name, system in hand_built_systems()])
    def test_hand_built(self, system):
        self.check(system)
        self.check(system, sampled_draws(system.N, 200, 8))

    # one table serves both sides; at N = 3, 5 draws are fewer than 2^N, so they get columns for their halves only
    @pytest.mark.parametrize("masks", [
        # low sets {3, 4, 5} and {0}, high sets {1, 2} and {7}: no set on both sides
        [(h << 3) | low for h in (1, 2) for low in (3, 4, 5)] + [7 << 3],
        # {2, 5} is the low set of the first group and the high set of the second
        [(1 << 3) | 2, (1 << 3) | 5, (2 << 3) | 6, (5 << 3) | 6],
        # a duplicated point: the low set (2, 2, 5) is not the high set {2, 5}
        [(1 << 3) | 2, (1 << 3) | 2, (1 << 3) | 5, (2 << 3) | 6, (5 << 3) | 6],
    ], ids=["one-side-only", "both-sides", "duplicated"])
    def test_point_sets_shared_between_the_sides(self, masks):
        system = system_of(3, masks)
        self.check(system)
        for seed in range(4):
            self.check(system, sampled_draws(3, 5, seed))

    def test_few_draws_whose_halves_coincide(self):
        # 300 draws with both halves from one pool of 20: their 600 halves hold at most 20 values
        pool = np.random.default_rng(12).integers(0, 1 << 10, 20)
        rng = np.random.default_rng(13)
        draws = (pool[rng.integers(0, 20, 300)] << 10) | pool[rng.integers(0, 20, 300)]
        self.check(build_katz(10), draws.astype(np.uint64))


class TestKernelWork:
    """A full check builds its one table by the bit transform; fewer than 2^N draws popcount c·|D| in one table."""

    def spy(self, monkeypatch):
        """Per call of the table builders: the transform's (bits, sets), and the popcount builder's c·|D|."""
        transforms, popcounts = [], []
        bit_extremes, group_extremes = katz._bit_extremes, katz._group_extremes

        def transform(low_bits, sets):
            transforms.append((low_bits, len(sets)))
            return bit_extremes(low_bits, sets)

        def popcount(halves, sets):
            popcounts.append(halves.size * sum(s.size for s in sets))
            return group_extremes(halves, sets)

        monkeypatch.setattr(katz, "_bit_extremes", transform)
        monkeypatch.setattr(katz, "_group_extremes", popcount)
        return transforms, popcounts

    @pytest.mark.parametrize("N, trials", [*(pytest.param(N, None, id=f"N{N}-exhaustive") for N in range(1, 11)),
                                           pytest.param(10, 4000, id="N10-4000-draws")])
    def test_popcounts_of_a_full_check(self, N, trials, monkeypatch):
        # none: the one table is a transform over the N bits and the N + 1 distinct sets
        transforms, popcounts = self.spy(monkeypatch)
        mode = "exhaustive" if trials is None else "sampled"
        report = dichotomy_check(build_katz(N), mode=mode, trials=trials or 1, seed=1)
        assert report.passed and transforms == [(N, N + 1)] and popcounts == []

    @pytest.mark.parametrize("N, trials", [(1, 1), (3, 7), (6, 40), (10, 300), (10, 1023)])
    def test_popcounts_of_fewer_draws_than_half_values(self, N, trials, monkeypatch):
        # c columns, one per distinct half among the draws, times |D| = 2^N: the N + 1 sets hold every N-bit value once
        transforms, popcounts = self.spy(monkeypatch)
        report = dichotomy_check(build_katz(N), mode="sampled", trials=trials, seed=1)
        draws = sampled_draws(N, trials, 1)
        columns = np.unique(np.concatenate((draws & (1 << N) - 1, draws >> N))).size
        assert report.passed and transforms == [] and popcounts == [columns * 2 ** N]


@st.composite
def point_sets(draw):
    """N and up to six non-empty sets of N-bit values (often 0 or 2^N - 1, repeats allowed) in one mask dtype."""
    N = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from([0, (1 << N) - 1]), st.integers(0, (1 << N) - 1))
    dtype = draw(st.sampled_from([np.uint32, np.uint64]))
    return N, [np.array(s, dtype=dtype) for s in draw(st.lists(st.lists(value, min_size=1, max_size=6),
                                                              min_size=1, max_size=6))]


class TestBitTransform:
    """The min-plus transform over the bits equals the popcount table at every half value, bit for bit."""

    def check(self, N, sets):
        want = katz._group_extremes(np.arange(1 << N, dtype=sets[0].dtype), sets)
        got = katz._bit_extremes(N, sets)
        assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(case=point_sets())
    def test_matches_popcounts(self, case):
        self.check(*case)

    def test_widest_half_in_the_suite(self):
        # at N = 20 the min plane's absent entries climb from 21 to 41 and the max plane's fall to 1; int8 holds
        # them up to N = 63, past the 32 bits of the widest half a uint64 mask has, whose table does not fit memory
        N, top = 20, (1 << 20) - 1
        got = self.check(N, [np.array(s, dtype=np.uint64) for s in ([0], [top], [top, 0, 0, 5 << 15])])
        assert got[:, 0].max() == 0 and got[0, 1, top] == got[1, 1, top] == N
        assert got[0, 2, top] == 0 and got[1, 2, top] == N and got[1, 2, 5 << 15] == 2


class TestInputsAreNotMutated:
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("make", [lambda: build_katz(4), stray_bit_system])
    def test_masks_stay_the_same_read_only_array(self, make, mode):
        system = make()
        masks = system.masks
        before = masks.copy()
        dichotomy_check(system, mode=mode, trials=200)
        system.intersection_counts((1, 3, 5))
        assert system.masks is masks
        assert masks.dtype == np.uint64 and not masks.flags.writeable
        assert np.array_equal(masks, before)


def traced_peak(fn):
    # numpy.random loads lazily on the first default_rng call; loading it here keeps its ~1 MiB out of the peak
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_sampled_peak(self):
        # 2.48 MiB is the peak of a loop that makes a fresh uint64 masks & S per subset
        system = build_katz(10)
        assert traced_peak(lambda: dichotomy_check(system, mode="sampled", trials=64)) <= 2.48 * 2**20

    def test_exhaustive_n10_holds_no_subset_long_array(self):
        # the narrowed masks (0.7 MiB), the tables and one block's counts and flags peak at 1.6 MiB;
        # (lo, hi, |S|) for all 2^20 subsets at once would add 3 MiB
        system = build_katz(10)
        assert traced_peak(lambda: dichotomy_check(system, mode="exhaustive")) <= 2 * 2**20

    def test_a_failing_exhaustive_check_keeps_32_flags(self):
        # two disjoint points leave 9/16 of the 2^20 subsets confined and nearly all off the closed form, where an
        # int64 index of every flagged subset took 8 MiB; the masks of 32 of each are all the report keeps
        system = system_of(10, [0b0011, 0b1100])
        assert traced_peak(lambda: dichotomy_check(system, mode="exhaustive")) <= 2**20

    def test_exhaustive_does_not_hold_every_subset(self):
        # all 2^16 subsets at once, with their AND and popcount rows, take about 3.7 MB
        system = build_katz(8)
        assert traced_peak(lambda: dichotomy_check(system, mode="exhaustive")) <= 2**20
