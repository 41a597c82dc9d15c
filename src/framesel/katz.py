"""Set-system counterexample to two-sided interval confinement.

The selection machinery pins partial sums of rank-one matrices into [0, a_n]
with a_n strictly below 1 once N is large. A natural strengthening would ask
for two-sided control: given m functions, each small in sup norm, whose sum
is identically 1, find a sub-collection whose sum lives inside (delta,
1 - delta) for some fixed delta > 0. The family built here kills that hope.

Take X = all N-element subsets of {1, ..., 2N} and, for each ground element
i, let f_i(A) = 1/N if i is in A and 0 otherwise. Then sum f_i = 1 on X and
||f_i||_inf = 1/N is as small as desired. Yet for any index set S the sum
g_S(A) = |A intersect S| / N has exact range

    min g_S = max(0, |S| - N) / N,   max g_S = min(|S|, N) / N,

so |S| <= N forces the minimum to be 0 and |S| >= N forces the maximum to
be 1. Every sub-collection pins to an endpoint; none is confined.

Everything here is exact: points are bitmasks, values are integer counts
divided by N, and reported ranges are fractions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .frames import _write_json

_BUILD_CAP = 200_000       # largest |X| = C(2N, N) that build_katz enumerates
_EXHAUSTIVE_MAX_N = 10     # auto mode walks all 2^(2N) subsets up to this N, the largest build_katz builds
_BLOCK_BYTES = 1 << 18     # _count_extremes' AND buffer per block of half values, and gather per block of subsets


@dataclass(frozen=True, eq=False)
class KatzSystem:
    """All N-subsets of a 2N-element ground set, with indicator functions.

    Points are stored as bitmasks over the ground set (bit i - 1 for element
    i), in lexicographic order of the underlying subsets. Function i takes
    the value 1/N on points containing i and 0 elsewhere; their sum is the
    constant 1.
    """

    N: int
    masks: np.ndarray  # (C(2N, N),) uint64, read-only

    @property
    def ground_size(self) -> int:
        return 2 * self.N

    @property
    def num_points(self) -> int:
        return int(self.masks.shape[0])

    def intersection_counts(self, indices) -> np.ndarray:
        """|A intersect S| for every point A, as exact integers."""
        s_mask = _index_mask(self, indices)
        masks = _narrowed_masks(self)
        np.bitwise_and(masks, s_mask, out=masks)
        return np.bitwise_count(masks).astype(np.int64)


def _narrowed_masks(system: KatzSystem) -> np.ndarray:
    """A private, writable copy of the masks in the narrowest word that holds 2N bits.

    uint32 when 2N <= 32, uint64 otherwise. Bits at or above 2N are cleared
    in place, so a hand-built system's stray high bits never count and no
    uint64 temporary is made.
    """
    g = system.ground_size
    masks = system.masks.astype(np.uint32 if g <= 32 else np.uint64)
    np.bitwise_and(masks, (1 << min(g, 64)) - 1, out=masks)
    return masks


def _members(mask: int, size: int) -> tuple[int, ...]:
    """1-based positions of the set bits among the lowest ``size`` bits of ``mask``."""
    return tuple(i + 1 for i in range(size) if mask >> i & 1)


def _index_mask(system: KatzSystem, indices) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 1 <= i <= system.ground_size:
            raise ValueError(f"index {i} outside 1..{system.ground_size}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"duplicate index {i}")
        mask |= bit
    return mask


def build_katz(N: int) -> KatzSystem:
    """Construct the system for ground set {1, ..., 2N}.

    Refuses when C(2N, N) exceeds ``_BUILD_CAP`` points; the
    closed-form range needs no enumeration and keeps working at any size.
    C(2N, N) >= 2^N, so an N at or past the cap's bit length is refused
    without computing the binomial, which has millions of digits at N = 10^6.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    size = math.comb(2 * N, N) if N < _BUILD_CAP.bit_length() else None
    if size is None or size > _BUILD_CAP:
        shown = "" if size is None else f" = {size}"
        raise ValueError(
            f"C({2 * N}, {N}){shown} points exceeds the build cap {_BUILD_CAP}; "
            f"use closed_form_range for large N"
        )
    # In lexicographic order the r-subsets of {s, ..., 2N - 1} are those holding
    # s, as s joined to the (r - 1)-subsets of {s + 1, ...}, and then those without
    # it. So each s's list is a tail of the list for s - 1, and one array per r,
    # built from the array for r - 1, holds the lists of every s that r = N needs.
    masks = np.zeros(1, dtype=np.uint64)  # r = 0: the empty set
    for r in range(1, N + 1):
        layer = np.empty(math.comb(N + r, r), dtype=np.uint64)  # r-subsets of {N - r, ..., 2N - 1}
        pos = 0
        for first in range(N - r, 2 * N - r + 1):
            tail = masks[masks.size - math.comb(2 * N - 1 - first, r - 1):]
            np.bitwise_or(tail, np.uint64(1 << first), out=layer[pos:pos + tail.size])
            pos += tail.size
        masks = layer
    masks.setflags(write=False)
    return KatzSystem(N=N, masks=masks)


def subset_sum_range(system: KatzSystem, indices) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of g_S over all points, by enumeration."""
    if system.num_points == 0:
        raise ValueError("the system has no points: g_S has no min or max on an empty point set")
    counts = system.intersection_counts(indices)
    return Fraction(int(counts.min()), system.N), Fraction(int(counts.max()), system.N)


def closed_form_range(N: int, subset_size: int) -> tuple[Fraction, Fraction]:
    """The proven range endpoints, valid for any N without enumeration."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if not 0 <= subset_size <= 2 * N:
        raise ValueError(f"subset size must lie in 0..{2 * N}, got {subset_size}")
    return Fraction(max(0, subset_size - N), N), Fraction(min(subset_size, N), N)


@dataclass(frozen=True)
class DichotomyReport:
    """Outcome of checking endpoint-pinning over subsets of the ground set."""

    N: int
    mode: str                 # "exhaustive" or "sampled"
    subsets_checked: int
    min_pinned: int           # subsets with minimum exactly 0
    max_pinned: int           # subsets with maximum exactly 1
    both_pinned: int          # subsets pinned at both ends (exactly those with |S| = N)
    violations: tuple[tuple[int, ...], ...]  # confined subsets; empty when the claim holds
    closed_form_mismatches: tuple[tuple[int, ...], ...]  # enumerated range != formula

    @property
    def passed(self) -> bool:
        return not self.violations and not self.closed_form_mismatches

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "mode": self.mode,
            "subsets_checked": self.subsets_checked,
            "min_pinned": self.min_pinned,
            "max_pinned": self.max_pinned,
            "both_pinned": self.both_pinned,
            "violations": [list(v) for v in self.violations],
            "closed_form_mismatches": [list(v) for v in self.closed_form_mismatches],
            "passed": self.passed,
            "note": (
                "every subset of size <= N attains minimum 0 and every subset of size >= N "
                "attains maximum 1, so no sub-collection is confined to an interval "
                "(delta, 1 - delta) with delta > 0"
            ),
        }


def dichotomy_check(
    system: KatzSystem,
    mode: str = "auto",
    trials: int = 100_000,
    seed: int = 0,
) -> DichotomyReport:
    """Verify endpoint pinning for subsets S of the ground set.

    Exhaustive mode walks all 2^(2N) subsets in order (auto mode picks it
    for N up to ``_EXHAUSTIVE_MAX_N``); sampled mode draws ``trials`` uniform
    random subsets from a seeded generator and hands them over as an array.
    Either way ``_count_extremes`` meets every subset with every point
    through the low N and the high N bits of its mask, tabling each
    distinct set of low or high parts once per half value of S, not once per
    subset: at least 2^N subsets of ``build_katz(N)`` take N passes over its N + 1
    sets at every half value. The report reads the kernel a block of subsets at
    a time, tallies each block against the closed form, and decodes the first 32
    subsets confined strictly inside (0, 1), and the first 32 off the closed
    form, in subset order.
    """
    if mode == "auto":
        mode = "exhaustive" if system.N <= _EXHAUSTIVE_MAX_N else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'auto', 'exhaustive', or 'sampled', got {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if system.num_points == 0:
        raise ValueError("the system has no points: g_S has no min or max on an empty point set")

    masks = _narrowed_masks(system)
    draws = None  # every subset, in order
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        try:
            draws = rng.integers(0, 1 << 2 * system.N, size=trials, dtype=np.uint64).astype(masks.dtype, copy=False)
        except MemoryError as exc:  # a count that cannot be allocated is refused like one below 1
            raise ValueError(f"{trials} trials do not fit in memory: {exc}") from exc
    tally = np.zeros(4, dtype=np.int64)  # subsets checked, with minimum 0, with maximum 1, with both
    confined, off_form = [], []  # masks of the first 32 of each, in subset order
    for block, lo, hi, size in _count_extremes(masks, draws, system.N):
        at_zero, at_one = lo == 0, hi == system.N
        expect = np.minimum(size, system.N)  # the closed-form max; the min is |S| - max
        tally += [block.size, *map(np.count_nonzero, (at_zero, at_one, at_zero & at_one))]
        confined += block[~(at_zero | at_one)][:32 - len(confined)].tolist()
        off_form += block[(lo != size - expect) | (hi != expect)][:32 - len(off_form)].tolist()
    checked, min_pinned, max_pinned, both_pinned = tally.tolist()
    return DichotomyReport(
        N=system.N,
        mode=mode,
        subsets_checked=checked,
        min_pinned=min_pinned,
        max_pinned=max_pinned,
        both_pinned=both_pinned,
        violations=tuple(_members(s, system.ground_size) for s in confined),
        closed_form_mismatches=tuple(_members(s, system.ground_size) for s in off_form),
    )


def _count_extremes(masks: np.ndarray, draws: np.ndarray | None, low_bits: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per block of subsets: their masks, and fresh uint8 arrays of min and max |A intersect S| and of |S|.

    The subsets are ``draws``, masks of the lowest 2 * ``low_bits`` bits in
    ``masks.dtype``, or every such mask in order when ``draws`` is None, made
    a block at a time; ``masks`` is sorted in place. Points with equal bits
    from ``low_bits`` up form a group, and groups with equal low bits share a k,
    so the points are the products H_k x L_k and min |A intersect S| = min over
    k of (min over H_k of popcount(A_hi & S) + min over L_k of popcount(A_lo & S));
    max likewise. Both terms read one table of the distinct sets among the L_k
    and H_k (in ``build_katz``'s systems the same N + 1 sets, paired in reverse),
    with a column per half of S: for every half value (``_bit_extremes``) if the subsets
    are at least as many, else for the distinct low and high halves (``_group_extremes``).
    """
    count = 1 << 2 * low_bits if draws is None else draws.size
    masks.sort()
    low_mask = (1 << low_bits) - 1
    bounds = (np.flatnonzero((masks[1:] ^ masks[:-1]) > low_mask) + 1).tolist()
    tops = (masks[[0, *bounds]] >> low_bits).tolist()
    np.bitwise_and(masks, low_mask, out=masks)
    groups: dict[bytes, list] = {}
    for top, start, stop in zip(tops, [0, *bounds], [*bounds, masks.size]):
        groups.setdefault(masks[start:stop].tobytes(), []).append(top)
    highs = [np.array(t, masks.dtype).tobytes() for t in groups.values()]
    # each distinct point set of either side, to its row of the one table; the low sets, distinct keys, come first
    sets = {key: row for row, key in enumerate(dict.fromkeys([*groups, *highs]))}
    point_sets = [np.frombuffer(key, masks.dtype) for key in sets]
    if count >= 1 << low_bits:  # a column for every half value, at the value itself
        at, extremes = None, _bit_extremes(low_bits, point_sets)
    else:
        halves, columns = np.unique(np.concatenate((draws & low_mask, draws >> low_bits)), return_inverse=True)
        at, extremes = (columns[:count], columns[count:]), _group_extremes(halves, point_sets)
    tables = extremes[:, :len(groups)], extremes[:, [sets[key] for key in highs]]
    rows = max(1, _BLOCK_BYTES // (2 * len(groups) + 16))  # per subset: two gathered columns, two intp indices
    pair = np.empty((2, len(groups), rows), dtype=np.uint8)
    for start in range(0, count, rows):
        end = min(start + rows, count)
        block = np.arange(start, end, dtype=masks.dtype) if draws is None else draws[start:end]
        n = block.size
        index = (block & low_mask, block >> low_bits) if at is None else [inverse[start:end] for inverse in at]
        ends = []
        for e, reduce in enumerate((np.minimum, np.maximum)):
            a, b = (np.take(table[e], i, axis=1, out=side[:, :n]) for side, table, i in zip(pair, tables, index))
            ends.append(reduce.reduce(np.add(a, b, out=a), axis=0))
        yield block, *ends, np.bitwise_count(block)


def _group_extremes(halves: np.ndarray, sets: list[np.ndarray]) -> np.ndarray:
    """(2, len(sets), halves.size) uint8: per set and half, min and max over the set of popcount(value & half)."""
    values = np.concatenate(sets)
    starts = np.cumsum([0] + [s.size for s in sets[:-1]])
    rows = max(1, min(halves.size, _BLOCK_BYTES // values.nbytes))
    buf = np.empty((rows, values.size), dtype=values.dtype)
    cnt = np.empty((rows, values.size), dtype=np.uint8)
    table = np.empty((2, len(sets), halves.size), dtype=np.uint8)
    for start in range(0, halves.size, rows):
        block = halves[start:start + rows]
        n = block.size
        np.bitwise_and(values, block[:, None], out=buf[:n])
        np.bitwise_count(buf[:n], out=cnt[:n])
        for reduce, out in zip((np.minimum, np.maximum), table):
            reduce.reduceat(cnt[:n], starts, axis=1, out=out[:, start:start + n].T)
    return table


def _bit_extremes(low_bits: int, sets: list[np.ndarray]) -> np.ndarray:
    """``_group_extremes`` at every half value 0 .. 2^low_bits - 1, by a min-plus transform over the bits.

    popcount(value & half) sums over bits, so each set's indicator (0 at its values, low_bits + 1 where
    absent) becomes its table in one pass per bit, as in Yates' method and the fast zeta transform:
    new(h_b = 0) = min(x_b = 0, x_b = 1) and new(h_b = 1) = min(x_b = 0, (x_b = 1) + step), with step 1
    on the min plane and -1 on the max plane, held negated. A pass pairs the two halves of the index range
    and writes each pair interleaved (Stockham's order), so after low_bits passes every bit is back in place.
    int8 holds it: absent entries stay in 1 .. 2 * low_bits + 1, above every real one, for low_bits < 64.
    """
    table = np.full((2, len(sets), 1 << low_bits), low_bits + 1, dtype=np.int8)
    table[:, np.repeat(np.arange(len(sets)), [s.size for s in sets]), np.concatenate(sets)] = 0
    spare = np.empty_like(table)
    step = np.array([1, -1], dtype=np.int8)[:, None, None]
    for _ in range(low_bits):
        x0, x1 = table.reshape(2, len(sets), 2, -1).transpose(2, 0, 1, 3)
        new0, new1 = spare.reshape(2, len(sets), -1, 2).transpose(3, 0, 1, 2)
        np.minimum(x0, x1, out=new0)
        np.minimum(x0, np.add(x1, step, out=new1), out=new1)
        table, spare = spare, table
    np.negative(table[1], out=table[1])
    return table.view(np.uint8)


def save_dichotomy_report(report: DichotomyReport, path) -> None:
    _write_json(report.to_dict(), path)
