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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .frames import _write_json

_BUILD_CAP = 200_000       # largest |X| = C(2N, N) that build_katz enumerates
_EXHAUSTIVE_MAX_N = 6      # auto mode walks all 2^(2N) subsets up to this N


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

    def point_members(self, point: int) -> tuple[int, ...]:
        """Decode point (0-based position) to its 1-based ground elements."""
        return _members(int(self.masks[point]), self.ground_size)

    def intersection_counts(self, indices) -> np.ndarray:
        """|A intersect S| for every point A, as exact integers."""
        s_mask = _index_mask(self, indices)
        return np.bitwise_count(self.masks & np.uint64(s_mask)).astype(np.int64)

    def function_sum_values(self, indices) -> list[Fraction]:
        """g_S over all points, in point order, as exact fractions."""
        return [Fraction(int(c), self.N) for c in self.intersection_counts(indices)]


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
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    size = math.comb(2 * N, N)
    if size > _BUILD_CAP:
        raise ValueError(
            f"C({2 * N}, {N}) = {size} points exceeds the build cap {_BUILD_CAP}; "
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

    Exhaustive mode walks all 2^(2N) subsets (auto mode picks it for N up
    to ``_EXHAUSTIVE_MAX_N``); sampled mode draws ``trials`` uniform random
    subsets from a seeded generator. Both routes compare the enumerated
    range against the closed form and record any subset that is confined
    strictly inside (0, 1).
    """
    if mode == "auto":
        mode = "exhaustive" if system.N <= _EXHAUSTIVE_MAX_N else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"mode must be 'auto', 'exhaustive', or 'sampled', got {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")

    g = system.ground_size
    if mode == "exhaustive":
        s_masks = range(1 << g)
    else:
        rng = np.random.default_rng(seed)
        s_masks = [int(x) for x in rng.integers(0, 1 << g, size=trials, dtype=np.uint64)]

    min_pinned = 0
    max_pinned = 0
    both = 0
    violations: list[tuple[int, ...]] = []
    mismatches: list[tuple[int, ...]] = []
    for s_mask in s_masks:
        counts = np.bitwise_count(system.masks & np.uint64(s_mask))
        lo = int(counts.min())
        hi = int(counts.max())
        size = int(s_mask).bit_count()
        lo_expect = max(0, size - system.N)
        hi_expect = min(size, system.N)
        if (lo, hi) != (lo_expect, hi_expect):
            mismatches.append(_members(s_mask, g))
        at_zero = lo == 0
        at_one = hi == system.N
        if at_zero:
            min_pinned += 1
        if at_one:
            max_pinned += 1
        if at_zero and at_one:
            both += 1
        if not at_zero and not at_one:
            violations.append(_members(s_mask, g))

    return DichotomyReport(
        N=system.N,
        mode=mode,
        subsets_checked=len(s_masks),
        min_pinned=min_pinned,
        max_pinned=max_pinned,
        both_pinned=both,
        violations=tuple(violations[:32]),
        closed_form_mismatches=tuple(mismatches[:32]),
    )


def save_dichotomy_report(report: DichotomyReport, path) -> None:
    _write_json(report.to_dict(), path)
