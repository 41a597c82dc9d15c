"""Timings corrected for the speed the shared machine runs at just then.

On a machine whose cores are shared with other tenants, the same code runs
up to a third slower for tens of seconds at a time, CPU time included, so the
median wall time of a half-minute run moves by more than any bound worth setting.
``Clock.time`` therefore runs a fixed reference computation just before and
just after each timed operation and scales the operation's wall time by
``REFERENCE_S`` over the reference's mean duration there. The result is the
operation's wall time in seconds of a machine on which the reference takes
``REFERENCE_S``, close to the fastest it ran on the 2-vCPU Xeon guest the
bounds were set on.
The reference is the benchmark's own code, so no change to framesel moves
it; a framesel change that halves an operation halves its reported time.

The reference mixes the three kinds of work the workloads do, in about equal
parts: interpreter loops over ints and dicts, tuple rebuilding with small
complex numpy products, and single-threaded BLAS matrix products. The
machine's slow spells slow each kind by a different amount, and the mix
tracks every workload's operations more closely than any one part does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.03

_GEMM = np.random.default_rng(0).standard_normal((200, 200))
_SMALL = np.random.default_rng(1).standard_normal((8, 8)) + 1j


def reference() -> float:
    """Run the reference computation once; return its wall time in seconds."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(90000):
        total += i * i
        table[i & 1023] = total
    items = tuple(range(2000))
    for i in range(160):
        items = tuple(x for x in items if x != i)
        total += int(np.abs(_SMALL @ _SMALL).sum())
    for _ in range(36):
        _GEMM @ _GEMM
    return time.perf_counter() - t0


class Clock:
    """Times operations in reference seconds (see the module docstring).

    ``speeds`` collects, for every timed operation, how much slower than
    ``REFERENCE_S`` the reference ran around it; the raw wall time of an
    operation is its reported time multiplied by that factor. An uncorrected
    clock (traced rounds, whose times are not reported) runs no reference and
    returns plain wall times.
    """

    def __init__(self, corrected: bool = True):
        self.corrected = corrected
        self.speeds: list[float] = []

    def time(self, fn):
        """Run ``fn()``; return its result and its corrected wall time."""
        if not self.corrected:
            t0 = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - t0
        before = reference()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        factor = (before + reference()) / 2 / REFERENCE_S
        self.speeds.append(factor)
        return result, elapsed / factor

    def slowdown(self) -> float:
        """Median factor by which the reference ran slower than REFERENCE_S."""
        return statistics.median(self.speeds) if self.speeds else 1.0
