"""In-memory spans around the framesel functions each caller looks up.

Tracing lives entirely in the benchmark: ``Tracer.installed()`` replaces the
module attributes listed in ``PATCHES`` with recording wrappers and puts the
originals back on exit, so an untraced run executes the unmodified package.
A span is (name, start_ns, end_ns, parent); times come from
``time.monotonic_ns``, which is CLOCK_MONOTONIC on Linux and therefore
comparable between the benchmark and the CLI processes it starts.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> the "module:attribute" names through which callers reach the
# function. The package level is where the benchmark's own calls look; the
# submodule entries are where framesel's modules look each other up.
PATCHES = {
    "hermitian.eigh": ("framesel.selector:eigh", "framesel.frames:eigh"),
    "hermitian.resolvent_quadratic_form": ("framesel.selector:resolvent_quadratic_form",),
    "hermitian.outer_product_accumulate": ("framesel.selector:outer_product_accumulate",),
    "selector.selection_step": ("framesel.selector:selection_step",),
    "selector.select_subset": ("framesel:select_subset", "framesel.cli:select_subset"),
    "selector.verify_certificate": ("framesel:verify_certificate", "framesel.cli:verify_certificate"),
    "selector.complement_lower_bound": ("framesel:complement_lower_bound", "framesel.cli:complement_lower_bound"),
    "selector.save_certificate": ("framesel:save_certificate", "framesel.cli:save_certificate"),
    "selector.load_certificate": ("framesel:load_certificate", "framesel.cli:load_certificate"),
    "frames.validate_frame": (
        "framesel:validate_frame",
        "framesel.frames:validate_frame",
        "framesel.selector:validate_frame",
        "framesel.cli:validate_frame",
    ),
    "frames.harmonic_frame": ("framesel:harmonic_frame", "framesel.cli:harmonic_frame"),
    "frames.modulated_harmonic_frame": ("framesel:modulated_harmonic_frame", "framesel.cli:modulated_harmonic_frame"),
    "frames.save_frame": ("framesel:save_frame", "framesel.cli:save_frame"),
    "frames.load_frame": ("framesel:load_frame", "framesel.cli:load_frame"),
    "katz.build_katz": ("framesel:build_katz", "framesel.cli:build_katz"),
    "katz.dichotomy_check": ("framesel:dichotomy_check", "framesel.cli:dichotomy_check"),
}


def _count_scan(counts, args, result):
    # select_subset returns the certificate; its in-memory steps carry the
    # number of candidate rows each scan evaluated
    rows = sum(step.remaining_count for step in result.steps)
    counts["selector.scan_rows"] += rows
    counts["selector.scan_bytes_computed"] += rows * int(result.eigenvalues.shape[0]) * 16


def _count_katz(counts, args, result):
    counts["katz.subsets_checked"] += result.subsets_checked
    counts["katz.popcounts_computed"] += result.subsets_checked * args[0].num_points


def _file_bytes(counter_name, path_arg):
    def count(counts, args, result):
        counts[counter_name] += os.path.getsize(args[path_arg])
    return count


AFTER = {
    "selector.select_subset": _count_scan,
    "katz.dichotomy_check": _count_katz,
    "selector.save_certificate": _file_bytes("selector.certificate_json_bytes", 1),
    "selector.load_certificate": _file_bytes("selector.certificate_json_bytes", 0),
    "frames.save_frame": _file_bytes("frames.frame_json_bytes", 1),
    "frames.load_frame": _file_bytes("frames.frame_json_bytes", 0),
}


class Tracer:
    """Spans and operation counts for one traced round, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or None]
        self.counts: Counter = Counter()
        self.process_start_ns = 0  # CLI process launch to cli.main entry, summed
        self._stack: list[int] = []
        self.active = True

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.monotonic_ns(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every PATCHES attribute for a recording wrapper, then restore."""
        originals = []
        try:
            for name, targets in PATCHES.items():
                for target in targets:
                    module_name, attr = target.split(":")
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def adopt(self, spans: list, parent: int) -> None:
        """Attach spans recorded in another process under one of ours."""
        offset = len(self.spans)
        for name, start, end, child_parent in spans:
            self.spans.append([name, start, end, parent if child_parent is None else child_parent + offset])

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def summarize(spans: list) -> dict:
    """Per span name: calls, self time and each duration.

    Self time is a span's duration minus the durations of its direct
    children. Spans nest strictly (one thread per process), so children never
    overlap and their durations sum to the covered part of the parent.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "durations_ns": []})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[i]
        entry["durations_ns"].append(end - start)
    return dict(out)


def percentile(values: list, p: int) -> float:
    """The p-th percentile by ``statistics.quantiles`` (inclusive method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])
