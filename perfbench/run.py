"""framesel benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, never from an installed copy. With ``--trace 0`` the run
sets up three times, warms up, then repeats the workload for S seconds,
timing ``setup_reps`` more set-ups after each iteration, and reports the
median of each end-to-end timing. Every timing is corrected for the
machine's speed at the time by ``refclock.Clock``. With ``--trace 1`` it
alternates untraced and traced rounds (set-up plus one iteration) for S
seconds and reports the per-layer metrics instead, from plain wall times;
the spans of the first traced round go to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread: every eigh is at most 64 x 64 and the scan GEMMs are small,
# and a single thread keeps timings steady on a shared machine. Set before
# numpy is imported; CLI subprocesses inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
INITIAL_SETUPS = 3

from metrics import END_TO_END, PER_LAYER, ROLES, SHOULD_MOVE, UNITS, layer_metrics, round_counts  # noqa: E402
from refclock import REFERENCE_S, Clock  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="framesel benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_framesel():
    """Import framesel from this checkout's src, or explain why not."""
    package = SRC / "framesel"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no framesel package at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import framesel

    if Path(framesel.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported framesel from {framesel.__file__}, not {package}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": nproc,
        "cpu": cpu,
    }


def guarded(gate, fn, *args):
    """Run one workload step; an exception counts as a failed operation."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the run goes on and reports the failure
        gate.check(False, traceback.format_exc())
        return None


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(workload, seconds: float, gate, clock):
    def timed_setup():
        return clock.time(workload.setup)[1]

    setup = [timed_setup() for _ in range(INITIAL_SETUPS)]
    workload.warm_up()
    primary, secondary = [], []
    deadline = time.perf_counter() + seconds
    while True:
        result = guarded(gate, workload.iterate, clock)
        if result is not None:
            primary += result[0]
            secondary += result[1]
        setup += [timed_setup() for _ in range(workload.setup_reps)]
        if time.perf_counter() >= deadline:
            break
    samples = {"primary_s": primary, "secondary_s": secondary, "setup_s": setup}
    values = {name: median(samples[name]) for name in samples}
    values["peak_rss_mb"] = peak_rss_mb()
    return values, {name: len(v) for name, v in samples.items()}


def one_round(workload, tracer=None):
    workload.setup()
    workload.iterate(Clock(corrected=False), tracer)


def run_traced(workload, seconds: float, gate):
    workload.setup()
    workload.warm_up()
    rounds, untraced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(timed(lambda: guarded(gate, one_round, workload)))
        tracer = Tracer()
        with tracer.installed():
            wall = timed(lambda: guarded(gate, one_round, workload, tracer))
        rounds.append((tracer, wall))
        if time.perf_counter() >= deadline:
            break
    signatures = []
    for tracer, wall in rounds:
        summary = summarize(tracer.spans)
        signatures.append(round_counts(summary, tracer.counts))
        self_sum = sum(entry["self_ns"] for entry in summary.values()) / 1e9
        gate.check(self_sum <= wall, f"span self times {self_sum} s exceed the traced wall time {wall} s")
    gate.check(all(s == signatures[0] for s in signatures), "operation counts differ between traced rounds")
    return layer_metrics(rounds, untraced), rounds[0][0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    import_framesel()
    from workloads import WORKLOADS, Gate

    env = environment()
    gate = Gate()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        # the program's seeds must be non-negative; any benchmark seed maps to one
        workload = WORKLOADS[args.workload](args.seed % 2**63, workdir, gate)
        print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        print(f"inputs: {workload.describe()}")
        print("env: " + " | ".join(f"{key} {value}" for key, value in env.items()))
        if args.trace:
            values, tracer = run_traced(workload, args.seconds, gate)
            names = PER_LAYER
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "metrics": values, "first_round": tracer.to_json()}, fh)
            for name in names:
                print(f"{name:44s} {values[name]!r} {UNITS[name]}  ({SHOULD_MOVE[name]})")
            print(f"spans of the first traced round: {trace_path}")
        else:
            clock = Clock()
            values, counts = run_untraced(workload, args.seconds, gate, clock)
            names = END_TO_END
            print(f"times in reference seconds: the reference ran a median {clock.slowdown():.3f} times "
                  f"its nominal {REFERENCE_S} s, so raw wall times were that much longer")
            roles = dict(zip(("primary_s", "secondary_s"), ROLES[args.workload]))
            for name in names:
                label = f"{name} ({roles[name]})" if name in roles else name
                samples = f"median of {counts[name]}" if name in counts else "peak"
                print(f"{label:32s} {values[name]!r} {UNITS[name]}  {samples}")
        ratio = gate.failed / gate.attempted if gate.attempted else 0.0
        print(f"fail_ratio {ratio!r} ({gate.failed} failed of {gate.attempted} checked outcomes)")
        for label, digests in sorted(workload.digests.items()):
            print(f"digest {label} {' '.join(sorted(digests))}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
