"""Run the benchmark over every workload and several seeds; print one table.

    python3 perfbench/suite.py [--seeds 1,2,3] [--trace]

Each (workload, seed) is one ``run.py`` process, run one after another for
the manifest's ``run_seconds``.
Without ``--trace`` the table gives, for every end-to-end metric of every
workload, the median over the seeds and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json. With
``--trace`` it gives the per-layer metrics instead. The last line says
whether every run was correct and the overall fail_ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds (default 1..5)")
    parser.add_argument("--trace", action="store_true", help="report the per-layer metrics")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    metrics = manifest["per_layer"] if args.trace else manifest["end_to_end"]

    attempted = failed = 0
    all_correct = True
    seconds = manifest["run_seconds"]
    for workload in (w["name"] for w in manifest["workloads"]):
        results = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        all_correct &= all(r["correct"] for r in results)
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        print(f"{workload}  (seeds {args.seeds}, {seconds} s each)")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            line = f"  {metric['name']:44s} median {statistics.median(values):<22.6g} {metric['unit']:6s}"
            if "bound" in metric:
                s = spread(values)
                line += f" spread {s:.4f}  bound {metric['bound']}  {'ok' if s < metric['bound'] / 3 else 'WIDE'}"
            print(line)
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
        sys.stdout.flush()
    print(f"correct {all_correct}; fail_ratio {failed / attempted if attempted else 0.0!r} "
          f"({failed} failed of {attempted} checked outcomes)")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
