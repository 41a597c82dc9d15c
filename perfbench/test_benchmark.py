"""Tests of the benchmark itself: its result line, its counts and its clock.

    python3 -m pytest perfbench

The count test runs every workload twice with the same seed and a short
--seconds, so it takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
from metrics import END_TO_END, MANIFEST, PER_LAYER, UNITS  # noqa: E402

WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
# operation counts of one round; the number of rounds, and the step samples
# gathered over all of them, depend on how many rounds fit in --seconds
COUNT_METRICS = [
    name for name in PER_LAYER
    if UNITS[name] in ("count", "bytes") and name not in ("trace.rounds", "selector.selection_step.samples")
]


def run(workload, seed, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_the_same_seed(workload):
    first, second = (result_of(run(workload, seed=7, trace=1)) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.self_sum_s"] <= values["trace.wall_s"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(run("katz-dichotomy", seed=3, trace=0))
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: UNITS[n] for n in END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("select-tall", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_clock_divides_wall_time_by_the_reference_slowdown(monkeypatch):
    monkeypatch.setattr(refclock, "reference", lambda: 2 * refclock.REFERENCE_S)
    clock = refclock.Clock()
    result, seconds = clock.time(lambda: time.sleep(0.2) or "done")
    assert result == "done"
    assert 0.1 <= seconds < 0.2
    assert clock.slowdown() == 2.0
