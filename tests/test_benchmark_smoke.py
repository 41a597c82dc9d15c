"""A short untraced run of every benchmark workload, so that a change which breaks their gates fails here.

Each runs ``perfbench/run.py`` as a subprocess for 0.1 s, with the interpreter
told to write no bytecode, so the run leaves no ``__pycache__`` beside the
benchmark's sources. Its last line must report a correct run, no failed
outcome and every end-to-end metric that ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in MANIFEST["end_to_end"]]


@pytest.mark.parametrize("workload", [workload["name"] for workload in MANIFEST["workloads"]])
def test_a_short_run_passes_its_gates(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(END_TO_END)
