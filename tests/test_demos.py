"""Every demo runs to completion as a script, and every README example as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from framesel.cli import main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def readme_block(heading, language=""):
    """The first code block after ``heading`` in README.md, fenced as ``language``."""
    text = (ROOT / "README.md").read_text()
    text = text[text.index(f"\n{heading}\n"):]
    start = text.index(f"\n```{language}\n") + len(language) + 5
    return text[start:text.index("\n```", start)]


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(readme_block("## Library quick start", "python"), {})


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch):
    # in order, in one directory: select and verify read the frame that gen writes
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line) for line in readme_block("## Command line").splitlines() if line.startswith("framesel ")]
    assert len(lines) == 7
    for argv in lines:
        assert main(argv[1:]) == 0, argv
