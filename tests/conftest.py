import sys
from pathlib import Path

import pytest

from framesel import harmonic_frame, select_subset

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def fresh_runs_8_25():
    """An independent select_subset run for every n on the k=8, N=25 harmonic frame."""
    frame = harmonic_frame(8, 25)
    return frame, {n: select_subset(frame, n) for n in range(1, frame.m)}
