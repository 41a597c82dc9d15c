"""The same subset under other OpenBLAS kernels.

``OPENBLAS_CORETYPE``, read when the library loads, makes a DYNAMIC_ARCH build
of OpenBLAS run another CPU family's kernels. That gives a selection another
build's roundoff without a second install. Each run must select, step for step,
the indices of the run in this process, and its certificate must verify here.
``OPENBLAS_VERBOSE=2`` makes the library name the core it took on stderr, so a
build that ignores the variable cannot pass unnoticed. Certificate bytes are
not compared: they carry the last bits of the kernel that computed them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framesel
from framesel import (
    harmonic_frame,
    load_certificate,
    modulated_harmonic_frame,
    save_frame,
    select_subset,
    verify_certificate,
)

# the family asked for, and the name OpenBLAS prints for it
KERNELS = {"Haswell": "Haswell", "SandyBridge": "Sandybridge", "Nehalem": "Nehalem", "Prescott": "Katmai"}
OPENBLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "")

pytestmark = pytest.mark.skipif(
    "DYNAMIC_ARCH" not in OPENBLAS,
    reason=f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS build, so OPENBLAS_CORETYPE selects nothing ({OPENBLAS!r})",
)


@pytest.mark.parametrize("k, N, seed, n", [
    (8, 25, None, 199),  # harmonic
    (8, 400, 1, 1600),  # the smallest band_gap known, 9.1e-12
], ids=["harmonic-8-25", "modulated-8-400-seed-1"])
def test_other_kernels_select_the_same_subset(k, N, seed, n, tmp_path):
    frame = harmonic_frame(k, N) if seed is None else modulated_harmonic_frame(k, N, seed=seed)
    save_frame(frame, tmp_path / "frame.json")
    want = [step.index for step in select_subset(frame, n).steps]
    src = str(Path(framesel.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for core, name in KERNELS.items():
        cert_path = tmp_path / f"{core}.json"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=core, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "framesel.cli", "select", "--frame", "frame.json", "--n", str(n), "--out",
             cert_path.name], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"Core: {name}" in proc.stderr.splitlines(), (core, proc.stderr)
        cert = load_certificate(cert_path)
        assert [step.index for step in cert.steps] == want, core
        assert verify_certificate(frame, cert).passed, core
