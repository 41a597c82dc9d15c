"""The benchmark tracer's patch targets all exist in the package.

``perfbench/spans.py`` traces a run by replacing the module attributes named
in ``PATCHES``. Tier-1 collects only ``tests/``, so a change that renames or
drops one of those imports would otherwise surface only when the benchmark
runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _patches():
    # read the tracer without writing a bytecode cache into perfbench/
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("spans").PATCHES
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


TARGETS = sorted(target for targets in _patches().values() for target in targets)


@pytest.mark.parametrize("target", TARGETS)
def test_patch_target_is_callable(target):
    module_name, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("target", TARGETS)
def test_patch_target_is_the_defining_modules_function(target):
    # a stub left behind in place of a removed function would still be callable
    module_name, attr = target.split(":")
    fn = getattr(importlib.import_module(module_name), attr)
    assert fn is getattr(sys.modules[fn.__module__], fn.__name__)
