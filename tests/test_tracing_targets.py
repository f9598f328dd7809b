"""The benchmark tracer resolves its traced functions by name at start-up;
a rename or deletion in ``specvar`` would break ``perfbench --trace 1``."""

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("module, fn", [
    (module, fn) for module, fns in tracing.TRACED.items() for fn in fns])
def test_traced_function_resolves(module, fn):
    assert callable(getattr(importlib.import_module(f"specvar.{module}"), fn))


def test_traced_hooks_are_spec_fields():
    from specvar.absym import SpectralFunctionSpec
    fields = {f.name for f in dataclasses.fields(SpectralFunctionSpec)}
    assert set(tracing.HOOKS) <= fields
