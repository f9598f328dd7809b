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



def test_tracer_installs_and_uninstalls():
    from specvar.absym import l1_spec
    tracer = tracing.Tracer()
    patches = tracer._patches
    patched = {(ns.__name__, attr) for ns, attr, _, _ in patches}
    assert all((f"specvar.{module}", fn) in patched
               for module, fns in tracing.TRACED.items() for fn in fns)
    tracer.install()
    try:
        assert all(getattr(ns, attr) is wrapped
                   and wrapped.__wrapped__ is original
                   for ns, attr, original, wrapped in patches)
        spec = tracer.wrap_spec(l1_spec())
        assert all(callable(getattr(spec, h).__wrapped__)
                   for h in tracing.HOOKS)
    finally:
        tracer.uninstall()
    assert all(getattr(ns, attr) is original
               for ns, attr, original, _ in patches)
