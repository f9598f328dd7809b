"""The benchmark tracer resolves its traced functions by name at start-up;
a rename or deletion in ``specvar`` would break ``perfbench --trace 1``."""

import dataclasses
import importlib
import sys
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("name", ["l1", "0.5*l1"])
def test_tracer_installs_and_uninstalls(name):
    # l1 and certify-mix's 0.5 l1 must supply every traced hook: the
    # optional ones (subdiff_contains) too, or a counter silently reads 0
    from specvar.absym import l1_spec, scale_spec
    f = l1_spec() if name == "l1" else scale_spec(l1_spec(), 0.5)
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
        hooked = tracer.wrap_spec(f)
        assert all(callable(getattr(hooked, h).__wrapped__)
                   for h in tracing.HOOKS)
    finally:
        tracer.uninstall()
    assert all(getattr(ns, attr) is original
               for ns, attr, original, _ in patches)


@pytest.mark.parametrize("name", [
    "sigma_dir1", "sigma_dir2", "min_direction_construct",
    "F_parabolic_subderivative", "invariant_tangent_contains"])
def test_public_call_reaches_traced_direction_blocks(monkeypatch, name):
    # the tracer counts direction_blocks through the module attribute of
    # each caller (oimf's binding for the oimf functions): each public
    # call must look it up there once, or deriv-sweep's traced counters
    # read 0
    from specvar import oimf, sv_calculus
    from specvar.absym import l1_spec
    X, H = np.diag([2.0, 1.0, 1.0, 0.0]), np.ones((4, 4))
    module, args = {
        "sigma_dir1": (sv_calculus, (X, H)),
        "sigma_dir2": (sv_calculus, (X, H, np.eye(4))),
        "min_direction_construct": (sv_calculus, (X, H, np.zeros(4))),
        "F_parabolic_subderivative": (oimf, (l1_spec(), X, H, np.eye(4))),
        "invariant_tangent_contains": (oimf, (oimf.free_set(), X, H)),
    }[name]
    original, calls = module.direction_blocks, []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, "direction_blocks", counted)
    getattr(module, name)(*args)
    assert calls == [name]


def test_sigma_dir2_reaches_traced_sigma_dir2_from_blocks(monkeypatch):
    # the same one lookup for the traced sigma'' kernel
    from specvar import sv_calculus
    original, calls = sv_calculus.sigma_dir2_from_blocks, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(sv_calculus, "sigma_dir2_from_blocks", counted)
    sv_calculus.sigma_dir2(np.diag([2.0, 1.0, 1.0, 0.0]), np.ones((4, 4)),
                           np.eye(4))
    assert calls == [1]
