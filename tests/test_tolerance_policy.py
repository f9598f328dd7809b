"""One tolerance policy: the two thresholds that draw the multiplicity
partition travel as one validated ``Tolerances`` pair, every other
threshold is named once in ``matrix_core``, and every entry point sees
the partition that ``partition_values`` draws."""

import ast
import dataclasses
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import specvar
from specvar.errors import ShapeError
from specvar.matrix_core import Tolerances, partition_values
from specvar.oimf import nuclear_psi_eval

SRC = Path(specvar.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _specvar_callables():
    """Every function, class and method defined in a specvar module, less
    the error classes (their signature is BaseException's)."""
    for name in MODULES:
        mod = importlib.import_module(
            "specvar" if name == "__init__" else f"specvar.{name}")
        for obj in vars(mod).values():
            if not (callable(obj) and getattr(obj, "__module__", "")
                    .startswith("specvar")) or (
                        inspect.isclass(obj)
                        and issubclass(obj, BaseException)):
                continue
            yield obj
            if inspect.isclass(obj):
                yield from (m for m in vars(obj).values()
                            if inspect.isfunction(m))


def test_no_cluster_tol_or_rank_tol_parameter():
    offenders = []
    for obj in _specvar_callables():
        params = inspect.signature(obj).parameters
        if {"cluster_tol", "rank_tol"} & set(params):
            offenders.append(obj.__qualname__)
    assert offenders == []


def _tol_named(names):
    return [n for n in names if n == "tol" or n.endswith("_tol")]


def test_no_other_settable_threshold():
    # every threshold a caller can set travels in Tolerances; the spec
    # hooks keep their tol, through which SpectralPoint passes CONE_TOL
    from specvar.certify import SamplingConfig
    from specvar.oracles import OracleConfig
    offenders = {}
    for name in dir(specvar):
        obj = getattr(specvar, name)
        if inspect.isfunction(obj):
            offenders[name] = _tol_named(inspect.signature(obj).parameters)
    for name, obj in vars(specvar.SpectralPoint).items():
        if inspect.isfunction(obj):
            offenders[f"SpectralPoint.{name}"] = _tol_named(
                inspect.signature(obj).parameters)
    for cls in (SamplingConfig, OracleConfig):
        offenders[cls.__name__] = _tol_named(
            f.name for f in dataclasses.fields(cls))
    assert {k: v for k, v in offenders.items() if v} == {}


def test_stale_positional_cone_tol_is_refused():
    # a positional fifth argument would be read as diagnostics and turn
    # the membership bool into a truthy (member, info) tuple
    with pytest.raises(TypeError):
        specvar.F_critical_cone_contains(specvar.l1_spec(), np.eye(2),
                                         np.eye(2), np.eye(2), 1e-3)


def test_gradient_check_records_fd_tol():
    from specvar.matrix_core import FD_TOL
    psi = specvar.HalfSquaredDistance(np.eye(2))
    rep = specvar.fd_gradient_check(psi, np.diag([2.0, 1.0]))
    assert rep.tol == FD_TOL == 1e-5 and rep.ok


def test_tolerances_is_the_settable_pair():
    assert [f.name for f in dataclasses.fields(Tolerances)] == [
        "cluster", "rank"]
    assert Tolerances() == Tolerances(1e-8, 1e-12)


@pytest.mark.parametrize("field", ["cluster", "rank"])
@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_tolerances_rejects(field, value):
    with pytest.raises(ShapeError):
        Tolerances(**{field: value})


def test_thresholds_assigned_in_matrix_core_only():
    name = re.compile(r"^([A-Z0-9_]*_TOL|GAP_WARN)$")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "matrix_core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(
                           node, (ast.AnnAssign, ast.AugAssign)) else [])
            offenders += [f"{path.name}:{t.id}" for t in targets
                          if isinstance(t, ast.Name) and name.match(t.id)]
    assert offenders == []


def test_psi_eval_bottom_group_is_the_last_block():
    # a non-transitive chain: 1 ~ 1 - 0.6e-8 and 1 - 0.6e-8 ~ 1 - 1.2e-8,
    # but the run starting at 1 stops before 1 - 1.2e-8
    s = np.array([1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8])
    assert partition_values(s).alpha_blocks == [[0, 1], [2]]
    assert nuclear_psi_eval(np.diag(s)) == pytest.approx(s[2], rel=1e-15)
