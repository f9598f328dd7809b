"""The input contract: every argument is checked by one of the three rules
in ``matrix_core`` (a finite array of a required shape, a count, a finite
real > 0), so a hostile value ends in a typed ``InputError`` before any
arithmetic runs: no untyped numpy error, no silent truncation, no NaN
result and no ``RuntimeWarning``.  On the command line it exits 1."""

import json
import math
import warnings

import numpy as np
import pytest

from specvar import (
    F_eval,
    LeastSquares,
    ProblemSpec,
    QuadraticMinusRankOne,
    SamplingConfig,
    curvature,
    expansion_residual,
    free_set,
    gauge_randomize,
    invariant_tangent_contains,
    kyfan_spec,
    l1_spec,
    min_direction_construct,
    nuclear_psi_eval,
    objective,
    partition_of,
    partition_values,
    quadratic_growth_probe,
    scale_spec,
    soft_threshold_fixture,
    svd_ordered,
    zero_set,
)
from specvar.cli import main
from specvar.errors import BadK, InputError, NonFinite, ShapeError
from specvar.matrix_core import write_matrix_csv

X3 = np.diag([2.0, 1.0, 0.0])
SWAP3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _growth(n_samples, seed):
    p, X0 = soft_threshold_fixture()
    return quadratic_growth_probe(p, X0, 1e-2, n_samples, seed)


def _soft(call, X):
    """call(p, X) on the soft fixture, whose B and X0 are 3 x 3."""
    return call(soft_threshold_fixture()[0], X)


E1 = np.array([[2.5], [0.0], [0.0]])   # 3 x 1: broadcasts against B


class _NanAtProbe:
    """psi = ||X||^2 / 2, but NaN at the second point of each stack."""

    def value(self, X):
        values = 0.5 * np.sum(np.square(X), axis=(-2, -1))
        if np.ndim(X) == 3 and len(X) > 1:
            values[1] = math.nan
        return values

    def gradient(self, X):
        return X

    def hessian_apply(self, X, H):
        return H


def _nan_growth():
    return quadratic_growth_probe(ProblemSpec(_NanAtProbe(), l1_spec()), X3,
                                  1e-2, 5, 0)


def _nan_table(entry, shape=(3, 3)):
    A = np.zeros((2,) + shape)
    A.flat[entry] = math.nan
    return A


def _randomize(seed):
    svd = svd_ordered(X3)
    return gauge_randomize(svd, partition_of(svd), seed)


# (call, error type, start of the message): one row per argument that
# escaped the contract before it had one home
CASES = {
    "sampling-n_samples-float": (
        lambda: SamplingConfig(n_samples=2.5), ShapeError, "n_samples"),
    "sampling-seed-negative": (
        lambda: SamplingConfig(seed=-1), ShapeError, "seed"),
    "sampling-growth_samples-negative": (
        lambda: SamplingConfig(growth_samples=-3), ShapeError,
        "growth_samples"),
    "sampling-min_samples-bool": (
        lambda: SamplingConfig(min_samples=True), ShapeError, "min_samples"),
    "sampling-max_candidates-negative": (
        lambda: SamplingConfig(max_candidates=-1), ShapeError,
        "max_candidates"),
    "sampling-growth_eps-inf": (
        lambda: SamplingConfig(growth_eps=math.inf), ShapeError,
        "growth_eps"),
    "growth-n_samples-float": (
        lambda: _growth(2.5, 0), ShapeError, "n_samples"),
    "growth-seed-negative": (
        lambda: _growth(5, -1), ShapeError, "seed"),
    "psi-eval-base_rank-float": (
        lambda: nuclear_psi_eval(X3, base_rank=1.5), ShapeError, "base_rank"),
    "psi-eval-base_rank-bool": (
        lambda: nuclear_psi_eval(X3, base_rank=True), ShapeError,
        "base_rank"),
    "kyfan-k-float": (lambda: kyfan_spec(2.5), BadK, "k"),
    "expansion-t-inf": (
        lambda: expansion_residual(X3, SWAP3, np.eye(3), math.inf),
        ShapeError, "t"),
    "partition-nan": (
        lambda: partition_values([1.0, math.nan]), NonFinite, "v"),
    "scale-c-inf": (
        lambda: scale_spec(l1_spec(), math.inf), ShapeError, "c"),
    "gauge-seed-negative": (lambda: _randomize(-1), ShapeError, "seed"),
    "construct-zbar-nan": (
        lambda: min_direction_construct(X3, SWAP3, [math.nan, 0.0, 0.0]),
        NonFinite, "zbar"),
    "F_eval-4d": (
        lambda: F_eval(l1_spec(), np.zeros((2, 2, 3, 3))), ShapeError, "X"),
    "F_eval-wide-stack": (
        lambda: F_eval(l1_spec(), np.zeros((2, 2, 3))), ShapeError, "X"),
    "F_eval-nan-item": (
        lambda: F_eval(l1_spec(), np.stack([X3, np.full((3, 3), math.nan)])),
        NonFinite, "X"),
    "growth-nan-quotient": (_nan_growth, NonFinite, "growth"),
    "rank-one-E-shape": (
        lambda: QuadraticMinusRankOne(X3, np.eye(2), 1.0), ShapeError, "E"),
    "rank-one-gamma-nan": (
        lambda: QuadraticMinusRankOne(X3, SWAP3, math.nan), ShapeError,
        "gamma"),
    "least-squares-A-nan": (
        lambda: LeastSquares(_nan_table(4), [1.0, 2.0]), NonFinite, "A"),
    "tangent-order-bool": (
        lambda: invariant_tangent_contains(free_set(), X3, SWAP3, order=True),
        ShapeError, "order"),
    "tangent-order-float": (
        lambda: invariant_tangent_contains(free_set(), X3, SWAP3, order=2.0),
        ShapeError, "order"),
    "tangent-order-three": (   # before sigma(X) is found outside {0}
        lambda: invariant_tangent_contains(zero_set(), X3, SWAP3, order=3),
        ShapeError, "order"),
    "least-squares-b-nan": (
        lambda: LeastSquares(np.ones((2, 3, 3)), [1.0, math.nan]),
        NonFinite, "b"),
    "F_eval-ragged": (
        lambda: F_eval(l1_spec(), [[1, 2], [3]]), ShapeError, "X"),
    "F_eval-strings": (
        lambda: F_eval(l1_spec(), [["a", "b"]]), ShapeError, "X"),
    "svd-dict": (lambda: svd_ordered({"X": 1.0}), ShapeError, "X"),
    "curvature-H-square": (
        lambda: curvature(*soft_threshold_fixture(), np.zeros((2, 2))),
        ShapeError, "H"),
    "curvature-H-wide": (
        lambda: curvature(*soft_threshold_fixture(), np.zeros((3, 2))),
        ShapeError, "H"),
    "objective-X-column": (
        lambda: _soft(objective, E1), ShapeError, "X"),
    "objective-X-square": (
        lambda: _soft(objective, np.eye(2)), ShapeError, "X"),
    "growth-X0-column": (
        lambda: _soft(lambda p, X: quadratic_growth_probe(p, X, 1e-2, 50, 0),
                      E1), ShapeError, "X"),
    "least-squares-X-shape": (
        lambda: LeastSquares(np.ones((2, 3, 3)), [1.0, 2.0]).value(
            np.ones((3, 2))), ShapeError, "X"),
    "rank-one-H-stack-shape": (
        lambda: QuadraticMinusRankOne(X3, SWAP3, 1.0).hessian_apply(
            X3, np.zeros((2, 3, 2))), ShapeError, "H"),
    "least-squares-A-mixed-shapes": (
        lambda: LeastSquares([np.eye(2), np.eye(3)], [1.0, 2.0]),
        ShapeError, "A"),
}


@pytest.mark.parametrize("call, error, name", CASES.values(), ids=CASES)
def test_hostile_argument_is_a_typed_input_error(call, error, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error) as info:
            call()
    assert issubclass(error, InputError)
    assert str(info.value).startswith(name)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _problem(tmp_path, sampling=None):
    write_matrix_csv(tmp_path / "b.csv", np.diag([3.0, 1.0, 0.2]))
    write_matrix_csv(tmp_path / "x0.csv", np.diag([2.5, 0.5, 0.0]))
    problem = {"f": "l1", "weight": 0.5, "X0": "x0.csv",
               "psi": {"kind": "half-squared-distance", "B": "b.csv"}}
    if sampling is not None:
        problem["sampling"] = sampling
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.mark.parametrize("flags, sampling", [
    (["--n-samples", "-5"], None),
    ([], {"n_samples": -2}),
], ids=["flag", "problem-file"])
def test_negative_sample_count_exits_1(tmp_path, capfd, flags, sampling):
    # both used to exit 0 with verdict "inconclusive" and no sample
    assert main(["certify", "--problem", _problem(tmp_path, sampling),
                 *flags]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)   # and nothing else
    assert err["error"] == "UsageError" and err["exit_code"] == 1
    assert err["message"].startswith("n_samples")
