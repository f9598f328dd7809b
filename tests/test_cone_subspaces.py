"""The critical cone's subspaces S <= K <= T (``oimf._critical_subspaces``)
against the cone test, and ``certify`` at linf and Ky Fan points, where
sampling the cone by rejection alone found too few members."""

import sys
from pathlib import Path

import numpy as np
import pytest

from specvar.absym import kyfan_spec, l1_spec, linf_spec, scale_spec
from specvar.certify import (HalfSquaredDistance, ProblemSpec,
                             QuadraticMinusRankOne, certify)
from specvar.oimf import (F_critical_cone_contains, SpectralPoint,
                          _critical_subspaces)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

SPECS = {"l1": l1_spec(), "linf": linf_spec(), "kyfan:2": kyfan_spec(2),
         "kyfan:3": kyfan_spec(3), "0.5*l1": scale_spec(l1_spec(), 0.5)}

# (spec, sigma(X), sigma(Y)): a tie across the face boundary with Y in the
# relative interior of the face, then vertices of the face
TIES = [("linf", (3, 3, 2, 1, .5, 0), (.6, .4, 0, 0, 0, 0)),
        ("kyfan:2", (3, 2, 2, 1, .5, 0), (1, .5, .5, 0, 0, 0)),
        ("kyfan:3", (3, 2, 1, 1, .5, 0), (1, 1, .5, .5, 0, 0))]
SMALL = [("linf", (2, 2, 1), (1, 0, 0)),
         ("kyfan:2", (3, 2, 2), (1, 1, 0)),
         ("linf", (2, 2, 1), (.5, .5, 0))]
VERTICES = [("linf", (3, 3, 2, 1, .5, 0), (1, 0, 0, 0, 0, 0)),
            ("kyfan:2", (3, 2, 2, 1, .5, 0), (1, 1, 0, 0, 0, 0))]
L1 = [("l1", (3, 3, 2, 1, .5, 0), (1, 1, 1, 1, 1, .4)),   # S = T
      ("l1", (3, 3, 2, 1, .5, 0), (1, 1, 1, 1, 1, 1))]    # S < T
# zero blocks whose weights are not all zero: l1 with a weight at the
# face's boundary, and a Ky Fan norm whose tie is the zero block (its
# budget spent by the weights, or not)
ZEROS = [("l1", (3, 2, 1, 0, 0, 0), (1, 1, 1, 1, .3, 0)),
         ("kyfan:3", (3, 2, 0, 0, 0, 0), (1, 1, .5, .5, 0, 0)),
         ("kyfan:3", (3, 2, 0, 0, 0, 0), (1, 1, .5, .25, 0, 0)),
         ("kyfan:3", (3, 2, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0))]
GAUGES = (1, 2)


def _point(sx, sy, seed):
    """(X0, Y) of an (n + 2) x n spectrum pair in a random gauge, and
    (n + 1) x n for n = 3."""
    n = len(sx)
    m = n + 1 if n == 3 else n + 2
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((m, m)))[0][:, :n]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (U @ np.diag(np.array(sx, float)) @ V.T,
            U @ np.diag(np.array(sy, float)) @ V.T)


def _mix_points():
    """certify-mix's soft instances of workload seeds 1-3 as (name, X0, Y)
    for f = 0.5 l1, Y = B - X0."""
    for seed in (1, 2, 3):
        rng = workloads._rng(seed, 0)
        for m, n in workloads.SOFT_SIZES:
            d = workloads._soft_instance(rng, m, n)
            yield f"soft-{m}x{n}-{seed}", d["X0"], d["B"] - d["X0"]


CASES = [(f"{name}-{sx}-{sy}-{seed}", name, *_point(sx, sy, seed))
         for name, sx, sy in TIES + SMALL + VERTICES + L1 + ZEROS
         for seed in GAUGES] + [
    (key, "0.5*l1", X0, Y) for key, X0, Y in _mix_points()]


def _subspaces(name, X0, Y):
    point = SpectralPoint(SPECS[name], X0, Y)
    return (point,) + _critical_subspaces(SPECS[name], point.part, point.sy)


def _basis(P, shape):
    """An orthonormal basis of the range of the projection P, (d, m, n)."""
    m, n = shape
    units = np.eye(m * n).reshape(m * n, m, n)
    _, s, vt = np.linalg.svd(P(units).reshape(m * n, m * n))
    return vt[s > 0.5].reshape(-1, m, n)


@pytest.mark.parametrize("key, name, X0, Y", CASES,
                         ids=[c[0] for c in CASES])
def test_lineality_space_lies_in_the_cone(key, name, X0, Y):
    point, S, T = _subspaces(name, X0, Y)
    U, V = point.gauge.U, point.gauge.V
    units = np.eye(X0.size).reshape((-1,) + X0.shape)
    assert np.array_equal(S(S(units)), S(units))
    assert np.array_equal(T(T(units)), T(units))
    assert np.abs(T(S(units)) - S(units)).max() <= 1e-15   # S <= T
    for E in _basis(S, X0.shape):
        H = U @ E @ V.T
        assert F_critical_cone_contains(SPECS[name], X0, Y, H)
        assert F_critical_cone_contains(SPECS[name], X0, Y, -H)


@pytest.mark.parametrize("key, name, X0, Y", CASES,
                         ids=[c[0] for c in CASES])
def test_accepted_samples_lie_in_the_span(key, name, X0, Y):
    point, S, T = _subspaces(name, X0, Y)
    p = ProblemSpec(HalfSquaredDistance(X0 + Y), SPECS[name])
    cert = certify(p, X0)   # S < T at a vertex: T samples are cone-tested
    assert len(cert.samples) >= 50
    Hs = np.array([H for H, _ in cert.samples])
    Hhat = point.gauge.U.T @ Hs @ point.gauge.V
    assert np.abs(T(Hhat) - Hhat).max() <= 1e-12   # unit H: relative


def test_l1_interior_subspaces_zero_the_zero_block():
    # S = T = {Hhat[r:, r:] = 0} at every certify-mix instance, and at the
    # l1 point whose Y is inside the face; S < T where Y's zero block
    # reaches the face's boundary
    for key, name, X0, Y in CASES:
        point, S, T = _subspaces(name, X0, Y)
        units = np.eye(X0.size).reshape((-1,) + X0.shape)
        r = point.part.r
        mask = np.ones(X0.shape)
        mask[r:, r:] = 0.0
        if name == "0.5*l1" or key.startswith("l1-(3, 3, 2, 1, 0.5, 0)-"
                                              "(1, 1, 1, 1, 1, 0.4)"):
            assert S.blocks == T.blocks
            assert np.array_equal(T(units), units * mask)
        elif name == "l1":
            assert S.blocks != T.blocks


@pytest.mark.parametrize("name, sx, sy", TIES + SMALL)
@pytest.mark.parametrize("seed", GAUGES)
def test_ties_across_the_face_certify(name, sx, sy, seed):
    # a quadratic centred at X0 + Y, Y in the face's relative interior
    # (or at a vertex, 4 x 3): rejection sampling found at most 49 cone
    # members in 20,008 candidates here
    X0, Y = _point(sx, sy, seed)
    cert = certify(ProblemSpec(HalfSquaredDistance(X0 + Y), SPECS[name]), X0)
    assert cert.verdict == "sufficient-evidence"
    assert len(cert.samples) == 200


@pytest.mark.parametrize("name, sx, sy", VERTICES)
@pytest.mark.parametrize("seed", GAUGES)
def test_vertices_fill_the_sample_count(name, sx, sy, seed):
    # 53 and 57 cone members by rejection, just above min_samples
    X0, Y = _point(sx, sy, seed)
    cert = certify(ProblemSpec(HalfSquaredDistance(X0 + Y), SPECS[name]), X0)
    assert len(cert.samples) == 200


@pytest.mark.parametrize("name, sx, sy, pair", [
    ("linf", *TIES[0][1:], (0, 1)), ("kyfan:2", *TIES[1][1:], (1, 2))])
@pytest.mark.parametrize("seed", GAUGES)
def test_tied_pair_saddle_is_refuted(name, sx, sy, pair, seed):
    # deflated along the aligned-gauge skew pattern on the tied pair, a
    # free direction of the cone with <E, X0> = 0: X0 stays stationary
    X0, Y = _point(sx, sy, seed)
    point = SpectralPoint(SPECS[name], X0, Y)
    i, j = pair
    G = np.zeros(X0.shape)
    G[i, j], G[j, i] = 1.0, -1.0
    E = point.gauge.U @ G @ point.gauge.V.T / np.sqrt(2.0)
    p = ProblemSpec(QuadraticMinusRankOne(X0 + Y, E, 3.0), SPECS[name])
    cert = certify(p, X0)
    assert cert.verdict == "necessary-violated"
    assert cert.counterexample is not None
    assert len(cert.samples) == 200


@pytest.mark.parametrize("key, name, X0, Y", CASES[::3],
                         ids=[c[0] for c in CASES[::3]])
def test_projection_rows_are_bitwise_alone(key, name, X0, Y):
    # certify's stream projects a stack of draws; any split of it into
    # stacks gives the same candidates
    _, S, T = _subspaces(name, X0, Y)
    G = np.random.default_rng(3).standard_normal((9,) + X0.shape)
    for P in (S, T):
        assert np.array_equal(P(G), np.concatenate([P(G[i:i + 1])
                                                    for i in range(9)]))
