"""Difference-quotient oracles used as independent ground truth.

Every analytic formula in this package is checked against one of these
quotients.  The oracles treat the target function as a black box: they
evaluate it at probe points and reduce, never reading decompositions or
analytic intermediates, so agreement between the two paths is evidence
rather than tautology.

The liminf-style estimators sample perturbed directions inside a ball of
radius proportional to tau, which discretizes the coupled limit (tau
down to 0, direction converging) in the second-subderivative definition.
They estimate the liminf from above: a finite sample can miss the
infimum, so callers treat the result as an upper bound with slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteBase, ShapeError


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for the difference-quotient oracles.

    ``tau_grid`` must be strictly decreasing and positive; the liminf
    estimators minimize only at the smallest tau (the coarser values are
    convergence diagnostics).  ``radius_c`` scales the perturbation
    radius c * tau around the nominal direction.
    """

    tau_grid: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    samples_per_tau: int = 64
    radius_c: float = 2.0
    seed: int = 0
    include_guided: bool = True

    def __post_init__(self):
        grid = tuple(float(t) for t in self.tau_grid)
        if len(grid) == 0 or any(t <= 0 for t in grid):
            raise ShapeError("tau_grid must contain positive values")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ShapeError("tau_grid must be strictly decreasing")
        if self.samples_per_tau < 1:
            raise ShapeError("samples_per_tau must be >= 1")
        object.__setattr__(self, "tau_grid", grid)


def _arr(a, name):
    out = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ShapeError(f"{name} has non-finite entries")
    return out


def _like(a, x, name):
    """a as a finite array of x's shape: a mismatch would broadcast."""
    out = _arr(a, name)
    if out.shape != x.shape:
        raise ShapeError(f"{name} {out.shape} and x {x.shape} differ")
    return out


def _dot(a, b):
    return float(np.sum(a * b))


def _base_value(g, x):
    g0 = float(g(x))
    if not math.isfinite(g0):
        raise NonFiniteBase("g(x) is not finite")
    return g0


def _unit(rng, shape):
    d = rng.standard_normal(shape)
    nrm = np.linalg.norm(d)
    return d / nrm if nrm > 0 else d


def quotient2_fixed(g, x, v, w, cfg: OracleConfig):
    """Second-order difference quotients along the fixed direction w.

    Returns [g(x + tau w) - g(x) - tau <v, w>] / (tau^2 / 2) for every
    tau in the grid, in grid order.
    """
    x = _arr(x, "x")
    v, w = _like(v, x, "v"), _like(w, x, "w")
    g0 = _base_value(g, x)
    vw = _dot(v, w)
    return [
        (float(g(x + t * w)) - g0 - t * vw) / (0.5 * t * t)
        for t in cfg.tau_grid
    ]


def _liminf_at_tau(g, x, g0, v, w, tau, cfg, guided_directions, rng):
    """Minimum second-order quotient over perturbed directions at one tau."""
    candidates = [w]
    if cfg.include_guided:
        candidates += [w + tau * _like(D, x, "guide")
                       for D in guided_directions]
    for _ in range(cfg.samples_per_tau):
        candidates.append(w + tau * cfg.radius_c * _unit(rng, w.shape))
    vals = []
    for wp in candidates:
        vals.append((float(g(x + tau * wp)) - g0 - tau * _dot(v, wp))
                    / (0.5 * tau * tau))
    return min(vals)


def quotient2_liminf(g, x, v, w, cfg: OracleConfig, guided_directions=()):
    """Estimate of the second subderivative d2g(x | v)(w) from above.

    Minimizes the second-order quotient over directions w' = w + tau * u
    with ||u|| <= radius_c, plus any supplied guided offsets, at the
    smallest tau of the grid.  Deterministic for a fixed config.
    """
    x = _arr(x, "x")
    v, w = _like(v, x, "v"), _like(w, x, "w")
    g0 = _base_value(g, x)
    rng = np.random.default_rng(cfg.seed)
    return _liminf_at_tau(g, x, g0, v, w, min(cfg.tau_grid), cfg,
                          guided_directions, rng)


def liminf_table(g, x, v, w, cfg: OracleConfig, guided_directions=()):
    """(tau, min quotient) rows over the whole grid, for convergence
    plots; the last row is the ``quotient2_liminf`` estimate."""
    x = _arr(x, "x")
    v, w = _like(v, x, "v"), _like(w, x, "w")
    g0 = _base_value(g, x)
    rows = []
    for tau in cfg.tau_grid:
        rng = np.random.default_rng(cfg.seed)
        rows.append((tau, _liminf_at_tau(g, x, g0, v, w, tau, cfg,
                                         guided_directions, rng)))
    return rows


def parabolic_quotient(g, x, w, dgxw, z, cfg: OracleConfig):
    """Parabolic difference quotients along x + tau w + tau^2 z / 2.

    Returns [g(...) - g(x) - tau * dgxw] / (tau^2 / 2) per grid tau;
    ``dgxw`` is the (finite) subderivative value dg(x)(w).
    """
    if not math.isfinite(float(dgxw)):
        raise NonFiniteBase("dg(x)(w) must be finite")
    x = _arr(x, "x")
    w, z = _like(w, x, "w"), _like(z, x, "z")
    g0 = _base_value(g, x)
    return [
        (float(g(x + t * w + 0.5 * t * t * z)) - g0 - t * float(dgxw))
        / (0.5 * t * t)
        for t in cfg.tau_grid
    ]


@dataclass(frozen=True)
class GradientCheckReport:
    """Finite-difference agreement of user-supplied derivative hooks."""

    gradient_rel_err: float
    hessian_rel_err: float
    tau: float
    tol: float

    @property
    def gradient_ok(self):
        return self.gradient_rel_err <= self.tol

    @property
    def hessian_ok(self):
        return self.hessian_rel_err <= self.tol

    @property
    def ok(self):
        return self.gradient_ok and self.hessian_ok


def fd_gradient_check(psi, X, tau=1e-5, tol=1e-5, n_directions=5,
                      seed=0) -> GradientCheckReport:
    """Check ``psi.gradient`` and ``psi.hessian_apply`` at X by central
    differences.  Report-only: callers decide what to do with failures.
    """
    X = _arr(X, "X")
    G = _arr(psi.gradient(X), "gradient")
    G_fd = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        E = np.zeros_like(X)
        E[idx] = tau
        G_fd[idx] = (float(psi.value(X + E)) - float(psi.value(X - E))) \
            / (2 * tau)
    g_err = np.linalg.norm(G_fd - G) / max(1.0, np.linalg.norm(G))

    rng = np.random.default_rng(seed)
    h_err = 0.0
    for _ in range(n_directions):
        D = _unit(rng, X.shape)
        HD = _arr(psi.hessian_apply(X, D), "hessian_apply")
        HD_fd = (_arr(psi.gradient(X + tau * D), "gradient")
                 - _arr(psi.gradient(X - tau * D), "gradient")) / (2 * tau)
        h_err = max(h_err, np.linalg.norm(HD_fd - HD)
                    / max(1.0, np.linalg.norm(HD)))
    return GradientCheckReport(gradient_rel_err=float(g_err),
                               hessian_rel_err=float(h_err),
                               tau=tau, tol=tol)
