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

The target g maps the base point x to a float and a (k, *x.shape) stack
of probe points to a (k,) array, entry i g of item i: each oracle scores
its probe points in stacks of at most ``_CHUNK_ENTRIES`` entries.  A
result of another shape raises ``ShapeError`` and a NaN value
``NonFinite``, both naming g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .absym import _stacked
from .errors import NonFinite, NonFiniteBase, ShapeError
from .matrix_core import FD_TOL, _chunks, as_count, as_matrix, as_real


@dataclass(frozen=True)
class OracleConfig:
    """Sampling plan for the difference-quotient oracles.

    ``tau_grid`` must be strictly decreasing, finite and positive; the
    liminf estimators minimize only at the smallest tau (the coarser
    values are convergence diagnostics).  ``radius_c`` (finite, > 0)
    scales the perturbation radius c * tau around the nominal direction.
    ``samples_per_tau`` is an int >= 1 and ``seed`` an int >= 0 (bools
    are not ints here); a field that breaks its rule (``matrix_core``'s
    ``as_real`` and ``as_count``) raises ``ShapeError`` naming it.
    """

    tau_grid: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    samples_per_tau: int = 64
    radius_c: float = 2.0
    seed: int = 0

    def __post_init__(self):
        grid = tuple(as_real(t, "tau_grid") for t in self.tau_grid)
        if not grid:
            raise ShapeError("tau_grid must not be empty")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ShapeError("tau_grid must be strictly decreasing")
        as_real(self.radius_c, "radius_c")
        as_count(self.samples_per_tau, "samples_per_tau", 1)
        as_count(self.seed, "seed")
        object.__setattr__(self, "tau_grid", grid)


def _base_value(g, x):
    g0 = float(g(x))
    if not math.isfinite(g0):
        raise NonFiniteBase("g(x) is not finite")
    return g0


def _g_stack(g, P):
    """g at a (k, *x.shape) stack P of probe points: (k,) floats, entry i
    g(P[i]).  Another shape raises ``ShapeError`` and a NaN ``NonFinite``,
    both naming g."""
    values = np.asarray(_stacked(g(P), len(P), "g"), dtype=float)
    if np.isnan(values).any():
        raise NonFinite(f"g returned NaN at probe point "
                        f"{np.flatnonzero(np.isnan(values))[0]} of a stack")
    return values


def _units(rng, k, like):
    """k unit directions of ``like``'s shape from one standard_normal
    block: row i is bitwise the i-th of k draws d / np.linalg.norm(d), a
    zero draw staying zero."""
    D = rng.standard_normal((k, *like.shape))
    flat = D.reshape(k, like.size)
    nrm = np.sqrt(np.vecdot(flat, flat))[:, None]   # np.linalg.norm, bitwise
    np.divide(flat, nrm, out=flat, where=nrm > 0)
    return D


def _on_grid(g, x, cfg, path):
    """(taus, g at path(T) for every tau of the grid), T the taus as a
    (k, 1, ...) column that broadcasts against x."""
    taus = np.array(cfg.tau_grid)
    values = np.empty(len(taus))
    for at in _chunks(x, len(taus)):
        T = taus[at].reshape((-1,) + (1,) * x.ndim)
        values[at] = _g_stack(g, path(T))
    return taus, values


def quotient2_fixed(g, x, v, w, cfg: OracleConfig):
    """Second-order difference quotients along the fixed direction w.

    Returns [g(x + tau w) - g(x) - tau <v, w>] / (tau^2 / 2) for every
    tau in the grid, in grid order.
    """
    x = as_matrix(x, "x", ndim=None)           # any shape
    v = as_matrix(v, "v", x, like_name="x")    # x's: no broadcasting
    w = as_matrix(w, "w", x, like_name="x")
    g0 = _base_value(g, x)
    vw = float(np.sum(v * w))
    t, gt = _on_grid(g, x, cfg, lambda T: x + T * w)
    return ((gt - g0 - t * vw) / (0.5 * t * t)).tolist()


def quotient2_liminf(g, x, v, w, cfg: OracleConfig, guided_directions=()):
    """Estimate of the second subderivative d2g(x | v)(w) from above.

    Minimizes the second-order quotient over directions w' = w + tau * u
    with ||u|| <= radius_c, plus any supplied guided offsets, at the
    smallest tau of the grid: ``liminf_table``'s last row.  Deterministic
    for a fixed config.
    """
    last = replace(cfg, tau_grid=cfg.tau_grid[-1:])
    return liminf_table(g, x, v, w, last, guided_directions)[0][1]


def liminf_table(g, x, v, w, cfg: OracleConfig, guided_directions=()):
    """(tau, min quotient) rows over the whole grid, for convergence
    plots; the last row is the ``quotient2_liminf`` estimate.

    Each row minimizes over w' = w, then w + tau D per guide D, then
    w + tau radius_c u for ``samples_per_tau`` unit directions u drawn
    from ``default_rng(seed)``: one set of directions serves every row.
    """
    x = as_matrix(x, "x", ndim=None)           # any shape
    v = as_matrix(v, "v", x, like_name="x")    # x's: no broadcasting
    w = as_matrix(w, "w", x, like_name="x")
    guides = [as_matrix(D, "guide", x, like_name="x")
              for D in guided_directions]
    g0 = _base_value(g, x)
    lead = 1 + len(guides)   # w' = w and the guided w', then the samples
    chunks = _chunks(x, lead + cfg.samples_per_tau)
    rng = np.random.default_rng(cfg.seed)
    best = [math.inf] * len(cfg.tau_grid)
    points = np.empty((chunks[0].stop, *x.shape))   # w', then x + tau w'
    for at in chunks:
        first = min(max(at.start, lead), at.stop)   # first sampled point
        U = _units(rng, at.stop - first, x)
        P = points[:at.stop - at.start]
        S = P[first - at.start:]   # the sampled rows
        for i, tau in enumerate(cfg.tau_grid):
            for j in range(at.start, first):
                P[j - at.start] = w + tau * guides[j - 1] if j else w
            np.multiply(U, tau * cfg.radius_c, out=S)
            S += w
            # <v, w'> per row, 16 rows at a time: the products stay small
            vw = np.concatenate([np.sum((B * v).reshape(len(B), -1), axis=1)
                                 for B in np.split(P, range(16, len(P), 16))])
            P *= tau
            P += x
            q = (_g_stack(g, P) - g0 - tau * vw) / (0.5 * tau * tau)
            low = q[np.argmin(q)]   # the first minimum, as Python's min
            if low < best[i]:
                best[i] = float(low)
    return list(zip(cfg.tau_grid, best))


def parabolic_quotient(g, x, w, dgxw, z, cfg: OracleConfig):
    """Parabolic difference quotients along x + tau w + tau^2 z / 2.

    Returns [g(...) - g(x) - tau * dgxw] / (tau^2 / 2) per grid tau;
    ``dgxw`` is the (finite) subderivative value dg(x)(w).
    """
    if not math.isfinite(float(dgxw)):
        raise NonFiniteBase("dg(x)(w) must be finite")
    x = as_matrix(x, "x", ndim=None)           # any shape
    w = as_matrix(w, "w", x, like_name="x")    # x's: no broadcasting
    z = as_matrix(z, "z", x, like_name="x")
    g0 = _base_value(g, x)
    t, gt = _on_grid(g, x, cfg, lambda T: x + T * w + 0.5 * T * T * z)
    return ((gt - g0 - t * float(dgxw)) / (0.5 * t * t)).tolist()


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


# fd_gradient_check's central-difference step relative to max(1, max|X|),
# and the count and seed of the unit directions of its Hessian check
_FD_STEP, _FD_DIRECTIONS, _FD_SEED = 1e-5, 5, 0


def fd_gradient_check(psi, X) -> GradientCheckReport:
    """Check ``psi.gradient`` and ``psi.hessian_apply`` at X by central
    differences, to FD_TOL.  Report-only: callers decide what to do.

    The step tau = 1e-5 max(1, max|X|) (the report's ``tau``) grows with
    the entries, so a shift stays far above their rounding: an absolute
    step fails an exact quadratic whose entries are 1e6 or more.

    The 2 mn shifted points X +- tau E_ij are scored by ``psi.value`` in
    stacks of at most ``_CHUNK_ENTRIES`` entries, each stack rows of X
    with X_i +- tau written at entry i of row i (bitwise X +- tau E_i,
    with no dense shift matrix), and the unit directions
    of the Hessian check go to ``psi.hessian_apply`` as one stack, so psi
    must honour the stack contract (entry i bitwise that of item i alone):
    a result of any other shape raises ``ShapeError`` naming the hook, and
    a hook that mixes the items fails the Hessian check.
    """
    X = as_matrix(X, "X")
    tau = _FD_STEP * float(np.max(np.abs(X), initial=1.0))
    G = as_matrix(psi.gradient(X), "psi.gradient", X)
    d = X.size
    values = np.empty((2, d))
    # X + 0.0 reads -0.0 as +0.0, as X plus a zero shift does
    sides = ((X + 0.0).ravel(), tau), (X.ravel(), -tau)
    for at in _chunks(X, d):
        rows = np.arange(at.stop - at.start)
        for side, (base, step) in enumerate(sides):
            Xs = np.tile(base, (len(rows), 1))
            Xs[rows, rows + at.start] += step   # row i: X_i +- tau at i
            values[side, at] = _stacked(psi.value(Xs.reshape(
                (-1,) + X.shape)), len(rows), "psi.value")
    G_fd = ((values[0] - values[1]) / (2 * tau)).reshape(X.shape)
    g_err = np.linalg.norm(G_fd - G) / max(1.0, np.linalg.norm(G))

    Ds = _units(np.random.default_rng(_FD_SEED), _FD_DIRECTIONS, X)
    HDs = as_matrix(_stacked(psi.hessian_apply(X, Ds), len(Ds),
                             "psi.hessian_apply", X.shape),
                    "psi.hessian_apply", ndim=None)
    h_err = 0.0
    for D, HD in zip(Ds, HDs):
        HD_fd = (as_matrix(psi.gradient(X + tau * D), "psi.gradient", X)
                 - as_matrix(psi.gradient(X - tau * D), "psi.gradient", X)
                 ) / (2 * tau)
        h_err = max(h_err, np.linalg.norm(HD_fd - HD)
                    / max(1.0, np.linalg.norm(HD)))
    return GradientCheckReport(gradient_rel_err=float(g_err),
                               hessian_rel_err=float(h_err),
                               tau=tau, tol=FD_TOL)
