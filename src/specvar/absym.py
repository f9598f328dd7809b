"""Absolutely symmetric functions on R^n.

The built-ins are the sum-of-k-largest-absolute-values family: k = n is
the l1 norm (generating the nuclear norm through the singular value map),
k = 1 the sup norm (generating the spectral norm), general k the Ky Fan
k-norm generator.  All are polyhedral, so their subderivative, critical
cone, second subderivative and parabolic subderivative have closed forms
built on one tie-aware "top-k face" classification.

Extended-real values are plain floats with math.inf: IEEE arithmetic is
absorbing for +inf and comparisons are total, which is exactly the
contract the codomain [-inf, +inf] needs.  Formulas never smuggle inf
through intermediate arithmetic; they return it explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadK, ShapeError
from .matrix_core import F_CONE_TOL, SUBDIFF_TOL, ZERO_TOL, cluster_blocks

ExtendedValue = float
INF = math.inf
_HALF_MAX = np.finfo(float).max / 2   # k terms <= _HALF_MAX / k: finite sum


def _as_vector(x, name="x"):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be a vector")
    return v


def _as_rows(w):
    """w as C-order (k, n) rows, and whether it was one (n,) vector."""
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2):
        raise ShapeError("w must be a vector or (k, n) rows")
    return np.ascontiguousarray(w[None] if w.ndim == 1 else w), w.ndim == 1


def _stacked(values, k, hook):
    """A hook's values for a stack of k, which must have shape (k,)."""
    if np.shape(values) != (k,):
        raise ShapeError(f"{hook} returned shape {np.shape(values)} for a "
                         f"stack of {k}")
    return values


# -- top-k face classification -------------------------------------------------

@dataclass(frozen=True)
class _Face:
    """Tie structure of |x| around its k-th largest value."""

    above: np.ndarray     # indices with |x_i| strictly above the tie value
    tied: np.ndarray      # indices in the tie cluster of the k-th value
    below: np.ndarray     # the rest
    q: int                # budget left for the tie cluster
    theta_zero: bool      # tie value is (numerically) zero
    signs: np.ndarray     # sign(x_i) for all i (0 for numerically zero)


def _classify(x, k):
    x = _as_vector(x)
    a = np.abs(x)
    tol = ZERO_TOL * (1.0 + np.max(a, initial=0.0))
    order = np.argsort(-a, kind="stable")
    # cluster the sorted magnitudes, locate the cluster holding rank k-1
    lo, hi = next((b[0], b[-1] + 1) for b in cluster_blocks(a[order], tol)
                  if k - 1 <= b[-1])
    signs = np.where(a <= tol, 0, np.sign(x)).astype(int)
    return _Face(above=order[:lo], tied=order[lo:hi], below=order[hi:],
                 q=k - lo, theta_zero=bool(a[order[lo]] <= tol), signs=signs)


def _sum_top(u, q):
    """Sum of the q >= 1 largest entries of u, per row of (k, p) rows."""
    return np.ascontiguousarray(np.sort(u)[..., ::-1][..., :q]).sum(axis=-1)


def _signed_top_dirderiv(u, z, q, scale):
    """Directional derivative of v -> sum of q largest entries, at u
    along z: resolve the ``cluster_blocks`` run holding the q-th largest
    value of u, as ``_classify`` does for the k-th."""
    if q >= len(u):
        return float(np.sum(z))
    order = np.argsort(-u, kind="stable")
    lo, hi = next((b[0], b[-1] + 1) for b in cluster_blocks(
        u[order], ZERO_TOL * (1.0 + scale)) if q - 1 <= b[-1])
    return (float(np.sum(z[order[:lo]]))
            + float(_sum_top(z[order[lo:hi]], q - lo)))


class _TopKAbs:
    """Sum of the k largest absolute values, with exact face calculus.

    k = None adapts to the input length, giving the l1 norm.
    """

    def __init__(self, k=None):
        self.k = None if k is None else int(k)

    def _check(self, x):
        x = _as_vector(x)
        return x, self._order(len(x))

    def _order(self, n):
        k = n if self.k is None else self.k
        if k < 1 or k > n:
            raise BadK(f"k={k} outside 1..{n}")
        return k

    def eval(self, x):
        """A float for an (n,) vector; for (s, n) rows an (s,) array whose
        entry i is bitwise eval(x[i]).  Overflow gives +inf silently."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ShapeError("x must be a vector or (s, n) rows")
        k = self._order(x.shape[-1])
        top = np.sort(np.abs(x))[..., ::-1][..., :k]   # largest first
        if x.ndim == 1 and top[0] <= _HALF_MAX / k:
            return float(top.sum())   # cannot overflow; errstate costs more
        with np.errstate(over="ignore"):
            total = np.ascontiguousarray(top).sum(axis=-1)
        return float(total) if x.ndim == 1 else total

    def subderivative(self, x, w):
        """df(x)(w); for (k, n) rows a (k,) array, entry i bitwise row i's.
        Overflow gives +-inf, and a row summing +inf and -inf NaN, silently
        (as the single-vector call did with float arithmetic)."""
        x, k = self._check(x)
        W, one = _as_rows(w)
        f = _classify(x, k)
        T = W.take(f.tied, axis=1)   # C order: rows sum as vectors do
        u = np.abs(T) if f.theta_zero else f.signs[f.tied] * T
        with np.errstate(over="ignore", invalid="ignore"):   # see docstring
            d = (np.sum(f.signs[f.above] * W.take(f.above, axis=1), axis=-1)
                 + _sum_top(u, f.q))
        return float(d[0]) if one else d

    def parabolic_subderivative(self, x, w, z):
        """Directional derivative of w -> df(x)(w) at w along z, which is
        the parabolic subderivative of a convex piecewise linear f."""
        x, k = self._check(x)
        w = _as_vector(w, "w")
        z = _as_vector(z, "z")
        f = _classify(x, k)
        val = float(np.sum(f.signs[f.above] * z[f.above]))
        if f.theta_zero:
            # df restricted to the tied block is the top-q abs sum there
            return val + _TopKAbs(f.q).subderivative(w[f.tied], z[f.tied])
        u = f.signs[f.tied] * w[f.tied]
        uz = f.signs[f.tied] * z[f.tied]
        scale = float(np.max(np.abs(u), initial=0.0))
        return val + _signed_top_dirderiv(u, uz, f.q, scale)

    def subdiff_violation(self, x, v):
        """Max constraint violation of v against the subdifferential."""
        x, k = self._check(x)
        v = _as_vector(v, "v")
        f = _classify(x, k)
        viol = 0.0
        if len(f.above):
            viol = max(viol, float(np.max(np.abs(v[f.above]
                                                 - f.signs[f.above]))))
        if len(f.below):
            viol = max(viol, float(np.max(np.abs(v[f.below]))))
        if len(f.tied):
            if f.theta_zero:
                viol = max(viol, float(np.max(np.abs(v[f.tied]))) - 1.0,
                           float(np.sum(np.abs(v[f.tied]))) - f.q)
            else:
                tv = f.signs[f.tied] * v[f.tied]
                viol = max(viol, float(np.max(-tv)), float(np.max(tv)) - 1.0,
                           abs(float(np.sum(tv)) - f.q))
        return max(viol, 0.0)

    def subdiff_contains(self, x, v, tol=SUBDIFF_TOL):
        return self.subdiff_violation(x, v) <= tol

    def subdiff_representative(self, x):
        x, k = self._check(x)
        f = _classify(x, k)
        v = np.zeros(len(x))
        v[f.above] = f.signs[f.above]
        if len(f.tied) and not f.theta_zero:
            v[f.tied] = f.signs[f.tied] * (f.q / len(f.tied))
        return v

    def subdiff_sample(self, x, rng):
        x, k = self._check(x)
        f = _classify(x, k)
        v = np.zeros(len(x))
        v[f.above] = f.signs[f.above]
        T = len(f.tied)
        if T and not f.theta_zero:
            for _ in range(50):
                t = rng.dirichlet(np.ones(T)) * f.q
                if np.all(t <= 1.0):
                    break
            else:
                t = np.full(T, f.q / T)
            v[f.tied] = f.signs[f.tied] * t
        elif T:
            raw = rng.uniform(-1.0, 1.0, T)
            budget = float(np.sum(np.abs(raw)))
            if budget > f.q:
                raw *= (f.q / budget) * rng.uniform(0.2, 1.0)
            v[f.tied] = raw
        return v


# -- spectral function specs ---------------------------------------------------

@dataclass(frozen=True)
class SpectralFunctionSpec:
    """An absolutely symmetric function bundled with its calculus hooks.

    ``eval(x)``, ``subderivative(x, w)``, ``critical_cone_contains(x, v,
    w, tol=None)`` and ``second_subderivative(x, v, w, tol=None)`` map an
    (n,) x or w to a float (a bool for the cone) and (k, n) rows to a (k,)
    array, entry i bitwise the call on row i, with a scalar or per-row
    tol: the growth probe and each chunk of ``certify`` call f once a hook.

    ``second_subderivative`` must return the full second subderivative
    d2f(x|v)(w) as an extended real; for polyhedral built-ins it is the
    indicator of the critical cone.  Non-polyhedral functions must supply
    the hook themselves.
    """

    name: str
    convex: bool
    lsc: bool
    lipschitz_on_domain: bool
    eval: Callable
    subderivative: Callable
    subdiff_contains: Callable
    subdiff_representative: Callable
    critical_cone_contains: Callable
    parabolic_subderivative: Callable
    second_subderivative: Optional[Callable] = None
    subdiff_violation: Optional[Callable] = None
    subdiff_sample: Optional[Callable] = None


def _cone_tol(v, w):
    """The default cone threshold F_CONE_TOL (1 + ||v|| ||w||), per row of
    w; inf or NaN where a norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return F_CONE_TOL * (1.0 + np.linalg.norm(v)
                             * np.linalg.norm(_as_rows(w)[0], axis=-1))


def _make_polyhedral_spec(name, core: _TopKAbs) -> SpectralFunctionSpec:
    def critical(x, v, w, tol=None):
        W, one = _as_rows(w)
        v = _as_vector(v, "v")
        tol = _cone_tol(v, W) if tol is None else tol
        with np.errstate(over="ignore", invalid="ignore"):   # inf - inf: NaN
            gap = core.subderivative(x, W) - np.sum(v * W, axis=-1)
        member = np.abs(gap) <= tol
        return bool(member[0]) if one else member

    def second(x, v, w, tol=None):
        d2 = np.where(critical(x, v, w, tol), 0.0, INF)
        return float(d2) if d2.ndim == 0 else d2

    return SpectralFunctionSpec(
        name=name, convex=True, lsc=True,
        lipschitz_on_domain=True,
        eval=core.eval,
        subderivative=core.subderivative,
        subdiff_contains=core.subdiff_contains,
        subdiff_representative=core.subdiff_representative,
        critical_cone_contains=critical,
        parabolic_subderivative=core.parabolic_subderivative,
        second_subderivative=second,
        subdiff_violation=core.subdiff_violation,
        subdiff_sample=core.subdiff_sample,
    )


def l1_spec() -> SpectralFunctionSpec:
    """Sum of absolute values; generates the nuclear norm."""
    return _make_polyhedral_spec("l1", _TopKAbs(None))


def linf_spec() -> SpectralFunctionSpec:
    """Largest absolute value; generates the spectral norm."""
    return _make_polyhedral_spec("linf", _TopKAbs(1))


def kyfan_spec(k: int) -> SpectralFunctionSpec:
    """Sum of the k largest absolute values; generates the Ky Fan k-norm."""
    if k < 1:
        raise BadK(f"k={k} must be >= 1")
    return _make_polyhedral_spec(f"kyfan:{k}", _TopKAbs(k))


def scale_spec(spec: SpectralFunctionSpec, c: float) -> SpectralFunctionSpec:
    """The spec of c*f for c > 0 (used to fold regularization weights)."""
    if not (c > 0):
        raise ShapeError("scale factor must be positive")
    if c == 1.0:
        return spec

    def contains(x, v, tol=SUBDIFF_TOL):   # subdiff_violation(x, v) <= tol
        return spec.subdiff_contains(x, np.asarray(v, float) / c, tol / c)

    times_c = np.errstate(over="ignore")(lambda y: c * y)   # inf, as floats

    def base_tol(v, w, tol):   # |c gap| <= tol is |gap| <= tol / c, per row
        # the default is c f's own, at the v it receives, not at v / c
        return (_cone_tol(v, w) if tol is None else tol) / c

    def second(x, v, w, tol=None):
        return c * spec.second_subderivative(x, np.asarray(v, float) / c, w,
                                             base_tol(v, w, tol))

    return replace(
        spec,
        name=f"{c:g}*{spec.name}",
        eval=lambda x: c * spec.eval(x),
        subderivative=lambda x, w: times_c(spec.subderivative(x, w)),
        subdiff_contains=contains,
        subdiff_representative=lambda x: c * spec.subdiff_representative(x),
        critical_cone_contains=lambda x, v, w, tol=None:
            spec.critical_cone_contains(x, np.asarray(v, float) / c, w,
                                        base_tol(v, w, tol)),
        parabolic_subderivative=lambda x, w, z:
            c * spec.parabolic_subderivative(x, w, z),
        second_subderivative=(None if spec.second_subderivative is None else
                              second),
        subdiff_violation=(None if spec.subdiff_violation is None else
                           lambda x, v: c * spec.subdiff_violation(
                               x, np.asarray(v, float) / c)),
        subdiff_sample=(None if spec.subdiff_sample is None else
                        lambda x, rng: c * spec.subdiff_sample(x, rng)),
    )


def spec_by_name(name: str) -> SpectralFunctionSpec:
    """Resolve "l1", "linf" or "kyfan:k", used by CLI and job files."""
    if name == "l1":
        return l1_spec()
    if name == "linf":
        return linf_spec()
    if name.startswith("kyfan:"):
        k = name.split(":", 1)[1]
        try:
            k = int(k)
        except ValueError:
            raise BadK(f"Ky Fan order {k!r} is not an integer") from None
        return kyfan_spec(k)
    raise BadK(f"unknown spectral function {name!r}")
