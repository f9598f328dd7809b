"""Calculus of orthogonally invariant matrix functions F = f o sigma.

Values, subderivatives, subdifferentials, critical cones, parabolic and
second subderivatives of f o sigma for absolutely symmetric f, the
nuclear-norm specializations (the bottom singular-value cluster sum and
the top-r sum), and tangent-set tests for orthogonally invariant sets.

The second-order formulas require one orthogonal pair (U, V) that
diagonalizes X and Y simultaneously with both value vectors ordered;
``_subgradient`` builds it and is the one test of Y in dF(X), at
GAUGE_TOL ||Y||, that every entry point reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .absym import (INF, ExtendedValue, SpectralFunctionSpec, _as_vector,
                    _stacked, l1_spec)
from .errors import (
    AssumptionViolated,
    FullRank,
    NoSimultaneousGauge,
    NotASubgradient,
    NotInRegularSubdiff,
    NotInSet,
    ProjectionUnavailable,
    RankZero,
    ShapeError,
)
from .matrix_core import (
    CONE_TOL,
    GAUGE_TOL,
    SET_TOL,
    TOLERANCES,
    SvdDecomposition,
    _svd,
    as_matrix,
    cluster_blocks,
    partition_of,
    require_tall,
    size_classes,
    svd_ordered,
    sym_eig_ordered,
)
from .sv_calculus import (
    _blocks_of,
    _prepared,
    alpha_terms,
    cross_term_hat,
    direction_blocks,
    divided_differences,
    min_direction_from_blocks,
    sigma_dir1_from_blocks,
    sigma_dir1_stack,
    sigma_dir2_from_blocks,
)


def _flags_ok(f: SpectralFunctionSpec):
    return (f.lsc and f.convex) or f.lipschitz_on_domain


# -- simultaneous gauge --------------------------------------------------------

def simultaneous_gauge(X, Y, tols=TOLERANCES):
    """Orthogonal pair (U, V) diagonalizing X and Y together.

    Returns (svd, part, sy) where ``svd`` is an ordered SVD of X whose
    (U, V) also satisfy U^T Y V = diag(sy) with sy the nonincreasing
    singular values of Y.  Within each equal-value block of X the freedom
    is one orthogonal factor applied to both sides, so the compressed Y
    block must be symmetric there; the zero block rotates freely on each
    side.  Raises ``NoSimultaneousGauge`` when the compression is not
    block-diagonal, not symmetric on a block, or yields values out of
    order, which characterizes Y not being alignable with X.
    """
    gauge, part, sy, _, _, message = _align(X, Y, tols)
    if message is not None:
        raise NoSimultaneousGauge(message)
    return gauge, part, sy


def _align(X, Y, tols):
    """``simultaneous_gauge`` without raising: (gauge, part, sy, residual,
    tol, message), the residual the largest of the off-block energy, a
    block's asymmetry and any rise or negative value of sy, and message
    the first of these tests above tol = GAUGE_TOL ||Y|| (None if none)."""
    X = require_tall(as_matrix(X, "X"))
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ShapeError(f"X {X.shape} and Y {Y.shape} differ")
    svd = svd_ordered(X)
    part = partition_of(svd, tols)
    m, n = svd.shape
    U, V = svd.U.copy(), svd.V.copy()
    M = U.T @ Y @ V
    tol = GAUGE_TOL * np.linalg.norm(Y)

    # block number of every column, t on the zero block and rows past n
    owner = np.cumsum(part.l == 1) - 1
    rows = np.concatenate([owner, np.full(m - n, part.t)])
    off = np.linalg.norm(M[rows[:, None] != owner])

    sy = np.zeros(n)
    asym = 0.0
    for idx in size_classes(part.alpha_blocks):
        Mb = _blocks_of(M, idx)
        asym = max(asym, np.linalg.norm(Mb - Mb.mT, axis=(1, 2)).max())
        eig = sym_eig_ordered(Mb)
        sy[idx] = eig.lam
        if idx.shape[1] > 1:               # a singleton's eigenvector is 1
            U[:, idx] = np.moveaxis(np.moveaxis(U[:, idx], 0, 1) @ eig.Q, 1, 0)
            V[:, idx] = np.moveaxis(np.moveaxis(V[:, idx], 0, 1) @ eig.Q, 1, 0)
    if part.r < n:
        bh = part.betahat
        rs = _svd(M[np.ix_(bh, part.beta)])   # keeps X's memo entry
        U[:, bh] = U[:, bh] @ rs.U
        V[:, part.beta] = V[:, part.beta] @ rs.V
        sy[part.beta] = rs.sigma
    order = max(np.max(np.diff(sy), initial=0.0), np.max(-sy, initial=0.0))
    checks = ((off, f"off-block energy {off:.3e} exceeds {tol:.3e}"),
              (asym, "compressed block not symmetric; one-sided rotation "
                     "cannot diagonalize it"),
              (order, "aligned values of Y not nonincreasing and nonnegative"))
    message = next((text for value, text in checks if value > tol), None)
    return (SvdDecomposition(U=U, sigma=svd.sigma.copy(), V=V), part, sy,
            max(off, asym, order), tol, message)


def _subgradient(f: SpectralFunctionSpec, X, Y, tols):
    """``_align`` plus f's violation of sy at sigma(X) (read once Y aligns,
    as sy is sigma(Y) only then; without the hook, ``subdiff_contains`` at
    tol as 0 or inf): (gauge, part, sy, residual, member, message), Y in
    dF(X) iff the residual is within tol = GAUGE_TOL ||Y||."""
    gauge, part, sy, residual, tol, message = _align(X, Y, tols)
    if message is None:
        if f.subdiff_violation is not None:
            residual = max(residual, f.subdiff_violation(gauge.sigma, sy))
        elif not f.subdiff_contains(gauge.sigma, sy, tol):
            residual = INF
    return gauge, part, sy, residual, bool(residual <= tol), message


# -- composite calculus --------------------------------------------------------

def F_eval(f: SpectralFunctionSpec, X) -> ExtendedValue:
    """F(X) = f(sigma(X))."""
    X = require_tall(as_matrix(X, "X"))
    return f.eval(np.linalg.svd(X, compute_uv=False))


def F_subderivative(f: SpectralFunctionSpec, X, H,
                    tols=TOLERANCES) -> ExtendedValue:
    """Chain rule dF(X)(H) = df(sigma(X))(sigma'(X; H))."""
    if not _flags_ok(f):
        raise AssumptionViolated(
            f"{f.name}: need (lsc and convex) or Lipschitz-on-domain")
    svd, part, Hhat = _prepared(X, H, tols)
    if not math.isfinite(f.eval(svd.sigma)):
        raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
    return f.subderivative(svd.sigma, sigma_dir1_stack(Hhat[None], part)[0])


def _convex_lsc(f: SpectralFunctionSpec):
    if not (f.convex and f.lsc):
        raise AssumptionViolated(f"{f.name}: subdifferential test needs a "
                                 "convex lsc function")


def F_subdiff_contains(f: SpectralFunctionSpec, X, Y) -> bool:
    """Y in dF(X): one ordered SVD diagonalizes X and Y and sigma(Y) is in
    df(sigma(X)), both within GAUGE_TOL ||Y|| (the test ``SpectralPoint``
    applies, so (c f, c Y) is decided alike)."""
    _convex_lsc(f)
    return _subgradient(f, X, Y, TOLERANCES)[4]


def F_subdiff_element(f: SpectralFunctionSpec, X):
    """A subgradient of F at X from the representative of df(sigma(X))."""
    svd = svd_ordered(X)
    m, n = svd.shape
    rep = f.subdiff_representative(svd.sigma)
    return svd.U[:, :n] @ (rep[:, None] * svd.V.T)


def F_critical_cone_contains(f: SpectralFunctionSpec, X, Y, H, *,
                             diagnostics=False, tols=TOLERANCES):
    """H in K_F(X, Y): the duality gap dF(X)(H) - <Y, H> is within
    CONE_TOL (1 + ||Y|| ||H||).

    With ``diagnostics=True`` also reports the equivalent block
    conditions: the f-level cone membership of sigma'(X;H) and the
    Fan / von Neumann equality gaps of the compressed Y blocks against
    the reduced direction blocks (zero gaps characterize simultaneous
    ordered decompositions).
    """
    _convex_lsc(f)
    svd, part, sy, _, member, _ = _subgradient(f, X, Y, tols)
    if not member:
        raise NotASubgradient("Y is not a subgradient of F at X")
    Y = np.asarray(Y, dtype=float)
    H = _like(H, Y, "H")
    Hhat = svd.U.T @ H @ svd.V
    d1 = sigma_dir1_stack(Hhat[None], part)[0]
    gap = f.subderivative(svd.sigma, d1) - float(np.sum(Y * H))
    tol = CONE_TOL * (1.0 + np.linalg.norm(Y) * np.linalg.norm(H))
    member = bool(abs(gap) <= tol)
    if not diagnostics:
        return member
    # Fan / von Neumann gap of a block: sy . (sigma' - diag Hhat) on it
    excess = sy * (d1 - np.diagonal(Hhat))
    return member, {
        "member": member,
        "duality_gap": gap,
        "f_level_member": f.critical_cone_contains(
            svd.sigma, np.sort(sy)[::-1], d1, tol),
        "fan_gaps": [float(np.sum(excess[b[0]:b[-1] + 1]))
                     for b in part.alpha_blocks],
        "von_neumann_gap": float(np.sum(excess[part.r:])),
    }


@dataclass(frozen=True)
class SecondSubderivativeReport:
    """Breakdown of d2F(X|Y)(H): value = d2f + alpha + beta when critical,
    +inf otherwise."""

    value: ExtendedValue
    d2f_term: ExtendedValue
    alpha_term: float
    beta_term: float
    critical: bool
    duality_gap: float
    warnings: tuple = ()


class SpectralPoint:
    """F = f o sigma prepared at (X, Y) for d2F(X|Y)(H) along many H.

    Construction checks the flags and hooks of f, builds the aligned
    gauge and the partition of sigma(X) and tests Y in dF(X) at the one
    scale GAUGE_TOL ||Y|| (``_subgradient``: one stacked eigh per block
    size, singletons read diag(U^T Y V); (c f, c Y) is decided alike),
    raising ``NoSimultaneousGauge`` and then ``NotASubgradient``, checks
    that f is finite at sigma(X), and
    keeps ||Y||, the ``DividedDifferences`` of sigma(X) and the beta weights.
    The formula depends on H only through Hhat = U^T H V, so a stack of
    directions costs one batched product and the ``sv_calculus`` kernel:
    no SVD of X, no partition.
    """

    def __init__(self, f: SpectralFunctionSpec, X, Y, tols=TOLERANCES):
        if not (f.convex and f.lsc and f.lipschitz_on_domain):
            raise AssumptionViolated(
                f"{f.name}: second subderivative needs convex, lsc, "
                "Lipschitz-on-domain flags")
        if f.second_subderivative is None:
            raise AssumptionViolated(
                f"{f.name}: a second-subderivative hook is required")
        self.f = f
        self.X = as_matrix(X, "X")
        self.Y = as_matrix(Y, "Y")
        self.gauge, self.part, self.sy, _, member, message = _subgradient(
            f, self.X, self.Y, tols)
        if message is not None:
            raise NoSimultaneousGauge(message)
        if not member:
            raise NotASubgradient(
                "sigma(Y) is not in the subdifferential of f at sigma(X)")
        s, sy, part = self.gauge.sigma, self.sy, self.part
        if not math.isfinite(f.eval(s)):
            raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
        self.y_norm = float(np.linalg.norm(self.Y))
        self._tables = divided_differences(s, part)
        self._report_warns = tuple(
            f"spectral gap {g:.3e} at block value {mu:.6g}: alpha term "
            "ill-conditioned" for mu, g, w in self._tables.gaps if w)
        self._B = -2.0 * sy[part.r:, None] / s[:part.r]   # beta weights

    def second_subderivatives(self, Hs):
        """d2F(X|Y)(H) with its breakdown for each H of a (k, m, n) stack.

        One stacked ``f.subderivative`` call gives the duality gaps
        dF(X)(H) - <Y, H>; rows within CONE_TOL (1 + ||Y|| ||H||) are
        critical and get the alpha and beta terms and, in one stacked
        call, ``f.second_subderivative``.  Small-gap blocks warn once a call.
        """
        Hs = np.asarray(Hs, dtype=float)
        if Hs.ndim != 3 or Hs.shape[1:] != self.X.shape:
            raise ShapeError(f"X {self.X.shape} and H {Hs.shape[1:]} differ")
        f, s, sy, part = self.f, self.gauge.sigma, self.sy, self.part
        r, n, k = part.r, part.n, len(Hs)
        flat = as_matrix(Hs.reshape(k, self.X.size), "H")
        Hhat = self.gauge.U.T @ Hs @ self.gauge.V
        d1 = sigma_dir1_stack(Hhat, part)
        gaps = (_stacked(f.subderivative(s, d1), k, "f.subderivative")
                - (flat * self.Y.ravel()).sum(axis=1))
        tols = CONE_TOL * (1.0 + self.y_norm * np.sqrt(
            np.vecdot(flat, flat)))   # a dot per row: np.linalg.norm, bitwise
        crit = ~(np.abs(gaps) > tols)   # a NaN gap is left to the d2f hook
        d2f = np.full(k, INF)
        if crit.any():
            d2f[crit] = _stacked(
                f.second_subderivative(s, sy, d1[crit], tols[crit]),
                crit.sum(), "f.second_subderivative")
        alpha = np.where(crit, alpha_terms(Hhat, self._tables, sy[:r]), 0.0)
        beta = np.where(crit, np.einsum("kji,kij,ji->k", Hhat[:, r:n, :r],
                                        Hhat[:, :r, r:n], self._B), 0.0)
        return [SecondSubderivativeReport(
            value=v + a + b if math.isfinite(v) else INF, d2f_term=v,
            alpha_term=a, beta_term=b, critical=c, duality_gap=gap,
            warnings=self._report_warns if c else ())
            for gap, c, v, a, b in zip(gaps.tolist(), crit.tolist(),
                                       d2f.tolist(), alpha.tolist(),
                                       beta.tolist())]

    def second_subderivative(self, H) -> SecondSubderivativeReport:
        """``second_subderivatives`` of the one direction H."""
        return self.second_subderivatives(as_matrix(H, "H")[None])[0]


def F_second_subderivative(f: SpectralFunctionSpec, X, Y, H,
                           tols=TOLERANCES) -> SecondSubderivativeReport:
    """d2F(X|Y)(H) for convex f, with its additive breakdown.

    For critical H the value is the f-level second subderivative at the
    reduced data plus the alpha-block resolvent quadratic and the
    beta-block cross quadratic; outside the critical cone it is +inf.
    Directions sharing one (X, Y) should reuse a ``SpectralPoint``.
    """
    return SpectralPoint(f, X, Y, tols).second_subderivative(H)


def F_parabolic_subderivative(f: SpectralFunctionSpec, X, H, W,
                              tols=TOLERANCES) -> ExtendedValue:
    """d2F(X)(H | W) = d2f(sigma(X))(sigma'(X;H) | sigma''(X;H,W))."""
    if not (f.lipschitz_on_domain and f.parabolic_subderivative is not None):
        raise AssumptionViolated(
            f"{f.name}: parabolic subderivative needs Lipschitz-on-domain "
            "and a parabolic hook")
    blocks = direction_blocks(X, H, None, tols)
    sx = blocks.gauge.sigma
    if not math.isfinite(f.eval(sx)):
        raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
    d1 = sigma_dir1_from_blocks(blocks)
    if not math.isfinite(f.subderivative(sx, d1)):
        raise AssumptionViolated("dF(X)(H) must be finite")
    d2 = sigma_dir2_from_blocks(blocks, W)
    return f.parabolic_subderivative(sx, d1, d2)


# -- nuclear norm specializations ----------------------------------------------

def nuclear_psi_eval(X, base_rank=None, tols=TOLERANCES):
    """Sum of the trailing singular-value group.

    With ``base_rank=r`` the function is sigma_{r+1} + ... + sigma_n,
    the zero-block sum frozen at a base point of rank r; this is the
    right callable to feed difference-quotient oracles that probe a
    neighborhood of that base point.  With ``base_rank=None`` the group
    is the last equal-value block of X itself (``cluster_blocks`` at
    ``tols.cluster * max(1, sigma_1)``, the rule of every partition),
    which coincides with the frozen form at the base point.
    """
    X = require_tall(as_matrix(X, "X"))
    s = np.linalg.svd(X, compute_uv=False)
    if base_rank is not None:
        if not 0 <= base_rank <= len(s):
            raise ShapeError(f"base_rank {base_rank} outside 0..{len(s)}")
        return float(np.sum(s[base_rank:]))
    scale = max(1.0, s[0]) if len(s) else 1.0
    bottom = cluster_blocks(s, tols.cluster * scale)[-1]
    return float(np.sum(s[bottom[0]:]))


def _like(A, X, name):
    """A as a finite matrix of X's shape."""
    A = as_matrix(A, name)
    if A.shape != X.shape:
        raise ShapeError(f"{name} {A.shape} and X {X.shape} differ")
    return A


def _psi_blocks(X, tols):
    svd = svd_ordered(X)
    part = partition_of(svd, tols)
    if part.r >= part.n:
        raise FullRank("rank(X) = n: the zero block is empty")
    return svd, part


def _psi_epi_term(Z, Hhat, sigma_a):
    """Second epi-derivative of the zero-cluster sum for the subgradient
    U_bh Z V_b^T, read from Hhat = U^T H V with sigma_a the r positive
    values: -2 <Z, (U^T H V_a Sigma_a^{-1} U_a^T H V)_bb> when the
    first-order identity psi'(X; H) = ||Hhat_bb||_* = <Z, Hhat_bb> holds,
    +inf otherwise."""
    r = len(sigma_a)
    Hbb = Hhat[r:, r:]
    dpsi = float(np.sum(np.linalg.svd(Hbb, compute_uv=False)))
    ctol = CONE_TOL * (1.0 + np.linalg.norm(Z) * np.linalg.norm(Hhat))
    if abs(dpsi - float(np.sum(Z * Hbb))) > ctol:
        return INF
    if r == 0:
        return 0.0
    return -2.0 * float(np.sum(Z * cross_term_hat(
        Hhat, sigma_a, slice(r, None), slice(r, None))))


def nuclear_psi_subderivative(X, H, tols=TOLERANCES):
    """Directional derivative of the zero-cluster sum at rank-deficient X:
    the nuclear norm of the reduced block U_bh^T H V_b."""
    X = as_matrix(X, "X")
    H = _like(H, X, "H")
    svd, part = _psi_blocks(X, tols)
    R = svd.U[:, part.betahat].T @ H @ svd.V[:, part.beta]
    return float(np.sum(np.linalg.svd(R, compute_uv=False)))


def nuclear_psi_second_epi(X, Omega, H, tols=TOLERANCES) -> ExtendedValue:
    """Second epi-derivative of the zero-cluster sum at X for Omega.

    Omega must be U_bh Z V_b^T with ||Z||_2 <= 1.  Equals
    -2 <Omega, H V_a Sigma_a^{-1} U_a^T H> when the first-order identity
    psi'(X; H) = <Omega, H> holds, +inf otherwise.
    """
    X = as_matrix(X, "X")
    H = _like(H, X, "H")
    Omega = _like(Omega, X, "Omega")
    svd, part = _psi_blocks(X, tols)
    r = part.r
    Ub, Vb = svd.U[:, r:], svd.V[:, r:]
    Z = Ub.T @ Omega @ Vb
    tol = GAUGE_TOL * max(1.0, np.linalg.norm(Omega))
    # formed in X's space: O(mn(n - r)) flops, not a full U^T Omega V
    resid = np.linalg.norm(Omega - Ub @ Z @ Vb.T)
    if resid > tol:
        raise NotInRegularSubdiff(
            f"Omega has {resid:.3e} energy outside the zero-block range")
    svals = np.linalg.svd(Z, compute_uv=False)
    if svals[0] > 1.0 + tol:
        raise NotInRegularSubdiff(
            f"largest singular value of the reduced block is {svals[0]:.6g}")
    return _psi_epi_term(Z, svd.U.T @ H @ svd.V, svd.sigma[:r])


def nuclear_phi_second_diff(X, H, tols=TOLERANCES):
    """Second derivative of the top-r singular value sum along H.

    The alpha contraction at unit weights, 2 sum_a tr G_a; smooth in a
    neighborhood of X because the r-th and (r+1)-th values stay apart.
    """
    svd, part, Hhat = _prepared(X, H, tols)
    if part.r == 0:
        raise RankZero("X has rank 0")
    tables = divided_differences(svd.sigma, part)
    return float(alpha_terms(Hhat[None], tables, 1.0)[0])


def nuclear_second_epi(X, Omega, H, tols=TOLERANCES) -> ExtendedValue:
    """Second epi-derivative of the nuclear norm at X for Omega, read from
    ``SpectralPoint(l1_spec(), X, Omega)``: the top-r term plus the
    zero-cluster term at Z, for Omega = U_a V_a^T + U_bh Z V_b^T.  An Omega
    outside the subdifferential raises ``NotASubgradient``, also when it
    cannot be aligned with X."""
    Omega = _like(Omega, as_matrix(X, "X"), "Omega")
    try:
        point = SpectralPoint(l1_spec(), X, Omega, tols)
    except NoSimultaneousGauge as exc:
        raise NotASubgradient(f"Omega is not a subgradient: {exc}") from exc
    return point.second_subderivative(H).value


# -- invariant sets ------------------------------------------------------------

@dataclass(frozen=True)
class InvariantSetSpec:
    """An absolutely symmetric set described by membership / projection /
    tangency hooks on the singular-value side."""

    name: str
    contains: Callable
    tangent_contains: Callable
    tangent2_contains: Callable
    project: Optional[Callable] = None


def spectral_ball_set(radius=1.0) -> InvariantSetSpec:
    """The box {x : max |x_i| <= radius} (spectral-norm ball on sigma)."""
    if not (radius > 0):
        raise ShapeError("radius must be positive")

    def contains(x):
        return bool(np.max(np.abs(_as_vector(x)), initial=0.0)
                    <= radius + SET_TOL)

    def tangent(x, w):
        x, w = _as_vector(x), _as_vector(w, "w")
        hi = x >= radius - SET_TOL
        lo = x <= -radius + SET_TOL
        return bool(np.all(w[hi] <= SET_TOL) and np.all(w[lo] >= -SET_TOL))

    def tangent2(x, w, u):
        x, w, u = _as_vector(x), _as_vector(w, "w"), _as_vector(u, "u")
        if not tangent(x, w):
            return False
        hi = (x >= radius - SET_TOL) & (np.abs(w) <= SET_TOL)
        lo = (x <= -radius + SET_TOL) & (np.abs(w) <= SET_TOL)
        return bool(np.all(u[hi] <= SET_TOL) and np.all(u[lo] >= -SET_TOL))

    return InvariantSetSpec(
        name=f"spectral-ball:{radius:g}", contains=contains,
        tangent_contains=tangent, tangent2_contains=tangent2,
        project=lambda x: np.clip(_as_vector(x), -radius, radius))


def zero_set() -> InvariantSetSpec:
    def near_zero(v):
        return bool(np.max(np.abs(_as_vector(v)), initial=0.0) <= SET_TOL)

    return InvariantSetSpec(
        name="zero", contains=near_zero,
        tangent_contains=lambda x, w: near_zero(w),
        tangent2_contains=lambda x, w, u: near_zero(w) and near_zero(u),
        project=lambda x: np.zeros_like(_as_vector(x)))


def free_set() -> InvariantSetSpec:
    return InvariantSetSpec(
        name="free", contains=lambda x: True,
        tangent_contains=lambda x, w: True,
        tangent2_contains=lambda x, w, u: True,
        project=lambda x: _as_vector(x).copy())


def set_by_name(name: str) -> InvariantSetSpec:
    """Resolve "spectral-ball:R", "zero" or "free"."""
    if name == "zero":
        return zero_set()
    if name == "free":
        return free_set()
    if name.startswith("spectral-ball:"):
        radius = name.split(":", 1)[1]
        try:
            radius = float(radius)
        except ValueError:
            raise ShapeError(f"radius {radius!r} is not a number") from None
        return spectral_ball_set(radius)
    raise ShapeError(f"unknown invariant set {name!r}")


def invariant_tangent_contains(delta: InvariantSetSpec, X, H, order=1,
                               W=None, tols=TOLERANCES) -> bool:
    """Tangency through the singular value map: first order tests
    sigma'(X;H), second order tests sigma''(X;H,W)."""
    X = as_matrix(X, "X")
    blocks = direction_blocks(X, H, None, tols)
    sx = blocks.gauge.sigma
    if not delta.contains(sx):
        raise NotInSet(f"sigma(X) is not in {delta.name}")
    d1 = sigma_dir1_from_blocks(blocks)
    if order == 1:
        return bool(delta.tangent_contains(sx, d1))
    if order != 2:
        raise ShapeError("order must be 1 or 2")
    if not delta.tangent_contains(sx, d1):
        raise NotInSet("H is not first-order tangent; second-order set "
                       "undefined")
    W = np.zeros_like(X) if W is None else as_matrix(W, "W")
    d2 = sigma_dir2_from_blocks(blocks, W)
    return bool(delta.tangent2_contains(sx, d1, d2))


def invariant_set_distance(delta: InvariantSetSpec, X):
    """Distance to the orthogonally invariant set sigma^{-1}(delta) and
    the nearest point, via projection of the singular values."""
    if delta.project is None:
        raise ProjectionUnavailable(f"{delta.name} has no projection hook")
    svd = svd_ordered(X)
    m, n = svd.shape
    p = np.asarray(delta.project(svd.sigma), dtype=float)
    # any absolutely symmetric set contains the sorted absolute value of
    # each member, and sorting can only decrease the distance to sigma(X)
    p = np.sort(np.abs(p))[::-1]
    distance = float(np.linalg.norm(svd.sigma - p))
    nearest = svd.U[:, :n] @ (p[:, None] * svd.V.T)
    return distance, nearest


# -- oracle guidance -----------------------------------------------------------

def guided_offsets(X, H, tols=TOLERANCES):
    """Offset matrices D for liminf oracles: candidate minimizing
    perturbations w' = H + tau * D of the second-order quotients.

    The first offset steers the zero block along the cross term that the
    epi-limit construction uses; the second is half the direction that
    cancels all second-order terms (the zero-target minimizing parabola).
    Both come from one reduced-block build of (X, H).
    """
    blocks = direction_blocks(X, H, None, tols)
    svd, r = blocks.gauge, blocks.part.r
    out = []
    if r > 0:
        out.append(svd.U @ cross_term_hat(blocks.Hhat, svd.sigma[:r])
                   @ svd.V.T)
    out.append(0.5 * min_direction_from_blocks(blocks,
                                               np.zeros(blocks.part.n)))
    return out
