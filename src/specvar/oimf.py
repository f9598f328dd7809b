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
                    _stacked, critical, l1_spec)
from .errors import (
    AssumptionViolated,
    FullRank,
    NonFinite,
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
    _block_bounds,
    _run_starts,
    _svd,
    as_count,
    as_matrix,
    partition_of,
    require_tall,
    svd_ordered,
    sym_eig_ordered,
)
from .sv_calculus import (
    _blocks_of,
    _cancelling_direction,
    _class_quadratics,
    _finite_rows,
    _prepared,
    alpha_terms,
    cross_term_hat,
    direction_blocks,
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
    Y = as_matrix(Y, "Y", X)
    svd = svd_ordered(X)
    part = partition_of(svd, tols)
    m, n = svd.shape
    U, V = svd.U.copy(), svd.V.copy()
    M = U.T @ Y @ V
    with np.errstate(over="ignore"):
        tol = GAUGE_TOL * np.linalg.norm(Y)
    if not tol < INF:
        raise NonFinite("||Y||^2 overflows: Y too large to test")

    # block number of every column, t on the zero block and rows past n
    rows = np.concatenate([part.owner, np.full(m - n, part.t)])
    off = np.linalg.norm(M[rows[:, None] != part.owner])

    sy = np.zeros(n)
    asym = 0.0
    for idx in part.classes:
        Mb = _blocks_of(M, idx)
        eig = sym_eig_ordered(Mb)   # a singleton: its entry, eigenvector 1
        sy[idx] = eig.lam
        if idx.shape[1] > 1:        # a singleton is symmetric and unrotated
            asym = max(asym, np.linalg.norm(Mb - Mb.mT, axis=(1, 2)).max())
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
    """``_align`` plus f's violation of sy at sigma(X), read once Y aligns
    (sy is sigma(Y) only then): (gauge, part, sy, residual, member,
    message), Y in dF(X) iff the residual is within tol = GAUGE_TOL ||Y||."""
    gauge, part, sy, residual, tol, message = _align(X, Y, tols)
    if message is None:
        residual = max(residual, f.subdiff_violation(part.snapped, sy))
    return gauge, part, sy, residual, bool(residual <= tol), message


def _duality_gaps(f: SpectralFunctionSpec, gauge, part, Y, Hs):
    """The one cone pass at (X, Y) over a (k, m, n) stack: Hhat = U^T H V
    in the aligned gauge, sigma'(X; H), the gaps dF(X)(H) - <Y, H>, the
    thresholds CONE_TOL (1 + ||Y|| ||H||) and the critical rows, for a
    checked stack.  A row whose threshold overflows or whose gap is NaN
    raises ``NonFinite``."""
    k = len(Hs)
    flat = Hs.reshape(k, Y.size)
    Hhat = gauge.U.T @ Hs @ gauge.V
    d1 = sigma_dir1_stack(Hhat, part)
    dF = _stacked(f.subderivative(part.snapped, d1), k, "f.subderivative")
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = dF - (flat * Y.ravel()).sum(axis=1)
        tols = CONE_TOL * (1.0 + np.linalg.norm(Y) * np.sqrt(
            np.vecdot(flat, flat)))   # a dot per row: np.linalg.norm, bitwise
    _finite_rows(np.where(np.isnan(gaps), gaps, tols), "duality gap of H")
    return Hhat, d1, gaps, tols, np.abs(gaps) <= tols


@dataclass(frozen=True)
class _Subspace:
    """A subspace of directions H read through Hhat = U^T H V in an
    aligned gauge; called on a (k, m, n) stack of Hhat it returns their
    orthogonal projections, each row bitwise that of the row alone.

    Entries outside the listed diagonal blocks stay.  A block (lo, hi,
    skew, traceless, levels, null) on indices lo:hi keeps the skew part
    of Hhat's square block if ``skew``, the traceless symmetric part of
    each ``traceless`` range and, on the diagonal, the mean of each
    ``levels`` range (ranges relative to lo); the rest of the block is
    zero.  ``null`` is None on an alpha block.  On the zero block it
    starts the columns kept whole with their rows lo:m, and the rows past
    n vanish on the columns before it."""

    n: int
    blocks: tuple

    @property
    def zero(self):
        """Whether this is {0}, a zero block over all n that keeps nothing."""
        return self.blocks == ((0, self.n, False, (), (), self.n),)

    def __call__(self, Hhat):
        out = Hhat.copy()
        for lo, hi, skew, traceless, levels, null in self.blocks:
            B = Hhat[:, lo:hi, lo:hi]
            sym = 0.5 * (B + B.mT)
            new = B - sym if skew else np.zeros_like(B)
            diag = np.diagonal(sym, axis1=1, axis2=2)
            shift = np.zeros_like(diag)

            def mean(a, b):   # contiguous rows: each row sums alone
                return np.ascontiguousarray(diag[:, a:b]).sum(
                    axis=1, keepdims=True) / (b - a)

            for a, b in traceless:
                new[:, a:b, a:b] += sym[:, a:b, a:b]
                shift[:, a:b] -= mean(a, b)
            for a, b in levels:
                shift[:, a:b] += mean(a, b)
            at = np.arange(hi - lo)
            new[:, at, at] += shift
            if null is not None:
                new[:, null:, null:] = B[:, null:, null:]
                out[:, self.n:, lo:lo + null] = 0.0
            out[:, lo:hi, lo:hi] = new
        return out


def _critical_subspaces(f: SpectralFunctionSpec, part, sy):
    """The lineality space S and the span T of the critical cone K_F(X, Y),
    S <= K_F <= T, as ``_Subspace`` projections in the gauge aligning X
    and Y = U diag(sy) V^T, built per block of sigma(X)'s partition.

    On K_F, sigma'(X; H) meets the Fan (on the zero block von Neumann)
    equality against sy block by block, so inside a block the symmetric
    entries of Hhat between different weights vanish, while an alpha
    block's skew part and every entry outside the diagonal blocks are
    free.  A block's weight groups g_1 .. g_p are the runs of sy at
    GAUGE_TOL ||sy||, the ``_subgradient`` scale; on the zero block the
    weights at or below it form the last, null group, whose rows run on
    past n, and the other groups are symmetric.  The f-level cone
    K_f(sigma, sy) decides the rest, read by one stacked ``critical`` call
    at ``part.snapped`` on the prefixes s_j = 1 on g_1 .. g_j, on -s_p,
    and on s_j + z / 2 and s_{j-1} + z / 2 (s_0 = 0) for z = e_a - e_b on
    the first two indices of a group g_j of two or more.
    In T the groups between two critical prefixes share one level (the
    whole block's: s_p or -s_p), those after the last are zero, the null
    group is free where the last prefix is critical, and a group keeps its
    traceless part where one of its z probes is.  S is T on a block of
    one group (not a positive zero-block one) whose +-s_p are critical;
    with +-s_p critical it is one multiple of I on an alpha block of
    several groups (the Fan equality for H and -H), and else zero but for
    the alpha skew parts.  Exact where K_f's span and lineality are built
    from these probes, as for the sum of the k largest |x_i|, scaled; S = T
    at a Y in the relative interior of the face, {Hhat[r:, r:] = 0} for
    l1."""
    n, r = part.n, part.r
    tol = GAUGE_TOL * np.linalg.norm(sy)
    blocks, probes = [], {}
    for lo, hi in zip(np.append(part.starts, r).tolist(),
                      np.append(part.starts + part.sizes, n).tolist()):
        if lo == hi:   # no zero block
            continue
        null = lo + int(np.count_nonzero(sy[lo:hi] > tol)) if lo == r else hi
        bounds = sorted({lo + s for s in _run_starts(sy[lo:null], tol)}
                        | {null, hi})
        blocks.append((lo, hi, null, bounds))
        prefix = [np.zeros(n)]
        for j, (a, b) in enumerate(zip(bounds, bounds[1:]), 1):
            prefix.append(prefix[-1].copy())
            prefix[j][a:b] = 1.0
            probes[lo, "s", j] = prefix[j]
            if b - a > 1 and a != null:
                z = np.zeros(n)
                z[a], z[a + 1] = 0.5, -0.5
                probes[lo, "z", j] = prefix[j] + z
                probes[lo, "z0", j] = prefix[j - 1] + z
        probes[lo, "-s", len(bounds) - 1] = -prefix[-1]
    W = np.array(list(probes.values())).reshape(len(probes), n)
    ok = dict(zip(probes, critical(f, part.snapped, sy, W, CONE_TOL * (
        1.0 + np.linalg.norm(sy) * np.linalg.norm(W, axis=1))).tolist()))

    S, T = [], []
    for lo, hi, null, bounds in blocks:
        p, zero, rel = len(bounds) - 1, lo == r, [b - lo for b in bounds]
        cuts = [j for j in range(1, p) if ok[lo, "s", j]] + (
            [p] if ok[lo, "s", p] or ok[lo, "-s", p] else [])
        keep = null if zero and p in cuts else hi
        traceless = tuple((rel[j - 1], rel[j]) for j in range(1, p + 1)
                          if ok.get((lo, "z", j)) or ok.get((lo, "z0", j)))
        levels = tuple((rel[a], min(rel[b], keep - lo))
                       for a, b in zip([0] + cuts, cuts) if bounds[a] < keep)
        T.append((lo, hi, not zero, traceless, levels,
                  keep - lo if zero else None))
        lin = ok[lo, "s", p] and ok[lo, "-s", p]
        S.append(T[-1] if lin and p == 1 and (not zero or null == lo) else (
            lo, hi, not zero, (), ((0, hi - lo),) if lin and not zero else (),
            hi - lo if zero else None))

    def identity(block):
        lo, hi, skew, traceless, levels, null = block
        whole = ((0, hi - lo),)
        return null == 0 or (skew and levels == whole and (
            hi - lo == 1 or traceless == whole))

    return tuple(_Subspace(n, tuple(b for b in blocks if not identity(b)))
                 for blocks in (S, T))


# -- composite calculus --------------------------------------------------------

def _singular_values(X):
    """sigma of one tall (m, n) X, or (k, n) rows for a (k, m, n) stack
    of them, row i bitwise sigma(X[i]): one stacked SVD."""
    X = as_matrix(X, "X", ndim=None)
    if X.ndim not in (2, 3):
        raise ShapeError(f"X must be (m, n) or a (k, m, n) stack, got "
                         f"ndim={X.ndim}")
    return np.linalg.svd(require_tall(X), compute_uv=False)


def F_eval(f: SpectralFunctionSpec, X) -> ExtendedValue:
    """F(X) = f(sigma(X)); a (k, m, n) stack gives a (k,) array, entry i
    bitwise F(X[i]), from one SVD and one ``f.eval`` call."""
    return f.eval(_singular_values(X))


def F_subderivative(f: SpectralFunctionSpec, X, H,
                    tols=TOLERANCES) -> ExtendedValue:
    """Chain rule dF(X)(H) = df(sigma(X))(sigma'(X; H))."""
    if not _flags_ok(f):
        raise AssumptionViolated(
            f"{f.name}: need (lsc and convex) or Lipschitz-on-domain")
    svd, part, Hhat = _prepared(X, H, tols)
    if not math.isfinite(f.eval(svd.sigma)):
        raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
    return f.subderivative(part.snapped,
                           sigma_dir1_stack(Hhat[None], part)[0])


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
    if f.subdiff_representative is None:
        raise AssumptionViolated(
            f"{f.name}: a subgradient needs a subdiff_representative hook")
    svd = svd_ordered(X)
    m, n = svd.shape
    rep = f.subdiff_representative(partition_of(svd).snapped)
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
    H = as_matrix(H, "H", Y)
    Hhat, d1, gap, tol, member = (
        a[0] for a in _duality_gaps(f, svd, part, Y, H[None]))
    member = bool(member)
    if not diagnostics:
        return member
    # Fan / von Neumann gap of a block: sy . (sigma' - diag Hhat) on it
    excess = sy * (d1 - np.diagonal(Hhat))
    return member, {
        "member": member,
        "duality_gap": float(gap),
        "f_level_member": critical(f, part.snapped, np.sort(sy)[::-1],
                                   d1, tol),
        "fan_gaps": [float(np.sum(excess[a:a + k])) for a, k in zip(
            part.starts.tolist(), part.sizes.tolist())],
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
    that f is finite at sigma(X), and keeps the beta weights.  The
    partition is the one kept with ``svd_ordered(X)``, and its ``tables``
    are the ``DividedDifferences`` of sigma(X): after sigma' or sigma'' at
    X, neither is built again.
    The formula depends on H only through Hhat = U^T H V, so a stack of
    directions costs one batched product and the ``sv_calculus`` kernel:
    no SVD of X, no partition.
    """

    def __init__(self, f: SpectralFunctionSpec, X, Y, tols=TOLERANCES):
        self._prepare(f, X, Y, lambda X, Y: _subgradient(f, X, Y, tols))

    @classmethod
    def _from_subgradient(cls, f, X, Y, subgradient):
        """The point from the ``_subgradient`` result of (f, X, Y): one
        alignment gives ``certify`` its stationarity test and its point."""
        point = cls.__new__(cls)
        point._prepare(f, X, Y, lambda X, Y: subgradient)
        return point

    def _prepare(self, f, X, Y, subgradient):
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
        self.gauge, self.part, self.sy, _, member, message = subgradient(
            self.X, self.Y)
        if message is not None:
            raise NoSimultaneousGauge(message)
        if not member:
            raise NotASubgradient(
                "sigma(Y) is not in the subdifferential of f at sigma(X)")
        s, sy, part = self.gauge.sigma, self.sy, self.part
        if not math.isfinite(f.eval(s)):
            raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
        self._report_warns = tuple(
            f"spectral gap {g:.3e} at block value {mu:.6g}: alpha term "
            "ill-conditioned" for mu, g, w in part.tables.gaps if w)
        self._B = -2.0 * sy[part.r:, None] / s[:part.r]   # beta weights

    def second_subderivatives(self, Hs):
        """d2F(X|Y)(H) with its breakdown for each H of a (k, m, n) stack
        (one (m, n) H is a stack of one).

        ``_duality_gaps`` gives the gaps dF(X)(H) - <Y, H> in one stacked
        ``f.subderivative`` call; rows within CONE_TOL (1 + ||Y|| ||H||)
        are critical and get the alpha and beta terms and, in one stacked
        call, ``f.second_subderivative``.  Small-gap blocks warn once a
        call; an alpha or beta term that overflows raises ``NonFinite``.
        The reports are read off the arrays of one ``_terms`` call; its
        value half ``_values`` is the one ``curvature`` and ``certify``
        read, building no reports.
        """
        return self._reports(as_matrix(Hs, "H", self.X, stack=True))

    def _terms(self, Hs):
        """``second_subderivatives`` of a checked (k, m, n) stack as five
        arrays (gaps, critical, d2f, alpha, beta), entry i bitwise that
        field of row i's report (off the cone d2f = +inf and alpha = beta
        = 0); the report's value is d2f + alpha + beta where d2f is
        finite, +inf elsewhere.  The cone test ``_duality_gaps``, then
        the value half ``_values``."""
        Hhat, d1, gaps, tols, crit = _duality_gaps(self.f, self.gauge,
                                                   self.part, self.Y, Hs)
        self.part.tables.warn()
        return (gaps, crit) + self._values(Hhat, d1, tols, crit)

    def _values(self, Hhat, d1, tols, crit):
        """(d2f, alpha, beta) of the rows of Hhat = U^T H V with the
        sigma'(X; H) rows d1, cone thresholds tols and critical flags crit
        of ``_duality_gaps``: one ``f.second_subderivative`` call on the
        critical rows, the alpha and beta terms of every row (overflow
        raises ``NonFinite``), zeroed off the cone.  It never warns; its
        callers do, once."""
        f, s, sy, part = self.f, self.part.snapped, self.sy, self.part
        r, n = part.r, part.n
        d2f = np.full(len(Hhat), INF)
        if crit.any():
            d2f[crit] = _stacked(
                f.second_subderivative(s, sy, d1[crit], tols[crit]),
                crit.sum(), "f.second_subderivative")
        alpha = np.where(crit, alpha_terms(Hhat, part, sy[:r]), 0.0)
        beta = np.where(crit, _finite_rows(np.einsum(   # einsum never warns
            "kji,kij,ji->k", Hhat[:, r:n, :r], Hhat[:, :r, r:n], self._B),
            "beta term of H"), 0.0)
        return d2f, alpha, beta

    def _reports(self, Hs):
        """``second_subderivatives`` of a checked (k, m, n) stack."""
        return [SecondSubderivativeReport(
            value=v + a + b if math.isfinite(v) else INF, d2f_term=v,
            alpha_term=a, beta_term=b, critical=c, duality_gap=gap,
            warnings=self._report_warns if c else ())
            for gap, c, v, a, b in zip(
                *(term.tolist() for term in self._terms(Hs)))]

    def second_subderivative(self, H) -> SecondSubderivativeReport:
        """``second_subderivatives`` of the one direction H."""
        return self._reports(as_matrix(H, "H", self.X)[None])[0]


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
    if not math.isfinite(f.eval(blocks.gauge.sigma)):
        raise AssumptionViolated(f"{f.name} not finite at sigma(X)")
    sx, d1 = blocks.part.snapped, blocks.d1
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
    is the last block of X's partition at ``tols`` (``_block_bounds``),
    which coincides with the frozen form at the base point; n = 0 gives
    0.0.  A (k, m, n) stack gives a (k,) array, entry i bitwise the value
    at X[i].
    """
    s = _singular_values(X)
    if base_rank is not None:
        base_rank = as_count(base_rank, "base_rank")
        if base_rank > s.shape[-1]:
            raise ShapeError(f"base_rank {base_rank} outside "
                             f"0..{s.shape[-1]}")
        total = np.sum(s[..., base_rank:], axis=-1)
        return float(total) if s.ndim == 1 else total

    def bottom_sum(s):
        bounds = _block_bounds(s, tols)[1]
        return float(np.sum(s[bounds[-2]:])) if len(s) else 0.0

    if s.ndim == 2:
        return np.array([bottom_sum(row) for row in s])
    return bottom_sum(s)


def _nuclear_point(X, Omega, tols, psi=False):
    """``SpectralPoint(l1_spec(), X, Omega)`` for Omega of X's shape, an
    Omega outside the subdifferential raising ``NotASubgradient``.  With
    ``psi`` Omega is the zero-cluster part of U_a V_a^T + Omega at X of
    rank r < n (``FullRank`` otherwise), and ``NotInRegularSubdiff``."""
    X = as_matrix(X, "X")
    Omega = as_matrix(Omega, "Omega", X)
    error = NotASubgradient
    if psi:
        svd = svd_ordered(X)
        r = partition_of(svd, tols).r
        if r >= svd.shape[1]:
            raise FullRank("rank(X) = n: the zero block is empty")
        Omega = svd.U[:, :r] @ svd.V[:, :r].T + Omega
        error = NotInRegularSubdiff
    try:
        return SpectralPoint(l1_spec(), X, Omega, tols)
    except (NoSimultaneousGauge, NotASubgradient) as exc:
        raise error(f"Omega is not a subgradient: {exc}") from exc


def nuclear_psi_subderivative(X, H, tols=TOLERANCES):
    """Directional derivative of the zero-cluster sum at rank-deficient X:
    the nuclear norm of the reduced block U_bh^T H V_b, which is the sum
    of sigma'(X; H) over the zero block."""
    svd, part, Hhat = _prepared(X, H, tols)
    if part.r >= part.n:
        raise FullRank("rank(X) = n: the zero block is empty")
    return float(np.sum(sigma_dir1_stack(Hhat[None], part)[0, part.r:]))


def nuclear_psi_second_epi(X, Omega, H, tols=TOLERANCES) -> ExtendedValue:
    """Second epi-derivative of the zero-cluster sum at X for Omega.

    Omega must be U_bh Z V_b^T with ||Z||_2 <= 1, which is tested as
    Y = U_a V_a^T + Omega in the subdifferential of ||.||_* at GAUGE_TOL
    ||Y||.  The value is the beta term of d2||.||_*(X | Y)(H), -2 <Omega,
    H V_a Sigma_a^{-1} U_a^T H>, on Y's critical cone (tr Hhat_aa cancels
    in the duality gap, which is then psi'(X; H) - <Omega, H>), +inf off
    it.
    """
    H = as_matrix(H, "H", as_matrix(X, "X"))
    rep = _nuclear_point(X, Omega, tols, psi=True).second_subderivative(H)
    return rep.beta_term if rep.critical else INF


def nuclear_phi_second_diff(X, H, tols=TOLERANCES):
    """Second derivative of the top-r singular value sum along H.

    The alpha contraction at unit weights, 2 sum_a tr G_a; smooth in a
    neighborhood of X because the r-th and (r+1)-th values stay apart.
    """
    _, part, Hhat = _prepared(X, H, tols)
    if part.r == 0:
        raise RankZero("X has rank 0")
    part.tables.warn()
    return float(alpha_terms(Hhat[None], part, 1.0)[0])


def nuclear_second_epi(X, Omega, H, tols=TOLERANCES) -> ExtendedValue:
    """Second epi-derivative of the nuclear norm at X for Omega, read from
    ``SpectralPoint(l1_spec(), X, Omega)``: the top-r term plus the
    zero-cluster term at Z, for Omega = U_a V_a^T + U_bh Z V_b^T.  An Omega
    outside the subdifferential raises ``NotASubgradient``, also when it
    cannot be aligned with X."""
    return _nuclear_point(X, Omega, tols).second_subderivative(H).value


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
    return _ball(radius, f"spectral-ball:{radius:g}")


def zero_set() -> InvariantSetSpec:
    """{0}: the spectral ball's closure at radius 0."""
    return _ball(0, "zero")


def free_set() -> InvariantSetSpec:
    """All of R^n: the spectral ball at radius +inf."""
    return _ball(math.inf, "free")


def _ball(radius, name):
    """The box {x : max |x_i| <= radius} for radius in [0, +inf]."""

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
        name=name, contains=contains,
        tangent_contains=tangent, tangent2_contains=tangent2,
        project=lambda x: np.clip(_as_vector(x), -radius, radius))


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
    if as_count(order, "order", low=None) not in (1, 2):
        raise ShapeError(f"order {order!r} must be 1 or 2")
    blocks = direction_blocks(X, H, None, tols)
    sx = blocks.gauge.sigma
    if not delta.contains(sx):
        raise NotInSet(f"sigma(X) is not in {delta.name}")
    d1 = blocks.d1
    if order == 1:
        return bool(delta.tangent_contains(sx, d1))
    if not delta.tangent_contains(sx, d1):
        raise NotInSet("H is not first-order tangent; second-order set "
                       "undefined")
    W = np.zeros(blocks.shape) if W is None else W
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
    cancels all second-order terms (the zero-target minimizing parabola,
    ``_zero_target_offsets``).  H may be one (m, n) direction or a
    (k, m, n) stack, whose offsets come per H in stack order, each bitwise
    those of H alone.  One SVD of X and one batched pass serve the whole
    stack: at the zero target the direction reads only the alpha
    quadratics and the beta cross term.
    """
    svd, part, Hhat = _prepared(X, H, tols, stack=True)
    sigma_a = svd.sigma[:part.r]
    offsets = []
    if part.r > 0:
        offsets.append(svd.U @ cross_term_hat(Hhat, sigma_a) @ svd.V.T)
    part.tables.warn()
    offsets.append(_zero_target_offsets(svd, part, Hhat))
    return [D for per_H in zip(*offsets) for D in per_H]


def _zero_target_offsets(svd, part, Hhat):
    """Half the zero-target cancelling direction of every H of a stack
    Hhat = U^T H V in a gauge ``svd`` of X: a (k, m, n) stack, row i in
    the ``_prepared`` gauge bitwise the last offset ``guided_offsets``
    gives for H[i].  It never warns; its callers do, once."""
    return 0.5 * (svd.U @ _cancelling_direction(
        Hhat, part, _class_quadratics(Hhat, part)) @ svd.V.T)
