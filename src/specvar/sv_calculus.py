"""First- and second-order directional derivatives of singular values.

Everything here is driven by the block structure that a direction H
induces on top of the multiplicity structure of X: inside each block of
equal singular values the first-order behaviour is an eigenvalue problem
for the reduced symmetric block, and across blocks the second-order
behaviour picks up a resolvent correction: a masked divided-difference
(Loewner) form in Hhat = U^T H V whose point-only tables are the one
``DividedDifferences`` of X, the ``tables`` of its partition.  Zero
singular values behave like a reduced rectangular SVD problem instead.
sigma' has one code, ``sigma_dir1_stack``.  ``DirectionBlocks`` is the
one record of that structure per (X, H) that the sigma'' and W-hat
kernels read; it is internal, not a ``specvar`` name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AsymmetricInput,
    NonFinite,
    NotBlockSorted,
    ShapeError,
)
from .matrix_core import (
    BLOCK_SORT_TOL,
    SYMMETRY_TOL,
    TOLERANCES,
    SingularPartition,
    SvdDecomposition,
    _fix_signs,
    _LastCall,
    _level_starts,
    _read_only,
    _value_blocks,
    as_matrix,
    as_real,
    cluster_ranks,
    partition_of,
    size_classes,
    svd_ordered,
    sym_eig_ordered,
)


@dataclass(frozen=True)
class BetaBlock:
    """The thin SVD R = Q diag(sigma(R)) Qhat^T of the zero block R =
    Hhat[r:, r:] (sigma(R) is sigma'(X; H)[r:] to rounding), with its
    ``zeros`` values sigma(R) ~ 0 last."""

    Q: np.ndarray            # thin left singular vectors of R, (m-r) x (n-r)
    Qhat: np.ndarray         # right orthogonal factor, (n-r) x (n-r)
    zeros: int               # count of sigma(R) ~ 0, the zero-value group


@dataclass(frozen=True)
class DirectionBlocks:
    """The reduced structure of a pair (X, H) in a fixed SVD gauge, the
    one record the sigma'' and W-hat kernels read: Hhat, its sigma' row
    ``d1``, and built on their first use the levels, in which each size
    class of alpha blocks stacks its reduced eigenvectors and every
    second-level group is a run of ``ltilde`` that starts at 1 (the zero
    block's groups are cut on ``d1``'s own values).  The point's divided
    differences are ``part.tables``."""

    gauge: SvdDecomposition
    part: SingularPartition
    Hhat: np.ndarray         # U^T H V in the gauge, m x n

    @property
    def shape(self):
        return self.gauge.shape

    # the levels: per size k the (b, k) indices and (b, k, k) Q, the zero
    # block's BetaBlock (None at full rank), the 1-based ranks
    classes = property(lambda self: self._levels[0])
    beta = property(lambda self: self._levels[1])
    ltilde = property(lambda self: self._levels[2])

    @cached_property
    def d1(self):
        """sigma'(X; H), the ``sigma_dir1_stack`` row of Hhat, read-only,
        built once."""
        return _read_only(sigma_dir1_stack(self.Hhat[None], self.part)[0])

    @cached_property
    def _levels(self):
        """(classes, beta, ltilde), read-only, built once: the reduced eigh
        of each size class and the thin SVD of R = Hhat[r:, r:], whose
        groups and zero count are the partition rule of ``d1[r:]``."""
        part, Hhat, tols = self.part, self.Hhat, self.part.tols
        n = part.n
        eta, ltilde = np.zeros(n), np.zeros(n, dtype=int)
        classes = []
        for idx in part.classes:
            Q, eta[idx], ltilde[idx] = _reduced_eig(
                _sym(_blocks_of(Hhat, idx)), tols)
            classes.append((idx, Q))
        _finite_rows(eta[:part.r], "reduced eigenvalue of H")

        beta = None
        if part.r < n:
            # thin: no formula reads the complement of R's left factor
            Q, s, Qhat_t = np.linalg.svd(Hhat[part.r:, part.r:],
                                         full_matrices=False)
            Q, Qhat = _fix_signs(Q, Qhat_t.T)
            _finite_rows(s, "singular value of the zero block of H")
            rank, _, ltilde[part.r:] = _value_blocks(self.d1[part.r:], tols)
            beta = BetaBlock(Q=Q, Qhat=Qhat, zeros=n - part.r - rank)
        return _read_only((tuple(classes), beta, ltilde))

    @cached_property
    def quadratics(self):
        """The (b, k, k) alpha quadratics G_a of every size class,
        read-only, built once for sigma'' and W-hat: with Sym, Skw the
        symmetric and skew parts of Hhat[:n], T = Hhat[n:] and _a the
        block's columns (of ``part.tables`` too), G_a = Sym_a^T (D_a *
        Sym_a) + Skw_a^T (E_a * Skw_a) + T_a^T T_a / (2 mu)."""
        return _read_only(tuple(_class_quadratics(self.Hhat, self.part)))


def _blocks_of(M, idx):
    """The (b, k, k) diagonal blocks of M on the rows of a (b, k) index
    array (over M's last two axes)."""
    return M[..., idx[:, :, None], idx[:, None, :]]


def _reduced_eig(S, tols):
    """Ordered eigenvectors, eigenvalues and 1-based second-level ranks of
    a (b, k, k) stack of reduced symmetric blocks: one eigh (none for
    k = 1) and one clustering pass (each row at max(1, |eta|) scale) for
    the stack."""
    eig = sym_eig_ordered(S)
    scale = np.maximum(1.0, np.abs(eig.lam).max(axis=1))
    return eig.Q, eig.lam, cluster_ranks(eig.lam, tols.cluster * scale)


def _group_eigvals(B, ranks):
    """Nonincreasing eigenvalues of every (b, k, k) stacked B on its
    second-level groups (the runs of the (b, k) ``ranks`` that start at
    1): the diagonal on singleton groups, one eigvalsh per larger size."""
    out = B.diagonal(axis1=-2, axis2=-1).copy()
    start = np.flatnonzero(ranks.ravel() == 1)      # every row starts a run
    size = np.diff(start, append=ranks.size)
    for g in np.unique(size[size > 1]).tolist():
        rows, first = np.divmod(start[size == g], ranks.shape[1])
        cols = first[:, None] + np.arange(g)
        sub = B[rows[:, None, None], cols[:, :, None], cols[:, None, :]]
        out[rows[:, None], cols] = np.linalg.eigvalsh(sub)[:, ::-1]
    return out


def _sym_skw(A):
    """Symmetric and skew parts over A's last two axes, halved first: the
    same floats, but no overflow near float max."""
    At = np.swapaxes(A, -1, -2)
    return 0.5 * A + 0.5 * At, 0.5 * A - 0.5 * At


def _sym(A):
    """The symmetric part of ``_sym_skw`` alone."""
    return 0.5 * A + 0.5 * np.swapaxes(A, -1, -2)


def _prepared(X, H, tols=TOLERANCES, stack=False):
    """(svd_ordered(X), partition, U^T H V) of a matrix X and a direction H
    of its shape, or with ``stack`` a (k, m, n) stack of them (one H
    becoming a stack of one)."""
    X = as_matrix(X)
    H = as_matrix(H, "H", X, stack=stack)
    svd = svd_ordered(X)
    return svd, partition_of(svd, tols), svd.U.T @ H @ svd.V


def sigma_dir1_stack(Hhat, part: SingularPartition):
    """sigma'(X; H) for every H of a (k, m, n) stack Hhat = U^T H V, as
    in ``sigma_dir1`` (overflow raises ``NonFinite``): a singleton block
    reads diag(Hhat), each larger block size takes one stacked eigvalsh."""
    d1 = Hhat.diagonal(axis1=1, axis2=2).copy()
    for idx in part.classes:
        if idx.shape[1] > 1:
            d1[:, idx] = np.linalg.eigvalsh(
                _sym(_blocks_of(Hhat, idx)))[..., ::-1]
    if part.r < part.n:
        d1[:, part.r:] = np.linalg.svd(Hhat[:, part.r:, part.r:],
                                       compute_uv=False)
    return _finite_rows(d1, "sigma' of H")


def _finite_rows(values, term):
    """A second-order term of any shape, finite for finite H: overflow
    raises, naming the first bad row (index along the first axis)."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise NonFinite(f"{term} (row {np.nonzero(bad)[0][0]}) overflows")
    return values


def alpha_terms(Hhat, part: SingularPartition, w):
    """2 sum_i w_i (G_a)_ii, G_a as in ``DirectionBlocks.quadratics``, for
    every H of a (k, m, n) stack Hhat; overflow raises ``NonFinite``.  It
    never warns: each public caller warns once for the gap tables."""
    dd, n, r = part.tables, part.n, part.r
    Sym, Skw = _sym_skw(Hhat[:, :n])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = 2.0 * (np.einsum("kji,ji->k", Sym[:, :, :r] ** 2, dd.D * w)
                       + np.einsum("kji,ji->k", Skw[:, :, :r] ** 2, dd.E * w)
                       + np.einsum("kci,i->k", Hhat[:, n:, :r] ** 2, dd.C * w))
    return _finite_rows(terms, "alpha term of H")


_LAST_BLOCKS = _LastCall()


def direction_blocks(X, H, gauge=None, tols=TOLERANCES) -> DirectionBlocks:
    """Compute the per-direction reduced blocks of (X, H).

    ``gauge`` may supply a specific ordered SVD of X (any valid one); by
    default the deterministic ``svd_ordered`` gauge is used.  All outputs
    of ``sigma_dir1``/``sigma_dir2`` are invariant under this choice.
    Building forms Hhat only; on first sigma'' or W-hat use the alpha
    blocks of one size share one stacked eigh and one clustering pass (a
    singleton's eigenpair is its entry and 1), so the cost grows with the
    number of block sizes, not of blocks.  Without ``gauge`` the
    partition (with its tables) is the one kept with ``svd_ordered(X)``,
    shared with d2F at X, and the last result is kept: bitwise-equal X,
    H and ``tols`` get the same read-only blocks back, and a hit
    decomposes nothing; a ``gauge`` builds its own.
    Building never warns: a small gap warns where a second-order output
    reads the gap tables.
    """
    X = as_matrix(X)
    H = as_matrix(H, "H", X)
    if gauge is not None:
        return _direction_blocks(gauge, H, tols)
    return _blocks_at(X, H, tols)


def _blocks_at(X, H, tols):
    """``direction_blocks`` in the ``svd_ordered`` gauge for X and H its
    caller has checked."""
    key = (X.shape, X.tobytes(), H.tobytes(), tols)
    return _LAST_BLOCKS.get(key, lambda: _read_only(   # a hit: no SVD
        _direction_blocks(svd_ordered(X), H, tols)))


def _direction_blocks(svd, H, tols):
    return DirectionBlocks(gauge=svd, part=partition_of(svd, tols),
                           Hhat=svd.U.T @ H @ svd.V)


def _class_quadratics(Hhat, part: SingularPartition):
    """The (..., b, k, k) stack of alpha quadratics G_a of every size class
    of ``part`` for Hhat = U^T H V with any leading axes; overflow raises
    ``NonFinite``.  It never warns: each caller warns for the gap tables
    it reads."""
    dd, n = part.tables, part.n
    Sym, Skw = _sym_skw(Hhat[..., :n, :])
    out = []
    for idx in part.classes:
        Sa, Ka, Ta, Da, Ea = (np.moveaxis(A[..., idx], -3, -2) for A in (
            Sym, Skw, Hhat[..., n:, :], dd.D, dd.E))
        with np.errstate(over="ignore", invalid="ignore"):
            G = (Sa.mT @ (Sa * Da) + Ka.mT @ (Ka * Ea)
                 + dd.C[idx][:, None, :] * (Ta.mT @ Ta))
        out.append(_finite_rows(G, "alpha quadratic of H"))
    return out


def cross_term_hat(Hhat, sigma_a, rows=slice(None), cols=slice(None)):
    """U^T (H V_a Sigma_a^{-1} U_a^T H) V on (rows, cols), read from
    Hhat = U^T H V (any leading axes) with sigma_a the r positive singular
    values: U^T H V_a = Hhat[:, :r] and U_a^T H V = Hhat[:r, :]; overflow
    raises ``NonFinite``."""
    r = len(sigma_a)
    with np.errstate(over="ignore", invalid="ignore"):
        C = (Hhat[..., rows, :r] / sigma_a) @ Hhat[..., :r, cols]
    return _finite_rows(C, "cross term of H")


def sigma_dir2_from_blocks(blocks: DirectionBlocks, W):
    """Second directional derivative of every singular value along (H, W),
    H being the direction ``blocks`` was built from (through Hhat)."""
    W = as_matrix(W, "W", blocks.Hhat)
    svd = blocks.gauge
    What = svd.U.T @ W @ svd.V
    out = np.zeros(blocks.part.n)
    blocks.part.tables.warn()
    for (idx, Q), G in zip(blocks.classes, blocks.quadratics):
        with np.errstate(over="ignore"):
            M = _sym(_blocks_of(What, idx)) + 2.0 * G
        M = _finite_rows(M, "second-order block of (H, W)")
        out[idx] = _group_eigvals(Q.mT @ M @ Q, blocks.ltilde[idx])
    bb = blocks.beta
    if bb is not None:
        r, n = blocks.part.r, blocks.part.n
        # the part of the reduced direction that H induces on its own:
        # -2 U_bh^T H V_a Sigma_a^{-1} U_a^T H V_b
        with np.errstate(over="ignore"):
            C = What[r:, r:] - 2.0 * cross_term_hat(
                blocks.Hhat, svd.sigma[:r], slice(r, None), slice(r, n))
        C = _finite_rows(C, "second-order block of (H, W)")
        p = n - r - bb.zeros   # the positive groups come first
        Qp = bb.Q[:, :p]
        D = _sym(Qp.T @ C @ bb.Qhat[:, :p])
        out[r:r + p] = _group_eigvals(D[None], blocks.ltilde[None, r:r + p])[0]
        if bb.zeros:
            # C Qhat_z off the positive groups' left vectors has the
            # singular values of its compression to their complement
            Dz = C @ bb.Qhat[:, p:]
            out[r + p:] = np.linalg.svd(Dz - Qp @ (Qp.T @ Dz),
                                        compute_uv=False)
    return out


def sigma_dir1(X, H, tols=TOLERANCES):
    """sigma'(X; H): directional derivatives of all singular values.

    Component s in an equal-value block equals the matching ordered
    eigenvalue of the symmetrized reduced block; for zero singular
    values it equals the matching singular value of the reduced
    rectangular block.  Gauge-invariant and positively homogeneous in H.
    """
    return direction_blocks(X, H, None, tols).d1.copy()


def sigma_dir2(X, H, W, tols=TOLERANCES):
    """sigma''(X; H, W): parabolic second directional derivatives.

    W = 0 is a first-class input; it gives the curvature of the
    singular-value map along the straight line X + tH.
    """
    return sigma_dir2_from_blocks(direction_blocks(X, H, None, tols), W)


def eig_expand2(A, E, tols=TOLERANCES):
    """Two-term expansion of every eigenvalue of A along A + tau E.

    Returns (first, second) with lambda_s(A + tau E) = lambda_s(A) +
    tau * first_s + tau^2/2 * second_s + O(tau^3).  A and E must be
    symmetric; asymmetry beyond SYMMETRY_TOL * max(1, ||.||) is rejected.
    A first- or second-order term that overflows raises ``NonFinite``.
    """
    A = as_matrix(A, "A")
    E = as_matrix(E, "E", A, like_name="A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A {A.shape} must be square")
    for M, name in ((A, "A"), (E, "E")):
        # dev > SYMMETRY_TOL max(1, ||M||), read on M / max|M|, whose
        # norms cannot overflow (1 / max|M| is inf for M = 0)
        top = np.max(np.abs(M), initial=0.0)
        unit = M / top if top > 0 else M
        dev = np.linalg.norm(unit - unit.T)
        with np.errstate(divide="ignore", over="ignore"):
            if dev > SYMMETRY_TOL * max(1.0 / top, np.linalg.norm(unit)):
                raise AsymmetricInput(
                    f"{name} deviates from symmetry by {top * dev:.3e}")
    n = A.shape[0]
    eig = sym_eig_ordered(A)
    starts = np.array(_level_starts(eig.lam, tols), dtype=int)
    Ehat = eig.Q.T @ E @ eig.Q
    first = np.zeros(n)
    second = np.zeros(n)
    for idx in size_classes(starts, np.diff(starts, append=n)):
        gap = eig.lam[idx[:, :1]] - eig.lam            # (b, n)
        np.put_along_axis(gap, idx, np.inf, axis=1)
        K = np.moveaxis(Ehat[:, idx], 0, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            M2 = K.mT @ (K / gap[:, :, None])
        M2 = _finite_rows(M2, "resolvent term of E")
        Q, first[idx], ranks = _reduced_eig(_blocks_of(Ehat, idx), tols)
        _finite_rows(first[idx], "first-order term of E")
        second[idx] = _group_eigvals(2.0 * (Q.mT @ M2 @ Q), ranks)
    return first, second


def expansion_residual(X, H, W, t, tols=TOLERANCES):
    """sigma(X + tH + t^2 W/2) minus its two-term prediction.

    The prediction is sigma(X) + t sigma'(X;H) + t^2/2 sigma''(X;H,W);
    the residual is o(t^2) (O(t^3) in exact arithmetic).
    """
    t = as_real(t, "t")
    X = as_matrix(X, "X")
    H = as_matrix(H, "H", X)
    blocks = _blocks_at(X, H, tols)
    d1, d2 = blocks.d1, sigma_dir2_from_blocks(blocks, W)
    s_t = np.linalg.svd(X + t * H + 0.5 * t * t * np.asarray(W),
                        compute_uv=False)
    return s_t - (blocks.gauge.sigma + t * d1 + 0.5 * t * t * d2)


def _check_block_sorted(zbar, blocks: DirectionBlocks, tol):
    r, n, bb = blocks.part.r, blocks.part.n, blocks.beta
    # a rise into an index that continues its second-level group
    rise = np.flatnonzero((np.diff(zbar) > tol) & (blocks.ltilde[1:] > 1))
    zero = n - (bb.zeros if bb is not None else 0)
    if len(rise):
        level = ("an alpha-level" if rise[0] < r else
                 "a beta-level" if rise[0] < zero else "the zero-value")
        raise NotBlockSorted(f"zbar not nonincreasing inside {level} group")
    if np.any(zbar[zero:] < -tol):
        # second derivatives of identically-zero singular values are
        # singular values of a reduced block, hence never negative
        raise NotBlockSorted(
            "zbar negative on the zero-value group; unreachable target")


def min_direction_construct(X, H, zbar, tols=TOLERANCES):
    """Build W-hat with sigma''(X; H, W-hat) equal to a sorted target.

    ``zbar`` must be nonincreasing inside every second-level group of
    direction_blocks(X, H) (and nonnegative on the zero-value group).
    The construction cancels the resolvent term of each alpha block and
    the cross term of the beta block, then plants the target values via
    the second-level eigenvector/singular-vector bases.
    """
    blocks = direction_blocks(X, H, None, tols)
    zbar = as_matrix(zbar, "zbar", blocks.gauge.sigma, like_name="sigma(X)")
    _check_block_sorted(zbar, blocks, BLOCK_SORT_TOL * max(
        1.0, np.max(np.abs(zbar), initial=0.0)))
    svd, part = blocks.gauge, blocks.part
    planted = [Q @ (zbar[idx][:, :, None] * Q.mT)
               for idx, Q in blocks.classes]
    if blocks.beta is not None:
        planted.append((blocks.beta.Q * zbar[part.r:]) @ blocks.beta.Qhat.T)
    part.tables.warn()
    return svd.U @ _cancelling_direction(
        blocks.Hhat, part, blocks.quadratics, planted) @ svd.V.T


def _cancelling_direction(Hhat, part: SingularPartition, quads,
                          planted=None):
    """The reduced direction U^T W V that cancels the resolvent term of
    every alpha block (``quads`` the ``_class_quadratics`` of ``part``'s
    size classes) and the cross term of the beta block, for Hhat = U^T H V
    with any leading axes, plus the ``planted`` target terms: one per
    class, then one for the beta block (all zero by default, the
    zero-target direction).  Overflow raises ``NonFinite``."""
    r, n = part.r, part.n
    if planted is None:
        planted = [0.0] * (len(part.classes) + 1)
    Wred = np.zeros(Hhat.shape)
    with np.errstate(over="ignore"):
        for idx, A, G in zip(part.classes, planted, quads):
            Wred[..., idx[:, :, None], idx[:, None, :]] = A - 2.0 * G
        if r < n:   # cancels sigma'''s beta cross term, -2 times this
            Wred[..., r:, r:] = planted[-1] + 2.0 * cross_term_hat(
                Hhat, part.values[:r], slice(r, None), slice(r, n))
    return _finite_rows(Wred, "reduced direction of H")
