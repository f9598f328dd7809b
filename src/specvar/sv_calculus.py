"""First- and second-order directional derivatives of singular values.

Everything here is driven by the block structure that a direction H
induces on top of the multiplicity structure of X: inside each block of
equal singular values the first-order behaviour is an eigenvalue problem
for the reduced symmetric block, and across blocks the second-order
behaviour picks up a resolvent correction.  That correction is a masked
divided-difference (Loewner) form in the SVD basis: with Hhat = U^T H V
split into its symmetric and skew n x n parts and its trailing m - n
rows, block a at value mu weighs them by 1/(mu - sigma_j) (zero inside
the block), 1/(mu + sigma_j) and 1/(2 mu).  Zero singular values behave
like a reduced rectangular SVD problem instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricInput,
    ConditioningWarning,
    NotBlockSorted,
    ShapeError,
)
from .matrix_core import (
    CLUSTER_TOL,
    RANK_TOL,
    SingularPartition,
    SvdDecomposition,
    as_matrix,
    partition_of,
    partition_values,
    svd_ordered,
    sym_eig_ordered,
)

# Spectral gaps below GAP_WARN * max(1, sigma_1) trigger a
# ConditioningWarning: the formulas stay exact but float error grows
# like 1/gap.
GAP_WARN = 1e-6


@dataclass(frozen=True)
class AlphaBlock:
    """Reduced data of one equal-positive-singular-value block."""

    indices: list            # global 0-based indices into sigma, contiguous
    mu: float                # block value sigma[indices[0]]
    min_gap: float           # distance from mu to the rest of the spectrum
    S: np.ndarray            # symmetrized reduced direction block
    Q: np.ndarray            # ordered eigenvectors of S
    eta: np.ndarray          # ordered eigenvalues of S
    groups: list             # second-level index groups, local to block


@dataclass(frozen=True)
class BetaBlock:
    """Reduced data of the zero-singular-value block."""

    indices: list            # global indices r..n-1
    R: np.ndarray            # U_betahat^T H V_beta
    Q: np.ndarray            # left orthogonal factor of R, (m-r) x (m-r)
    eta: np.ndarray          # singular values of R, length n-r
    Qhat: np.ndarray         # right orthogonal factor, (n-r) x (n-r)
    groups: list             # groups of equal positive values, local
    zero_group: list         # local indices with sigma(R) ~ 0


@dataclass(frozen=True)
class DirectionBlocks:
    """All reduced blocks of a pair (X, H) in a fixed SVD gauge."""

    gauge: SvdDecomposition
    part: SingularPartition
    Hhat: np.ndarray         # U^T H V in the gauge, m x n
    alpha: list              # list of AlphaBlock
    beta: BetaBlock | None
    ltilde: np.ndarray       # 1-based second-level rank per index

    @property
    def shape(self):
        return self.gauge.shape


def _block_slice(indices):
    """Equal-value blocks are contiguous runs of indices."""
    return slice(indices[0], indices[-1] + 1)


def _reduced_eig(S, cluster_tol):
    """Ordered eigenvectors, eigenvalues and second-level tie groups of a
    reduced symmetric block; a 1 x 1 block is its own eigenpair and
    group."""
    if len(S) == 1:
        return np.ones((1, 1)), S[0].copy(), [[0]]
    eig = sym_eig_ordered(S)
    groups = partition_values(eig.lam, cluster_tol, kind="eigen").blocks
    return eig.Q, eig.lam, list(groups)


def _sym_eigvals(D):
    """Nonincreasing eigenvalues of a small symmetric matrix."""
    return D[0] if len(D) == 1 else np.linalg.eigvalsh(D)[::-1]


def direction_blocks(X, H, gauge=None, cluster_tol=CLUSTER_TOL,
                     rank_tol=RANK_TOL, part=None) -> DirectionBlocks:
    """Compute the per-direction reduced blocks of (X, H).

    ``gauge`` may supply a specific ordered SVD of X (any valid one); by
    default the deterministic ``svd_ordered`` gauge is used.  All outputs
    of ``sigma_dir1``/``sigma_dir2`` are invariant under this choice.
    A caller that already holds ``part = partition_of(gauge, cluster_tol,
    rank_tol)`` may pass it; a prepared point evaluating many directions
    then costs no SVD and no partition per direction.
    """
    X = as_matrix(X, "X")
    H = as_matrix(H, "H")
    if X.shape != H.shape:
        raise ShapeError(f"X {X.shape} and H {H.shape} differ")
    m, n = X.shape
    svd = svd_ordered(X) if gauge is None else gauge
    if part is None:
        part = partition_of(svd, cluster_tol, rank_tol)
    s = svd.sigma
    Hhat = svd.U.T @ H @ svd.V
    Sym = 0.5 * (Hhat[:n] + Hhat[:n].T)
    scale = max(1.0, s[0]) if n else 1.0

    ltilde = np.zeros(n, dtype=int)
    alpha = []
    for blk in part.alpha_blocks:
        mu = float(s[blk[0]])
        a = _block_slice(blk)
        # distance from mu to the other eigenvalues of the symmetric lift
        # [[0, X], [X^T, 0]]: sigma_j off the block, -sigma_j and 0 (m > n)
        gap = np.abs(mu - s)
        gap[a] = np.inf
        min_gap = float(min(gap.min(), mu + s[-1], mu if m > n else np.inf))
        if min_gap < GAP_WARN * scale:
            warnings.warn(
                f"spectral gap {min_gap:.3e} at block value {mu:.6g} below "
                f"{GAP_WARN * scale:.1e}; second-order output ill-conditioned",
                ConditioningWarning, stacklevel=2)
        S = Sym[a, a]
        Q, eta, groups = _reduced_eig(S, cluster_tol)
        # rank within the second-level group
        for grp in groups:
            for pos, loc in enumerate(grp):
                ltilde[blk[loc]] = pos + 1
        alpha.append(AlphaBlock(indices=list(blk), mu=mu, min_gap=min_gap,
                                S=S, Q=Q, eta=eta, groups=groups))

    beta = None
    if part.r < n:
        R = Hhat[part.r:, part.r:]
        rsvd = svd_ordered(R)
        rpart = partition_values(rsvd.sigma, cluster_tol, rank_tol)
        groups = list(rpart.alpha_blocks)
        zero_group = list(rpart.beta)
        for grp in groups + ([zero_group] if zero_group else []):
            for pos, loc in enumerate(grp):
                ltilde[part.r + loc] = pos + 1
        beta = BetaBlock(indices=list(part.beta), R=R, Q=rsvd.U,
                         eta=rsvd.sigma, Qhat=rsvd.V, groups=groups,
                         zero_group=zero_group)

    return DirectionBlocks(gauge=svd, part=part, Hhat=Hhat, alpha=alpha,
                           beta=beta, ltilde=ltilde)


def alpha_quadratics(blocks: DirectionBlocks):
    """Resolvent quadratic G_a of every alpha block, in block order.

    With A = Hhat[:n], Sym and Skw its symmetric and skew parts and
    C = Hhat[n:], block a at value mu gives
    G_a = Sym_a^T diag(1/(mu - sigma_j), 0 for j in a) Sym_a
          + Skw_a^T diag(1/(mu + sigma_j)) Skw_a + C_a^T C_a / (2 mu),
    where _a selects the block's columns.
    """
    s = blocks.gauge.sigma
    n = len(s)
    A, C = blocks.Hhat[:n], blocks.Hhat[n:]
    Sym, Skw = 0.5 * (A + A.T), 0.5 * (A - A.T)
    out = []
    for ab in blocks.alpha:
        a = _block_slice(ab.indices)
        gap = ab.mu - s
        gap[a] = np.inf
        Sa, Ka, Ca = Sym[:, a], Skw[:, a], C[:, a]
        out.append(Sa.T @ (Sa / gap[:, None])
                   + Ka.T @ (Ka / (ab.mu + s)[:, None])
                   + Ca.T @ Ca / (2.0 * ab.mu))
    return out


def sigma_dir1_from_blocks(blocks: DirectionBlocks):
    """First directional derivative of every singular value."""
    n = blocks.shape[1]
    out = np.zeros(n)
    for ab in blocks.alpha:
        out[ab.indices] = ab.eta
    if blocks.beta is not None:
        out[blocks.beta.indices] = blocks.beta.eta
    return out


def cross_term_hat(Hhat, sigma_a, rows=slice(None), cols=slice(None)):
    """U^T (H V_a Sigma_a^{-1} U_a^T H) V on (rows, cols), read from
    Hhat = U^T H V with sigma_a the r positive singular values:
    U^T H V_a = Hhat[:, :r] and U_a^T H V = Hhat[:r, :]."""
    r = len(sigma_a)
    return (Hhat[rows, :r] / sigma_a) @ Hhat[:r, cols]


def _beta_cross_term(blocks: DirectionBlocks):
    """-2 U_bh^T H V_alpha Sigma_alpha^{-1} U_alpha^T H V_beta (the part
    of the reduced second-order direction that H induces on its own)."""
    r, n = blocks.part.r, blocks.part.n
    return -2.0 * cross_term_hat(blocks.Hhat, blocks.gauge.sigma[:r],
                                 slice(r, None), slice(r, n))


def sigma_dir2_from_blocks(blocks: DirectionBlocks, H, W):
    """Second directional derivative of every singular value along (H, W).

    ``H`` is the direction ``blocks`` was built from; it enters through
    ``blocks.Hhat``.
    """
    m, n = blocks.shape
    W = as_matrix(W, "W")
    if W.shape != (m, n):
        raise ShapeError(f"W {W.shape} does not match X {(m, n)}")
    svd = blocks.gauge
    What = svd.U.T @ W @ svd.V
    out = np.zeros(n)
    for ab, G in zip(blocks.alpha, alpha_quadratics(blocks)):
        a = _block_slice(ab.indices)
        M = 0.5 * (What[a, a] + What[a, a].T) + 2.0 * G
        for grp in ab.groups:
            Qj = ab.Q[:, grp]
            out[[ab.indices[loc] for loc in grp]] = _sym_eigvals(
                Qj.T @ M @ Qj)
    bb = blocks.beta
    if bb is not None:
        r = blocks.part.r
        C = What[r:, r:] + _beta_cross_term(blocks)
        for grp in bb.groups:
            D = bb.Q[:, grp].T @ C @ bb.Qhat[:, grp]
            out[[r + loc for loc in grp]] = _sym_eigvals(0.5 * (D + D.T))
        if bb.zero_group:
            cols = bb.zero_group + list(range(n - r, m - r))
            Dz = bb.Q[:, cols].T @ C @ bb.Qhat[:, bb.zero_group]
            out[[r + loc for loc in bb.zero_group]] = np.linalg.svd(
                Dz, compute_uv=False)
    return out


def sigma_dir1(X, H, cluster_tol=CLUSTER_TOL, rank_tol=RANK_TOL):
    """sigma'(X; H): directional derivatives of all singular values.

    Component s in an equal-value block equals the matching ordered
    eigenvalue of the symmetrized reduced block; for zero singular
    values it equals the matching singular value of the reduced
    rectangular block.  Gauge-invariant and positively homogeneous in H.
    """
    return sigma_dir1_from_blocks(direction_blocks(X, H, None, cluster_tol,
                                                   rank_tol))


def sigma_dir2(X, H, W, cluster_tol=CLUSTER_TOL, rank_tol=RANK_TOL):
    """sigma''(X; H, W): parabolic second directional derivatives.

    W = 0 is a first-class input; it gives the curvature of the
    singular-value map along the straight line X + tH.
    """
    blocks = direction_blocks(X, H, None, cluster_tol, rank_tol)
    return sigma_dir2_from_blocks(blocks, as_matrix(H, "H"), W)


def eig_expand2(A, E, cluster_tol=CLUSTER_TOL):
    """Two-term expansion of every eigenvalue of A along A + tau E.

    Returns (first, second) with lambda_s(A + tau E) = lambda_s(A) +
    tau * first_s + tau^2/2 * second_s + O(tau^3).  A and E must be
    symmetric; asymmetry beyond 1e-12 * ||.|| is rejected.
    """
    A = as_matrix(A, "A")
    E = as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise ShapeError(f"A {A.shape} and E {E.shape} must be equal square")
    for M, name in ((A, "A"), (E, "E")):
        dev = np.linalg.norm(M - M.T)
        if dev > 1e-12 * max(1.0, np.linalg.norm(M)):
            raise AsymmetricInput(f"{name} deviates from symmetry by {dev:.3e}")
    n = A.shape[0]
    eig = sym_eig_ordered(A)
    part = partition_values(eig.lam, cluster_tol, kind="eigen")
    Ehat = eig.Q.T @ E @ eig.Q
    first = np.zeros(n)
    second = np.zeros(n)
    for blk in part.blocks:
        b = _block_slice(blk)
        gap = eig.lam[blk[0]] - eig.lam
        gap[b] = np.inf
        K = Ehat[:, b]
        M2 = K.T @ (K / gap[:, None])
        Q, lam, groups = _reduced_eig(Ehat[b, b], cluster_tol)
        first[b] = lam
        for grp in groups:
            Qj = Q[:, grp]
            second[[blk[loc] for loc in grp]] = _sym_eigvals(
                2.0 * Qj.T @ M2 @ Qj)
    return first, second


def expansion_residual(X, H, W, t, cluster_tol=CLUSTER_TOL,
                       rank_tol=RANK_TOL):
    """sigma(X + tH + t^2 W/2) minus its two-term prediction.

    The prediction is sigma(X) + t sigma'(X;H) + t^2/2 sigma''(X;H,W);
    the residual is o(t^2) (O(t^3) in exact arithmetic).
    """
    if not (t > 0):
        raise ShapeError("t must be positive")
    X = as_matrix(X, "X")
    blocks = direction_blocks(X, H, None, cluster_tol, rank_tol)
    d1 = sigma_dir1_from_blocks(blocks)
    d2 = sigma_dir2_from_blocks(blocks, as_matrix(H, "H"), W)
    s_t = np.linalg.svd(X + t * np.asarray(H) + 0.5 * t * t * np.asarray(W),
                        compute_uv=False)
    return s_t - (blocks.gauge.sigma + t * d1 + 0.5 * t * t * d2)


def _check_block_sorted(zbar, blocks: DirectionBlocks, tol):
    for ab in blocks.alpha:
        for grp in ab.groups:
            vals = zbar[[ab.indices[loc] for loc in grp]]
            if np.any(np.diff(vals) > tol):
                raise NotBlockSorted(
                    "zbar not nonincreasing inside an alpha-level group")
    bb = blocks.beta
    if bb is None:
        return
    r = blocks.part.r
    for grp in bb.groups:
        vals = zbar[[r + loc for loc in grp]]
        if np.any(np.diff(vals) > tol):
            raise NotBlockSorted(
                "zbar not nonincreasing inside a beta-level group")
    if bb.zero_group:
        vals = zbar[[r + loc for loc in bb.zero_group]]
        if np.any(np.diff(vals) > tol):
            raise NotBlockSorted(
                "zbar not nonincreasing inside the zero-value group")
        if np.any(vals < -tol):
            # second derivatives of identically-zero singular values are
            # singular values of a reduced block, hence never negative
            raise NotBlockSorted(
                "zbar negative on the zero-value group; unreachable target")


def min_direction_construct(X, H, zbar, cluster_tol=CLUSTER_TOL,
                            rank_tol=RANK_TOL):
    """Build W-hat with sigma''(X; H, W-hat) equal to a sorted target.

    ``zbar`` must be nonincreasing inside every second-level group of
    direction_blocks(X, H) (and nonnegative on the zero-value group).
    The construction cancels the resolvent term of each alpha block and
    the cross term of the beta block, then plants the target values via
    the second-level eigenvector/singular-vector bases.
    """
    X = as_matrix(X, "X")
    H = as_matrix(H, "H")
    zbar = np.asarray(zbar, dtype=float)
    m, n = X.shape
    if zbar.shape != (n,):
        raise ShapeError(f"zbar must have length {n}")
    return min_direction_from_blocks(
        direction_blocks(X, H, None, cluster_tol, rank_tol), zbar)


def min_direction_from_blocks(blocks: DirectionBlocks, zbar):
    """``min_direction_construct`` for reduced blocks already built."""
    m, n = blocks.shape
    _check_block_sorted(zbar, blocks, 1e-12 * max(1.0, np.max(np.abs(zbar))))
    svd = blocks.gauge
    Wred = np.zeros((m, n))
    for ab, G in zip(blocks.alpha, alpha_quadratics(blocks)):
        a = _block_slice(ab.indices)
        A = ab.Q @ (zbar[a][:, None] * ab.Q.T)
        Wred[a, a] = A - 2.0 * G
    bb = blocks.beta
    if bb is not None:
        r = blocks.part.r
        Dz = np.zeros((m - r, n - r))
        np.fill_diagonal(Dz, zbar[r:])
        A = bb.Q @ Dz @ bb.Qhat.T
        Wred[r:, r:] = A - _beta_cross_term(blocks)
    return svd.U @ Wred @ svd.V.T
