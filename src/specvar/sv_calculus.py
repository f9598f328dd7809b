"""First- and second-order directional derivatives of singular values.

Everything here is driven by the block structure that a direction H
induces on top of the multiplicity structure of X: inside each block of
equal singular values the first-order behaviour is an eigenvalue problem
for the reduced symmetric block, and across blocks the second-order
behaviour picks up a resolvent correction: a masked divided-difference
(Loewner) form in Hhat = U^T H V whose point-only tables are the one
``DividedDifferences`` of X.  Zero singular values behave like a
reduced rectangular SVD problem instead.
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
    BLOCK_SORT_TOL,
    GAP_WARN,
    SYMMETRY_TOL,
    TOLERANCES,
    SingularPartition,
    SvdDecomposition,
    _fix_signs,
    as_matrix,
    partition_of,
    partition_values,
    svd_ordered,
    sym_eig_ordered,
)


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
    Q: np.ndarray            # thin left singular vectors of R, (m-r) x (n-r)
    eta: np.ndarray          # singular values of R, length n-r
    Qhat: np.ndarray         # right orthogonal factor, (n-r) x (n-r)
    groups: list             # groups of equal positive values, local
    zero_group: list         # local indices with sigma(R) ~ 0


@dataclass(frozen=True)
class DividedDifferences:
    """Point-only alpha-term tables of sigma(X), column i < r at its block
    value mu_i, and (mu, min_gap, warning text or "") per alpha block."""

    D: np.ndarray            # n x r: 1/(mu_i - sigma_j), 0 inside the block
    E: np.ndarray            # n x r: 1/(mu_i + sigma_j), halved (no overflow)
    C: np.ndarray            # r: 1/(2 mu_i)
    gaps: list

    def warn(self):
        for text in filter(None, (text for _, _, text in self.gaps)):
            warnings.warn(text, ConditioningWarning, stacklevel=3)


@dataclass(frozen=True)
class DirectionBlocks:
    """All reduced blocks of a pair (X, H) in a fixed SVD gauge."""

    gauge: SvdDecomposition
    part: SingularPartition
    Hhat: np.ndarray         # U^T H V in the gauge, m x n
    tables: DividedDifferences
    alpha: list              # list of AlphaBlock
    beta: BetaBlock | None
    ltilde: np.ndarray       # 1-based second-level rank per index

    @property
    def shape(self):
        return self.gauge.shape


def _block_slice(indices):
    """Equal-value blocks are contiguous runs of indices."""
    return slice(indices[0], indices[-1] + 1)


def _reduced_eig(S, tols):
    """Ordered eigenvectors, eigenvalues and second-level tie groups of a
    reduced symmetric block; a 1 x 1 block is its own eigenpair and
    group."""
    if len(S) == 1:
        return np.ones((1, 1)), S[0].copy(), [[0]]
    eig = sym_eig_ordered(S)
    groups = partition_values(eig.lam, tols, kind="eigen").blocks
    return eig.Q, eig.lam, list(groups)


def _sym_eigvals(D):
    """Nonincreasing eigenvalues of a small symmetric matrix."""
    return D[0] if len(D) == 1 else np.linalg.eigvalsh(D)[::-1]


def _sym_skw(A):
    """Symmetric and skew parts over A's last two axes, halved first: the
    same floats, but no overflow near float max."""
    At = np.swapaxes(A, -1, -2)
    return 0.5 * A + 0.5 * At, 0.5 * A - 0.5 * At


def divided_differences(s, part: SingularPartition) -> DividedDifferences:
    """The ``DividedDifferences`` of the values s under ``part``: the gap
    from mu to the rest of the lift [[0, X], [X^T, 0]] (sigma_j off the
    block, -sigma_j, 0 if m > n) warns below GAP_WARN max(1, sigma_1)."""
    n, r, t = part.n, part.r, part.t
    # block number of every index, t for the zero block
    owner = np.repeat(np.arange(t + 1),
                      [len(b) for b in part.alpha_blocks] + [n - r])
    mu, cols = part.mu, owner[:r]
    diff = mu - s[:, None]                           # n x t
    diff[owner[:, None] == np.arange(t)] = np.inf    # own block: D = 0
    with np.errstate(over="ignore"):   # mu + sigma_n may overflow to inf
        gap = np.minimum(np.abs(diff).min(axis=0, initial=np.inf), mu + s[-1:])
    gap = np.minimum(gap, mu if part.m > n else np.inf)
    warn = GAP_WARN * max(1.0, s[0]) if n else GAP_WARN
    text = ("spectral gap {:.3e} at block value {:.6g} below {:.1e}; "
            "second-order output ill-conditioned")
    gaps = [(m, g, "" if g >= warn else text.format(g, m, warn))
            for m, g in zip(mu.tolist(), gap.tolist())]
    E = 0.5 / (0.5 * mu + 0.5 * s[:, None])          # halved: no overflow
    return DividedDifferences((1.0 / diff)[:, cols], E[:, cols],
                              (0.5 / mu)[cols], gaps)


def _prepared(X, H, gauge=None, tols=TOLERANCES):
    """(gauge or svd_ordered(X), partition, U^T H V) of checked X and H."""
    X, H = as_matrix(X, "X"), as_matrix(H, "H")
    if X.shape != H.shape:
        raise ShapeError(f"X {X.shape} and H {H.shape} differ")
    svd = svd_ordered(X) if gauge is None else gauge
    return svd, partition_of(svd, tols), svd.U.T @ H @ svd.V


def sigma_dir1_stack(Hhat, part: SingularPartition):
    """sigma'(X; H) for every H of a (k, m, n) stack Hhat = U^T H V, as
    in ``sigma_dir1`` (a singleton block reads diag(Hhat))."""
    d1 = Hhat.diagonal(axis1=1, axis2=2).copy()
    for a in map(_block_slice, part.alpha_blocks):
        if a.stop - a.start > 1:
            d1[:, a] = np.linalg.eigvalsh(_sym_skw(Hhat[:, a, a])[0])[:, ::-1]
    d1[:, part.r:] = np.linalg.svd(Hhat[:, part.r:, part.r:], compute_uv=False)
    return d1


def alpha_terms(Hhat, dd: DividedDifferences, w):
    """2 sum_i w_i (G_a)_ii (see ``alpha_quadratics``) for every H of a
    (k, m, n) stack Hhat; small-gap blocks warn."""
    dd.warn()
    n, r = dd.E.shape
    Sym, Skw = _sym_skw(Hhat[:, :n])
    return 2.0 * (np.einsum("kji,ji->k", Sym[:, :, :r] ** 2, dd.D * w)
                  + np.einsum("kji,ji->k", Skw[:, :, :r] ** 2, dd.E * w)
                  + np.einsum("kci,i->k", Hhat[:, n:, :r] ** 2, dd.C * w))


def direction_blocks(X, H, gauge=None, tols=TOLERANCES) -> DirectionBlocks:
    """Compute the per-direction reduced blocks of (X, H).

    ``gauge`` may supply a specific ordered SVD of X (any valid one); by
    default the deterministic ``svd_ordered`` gauge is used.  All outputs
    of ``sigma_dir1``/``sigma_dir2`` are invariant under this choice.
    """
    svd, part, Hhat = _prepared(X, H, gauge, tols)
    n = part.n
    dd = divided_differences(svd.sigma, part)
    dd.warn()
    Sym = _sym_skw(Hhat[:n])[0]

    ltilde = np.zeros(n, dtype=int)
    alpha = []
    for blk, (mu, min_gap, _) in zip(part.alpha_blocks, dd.gaps):
        a = _block_slice(blk)
        S = Sym[a, a]
        Q, eta, groups = _reduced_eig(S, tols)
        for grp in groups:   # rank within the second-level group
            for pos, loc in enumerate(grp, 1):
                ltilde[blk[loc]] = pos
        alpha.append(AlphaBlock(indices=list(blk), mu=mu, min_gap=min_gap,
                                S=S, Q=Q, eta=eta, groups=groups))

    beta = None
    if part.r < n:
        R = Hhat[part.r:, part.r:]
        # thin: no formula reads the complement of R's left factor
        Q, eta, Qhat_t = np.linalg.svd(R, full_matrices=False)
        Q, Qhat = _fix_signs(Q, Qhat_t.T)
        rpart = partition_values(eta, tols)
        groups, zero_group = rpart.alpha_blocks, rpart.beta
        for grp in groups + [zero_group]:
            for pos, loc in enumerate(grp, 1):
                ltilde[part.r + loc] = pos
        beta = BetaBlock(indices=list(part.beta), R=R, Q=Q, eta=eta,
                         Qhat=Qhat, groups=groups, zero_group=zero_group)

    return DirectionBlocks(gauge=svd, part=part, Hhat=Hhat, tables=dd,
                           alpha=alpha, beta=beta, ltilde=ltilde)


def alpha_quadratics(blocks: DirectionBlocks):
    """Resolvent quadratic G_a of every alpha block, in block order.

    With Sym, Skw the symmetric and skew parts of Hhat[:n], T = Hhat[n:]
    and _a the block's columns (of the tables too), G_a = Sym_a^T (D_a *
    Sym_a) + Skw_a^T (E_a * Skw_a) + T_a^T T_a / (2 mu).
    """
    dd, n = blocks.tables, blocks.part.n
    Sym, Skw = _sym_skw(blocks.Hhat[:n])
    out = []
    for ab in blocks.alpha:
        a = _block_slice(ab.indices)
        Sa, Ka, Ta = Sym[:, a], Skw[:, a], blocks.Hhat[n:, a]
        out.append(Sa.T @ (Sa * dd.D[:, a]) + Ka.T @ (Ka * dd.E[:, a])
                   + dd.C[a] * (Ta.T @ Ta))
    return out


def sigma_dir1_from_blocks(blocks: DirectionBlocks):
    """First directional derivative of every singular value."""
    bb = blocks.beta
    return np.concatenate([ab.eta for ab in blocks.alpha]
                          + [np.zeros(0) if bb is None else bb.eta])


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
        M = _sym_skw(What[a, a])[0] + 2.0 * G
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
            out[[r + loc for loc in grp]] = _sym_eigvals(_sym_skw(D)[0])
        if bb.zero_group:
            # C Qhat_z off the positive groups' left vectors has the
            # singular values of its compression to their complement
            Qp = bb.Q[:, :bb.zero_group[0]]
            Dz = C @ bb.Qhat[:, bb.zero_group]
            out[[r + loc for loc in bb.zero_group]] = np.linalg.svd(
                Dz - Qp @ (Qp.T @ Dz), compute_uv=False)
    return out


def sigma_dir1(X, H, tols=TOLERANCES):
    """sigma'(X; H): directional derivatives of all singular values.

    Component s in an equal-value block equals the matching ordered
    eigenvalue of the symmetrized reduced block; for zero singular
    values it equals the matching singular value of the reduced
    rectangular block.  Gauge-invariant and positively homogeneous in H.
    """
    return sigma_dir1_from_blocks(direction_blocks(X, H, None, tols))


def sigma_dir2(X, H, W, tols=TOLERANCES):
    """sigma''(X; H, W): parabolic second directional derivatives.

    W = 0 is a first-class input; it gives the curvature of the
    singular-value map along the straight line X + tH.
    """
    blocks = direction_blocks(X, H, None, tols)
    return sigma_dir2_from_blocks(blocks, as_matrix(H, "H"), W)


def eig_expand2(A, E, tols=TOLERANCES):
    """Two-term expansion of every eigenvalue of A along A + tau E.

    Returns (first, second) with lambda_s(A + tau E) = lambda_s(A) +
    tau * first_s + tau^2/2 * second_s + O(tau^3).  A and E must be
    symmetric; asymmetry beyond SYMMETRY_TOL * max(1, ||.||) is rejected.
    """
    A = as_matrix(A, "A")
    E = as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise ShapeError(f"A {A.shape} and E {E.shape} must be equal square")
    for M, name in ((A, "A"), (E, "E")):
        dev = np.linalg.norm(M - M.T)
        if dev > SYMMETRY_TOL * max(1.0, np.linalg.norm(M)):
            raise AsymmetricInput(f"{name} deviates from symmetry by {dev:.3e}")
    n = A.shape[0]
    eig = sym_eig_ordered(A)
    part = partition_values(eig.lam, tols, kind="eigen")
    Ehat = eig.Q.T @ E @ eig.Q
    first = np.zeros(n)
    second = np.zeros(n)
    for blk in part.blocks:
        b = _block_slice(blk)
        gap = eig.lam[blk[0]] - eig.lam
        gap[b] = np.inf
        K = Ehat[:, b]
        M2 = K.T @ (K / gap[:, None])
        Q, lam, groups = _reduced_eig(Ehat[b, b], tols)
        first[b] = lam
        for grp in groups:
            Qj = Q[:, grp]
            second[[blk[loc] for loc in grp]] = _sym_eigvals(
                2.0 * Qj.T @ M2 @ Qj)
    return first, second


def expansion_residual(X, H, W, t, tols=TOLERANCES):
    """sigma(X + tH + t^2 W/2) minus its two-term prediction.

    The prediction is sigma(X) + t sigma'(X;H) + t^2/2 sigma''(X;H,W);
    the residual is o(t^2) (O(t^3) in exact arithmetic).
    """
    if not (t > 0):
        raise ShapeError("t must be positive")
    X = as_matrix(X, "X")
    blocks = direction_blocks(X, H, None, tols)
    d1 = sigma_dir1_from_blocks(blocks)
    d2 = sigma_dir2_from_blocks(blocks, as_matrix(H, "H"), W)
    s_t = np.linalg.svd(X + t * np.asarray(H) + 0.5 * t * t * np.asarray(W),
                        compute_uv=False)
    return s_t - (blocks.gauge.sigma + t * d1 + 0.5 * t * t * d2)


def _check_block_sorted(zbar, blocks: DirectionBlocks, tol):
    r, bb = blocks.part.r, blocks.beta
    levels = [("an alpha-level", [[ab.indices[loc] for loc in grp]
                                  for grp in ab.groups])
              for ab in blocks.alpha]
    if bb is not None:
        levels += [("a beta-level", [[r + loc for loc in grp]
                                     for grp in bb.groups]),
                   ("the zero-value", [[r + loc for loc in bb.zero_group]])]
    for level, groups in levels:
        for idx in groups:
            if np.any(np.diff(zbar[idx]) > tol):
                raise NotBlockSorted(
                    f"zbar not nonincreasing inside {level} group")
    if bb is not None and np.any(zbar[r + np.array(bb.zero_group, dtype=int)]
                                 < -tol):
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
    X = as_matrix(X, "X")
    H = as_matrix(H, "H")
    zbar = np.asarray(zbar, dtype=float)
    m, n = X.shape
    if zbar.shape != (n,):
        raise ShapeError(f"zbar must have length {n}")
    return min_direction_from_blocks(
        direction_blocks(X, H, None, tols), zbar)


def min_direction_from_blocks(blocks: DirectionBlocks, zbar):
    """``min_direction_construct`` for reduced blocks already built."""
    m, n = blocks.shape
    _check_block_sorted(zbar, blocks,
                        BLOCK_SORT_TOL * max(1.0, np.max(np.abs(zbar))))
    svd = blocks.gauge
    Wred = np.zeros((m, n))
    for ab, G in zip(blocks.alpha, alpha_quadratics(blocks)):
        a = _block_slice(ab.indices)
        A = ab.Q @ (zbar[a][:, None] * ab.Q.T)
        Wred[a, a] = A - 2.0 * G
    bb = blocks.beta
    if bb is not None:
        r = blocks.part.r
        A = (bb.Q * zbar[r:]) @ bb.Qhat.T
        Wred[r:, r:] = A - _beta_cross_term(blocks)
    return svd.U @ Wred @ svd.V.T
