"""Dense matrix primitives: ordered SVD and symmetric eigendecomposition,
the symmetric lift of a rectangular matrix, and multiplicity-aware index
partitioning.

All decompositions follow the tall convention n <= m, order their values
nonincreasingly and fix signs deterministically so repeated runs agree
bit-for-bit.  Every downstream formula must nevertheless be invariant
under the residual gauge freedom inside equal-value blocks; see
``gauge_randomize`` for the tool that exercises it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InconsistentPartition,
    NonFinite,
    NotSorted,
    ShapeError,
)

# Relative tolerances, both scaled by max(1, largest value).  The cluster
# tolerance decides when two singular values count as equal; the rank
# tolerance decides when one counts as zero.  User-overridable everywhere.
CLUSTER_TOL = 1e-8
RANK_TOL = 1e-12


def as_matrix(X, name="X"):
    """Validate and return a finite 2-d float array."""
    A = np.asarray(X, dtype=float)
    if A.ndim != 2:
        raise ShapeError(f"{name} must be 2-dimensional, got ndim={A.ndim}")
    if not np.all(np.isfinite(A)):
        raise NonFinite(f"{name} contains non-finite entries")
    return A


def require_tall(X, name="X"):
    """Reject n > m instead of transposing silently; callers transpose."""
    m, n = X.shape
    if n > m:
        raise ShapeError(f"{name} must satisfy n <= m, got {m}x{n}")
    return X


@dataclass(frozen=True)
class SvdDecomposition:
    """Ordered singular value decomposition X = U diag(sigma) V^T.

    U is m x m, V is n x n orthogonal, sigma nonincreasing and >= 0.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def shape(self):
        return self.U.shape[0], self.V.shape[0]

    def reconstruct(self):
        m, n = self.shape
        return self.U[:, :n] @ (self.sigma[:, None] * self.V.T)

    def validate(self, X=None):
        m, n = self.shape
        if np.any(np.diff(self.sigma) > 0):
            raise NotSorted("sigma is not nonincreasing")
        if np.any(self.sigma < 0):
            raise NotSorted("sigma has negative entries")
        if np.linalg.norm(self.U.T @ self.U - np.eye(m)) > 1e-12 * m:
            raise InconsistentPartition("U is not orthogonal")
        if np.linalg.norm(self.V.T @ self.V - np.eye(n)) > 1e-12 * n:
            raise InconsistentPartition("V is not orthogonal")
        if X is not None:
            resid = np.linalg.norm(X - self.reconstruct())
            if resid > 1e-10 * max(1.0, np.linalg.norm(X)):
                raise InconsistentPartition(
                    f"reconstruction residual {resid:.3e} too large")
        return self


@dataclass(frozen=True)
class EigDecomposition:
    """Ordered symmetric eigendecomposition A = Q diag(lam) Q^T."""

    Q: np.ndarray
    lam: np.ndarray

    def reconstruct(self):
        return self.Q @ (self.lam[:, None] * self.Q.T)


@dataclass(frozen=True)
class SingularPartition:
    """Multiplicity structure of a nonincreasing singular value vector.

    ``alpha_blocks[i]`` lists the 0-based indices carrying the i-th
    distinct nonzero value ``mu[i]``; ``beta`` lists the indices treated
    as zero (rank tolerance), ``beta0`` the extra m - n lift positions.
    ``l``, ``j``, ``r_s`` are the 1-based within-block rank, the count of
    equal values strictly after, and the block multiplicity, per index.
    """

    n: int
    m: int
    r: int
    t: int
    mu: np.ndarray
    alpha_blocks: list
    beta: list
    beta0: list
    l: np.ndarray
    j: np.ndarray
    r_s: np.ndarray
    cluster_tol: float
    rank_tol: float

    @property
    def betahat(self):
        return self.beta + self.beta0

    def block_of(self, s):
        """Return the block (list of indices) containing index s."""
        for blk in self.alpha_blocks:
            if s in blk:
                return blk
        if s in self.beta:
            return self.beta
        raise IndexError(s)


@dataclass(frozen=True)
class EigenPartition:
    """Multiplicity structure of a nonincreasing eigenvalue vector."""

    n: int
    blocks: list
    l: np.ndarray
    j: np.ndarray
    r_s: np.ndarray
    cluster_tol: float


def _fix_signs(U, V=None):
    """Flip column signs so the largest-magnitude entry of each U column
    is positive; the paired V column (if any) flips along."""
    U = U.copy()
    V = None if V is None else V.copy()
    npair = 0 if V is None else V.shape[1]
    for k in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, k])))
        if U[i, k] < 0:
            U[:, k] = -U[:, k]
            if k < npair:
                V[:, k] = -V[:, k]
    return U if V is None else (U, V)


def svd_ordered(X) -> SvdDecomposition:
    """Deterministic ordered SVD of a finite matrix with n <= m.

    Singular values come out nonincreasing; the sign convention makes the
    largest-magnitude entry of each column of U positive, with V adjusted
    so that X = U diag(sigma) V^T is preserved.
    """
    X = require_tall(as_matrix(X))
    m, n = X.shape
    U, s, Vt = np.linalg.svd(X, full_matrices=True)
    V = Vt.T
    Upair, V = _fix_signs(U[:, :n], V)
    if m > n:
        Urest = _fix_signs(U[:, n:])
        U = np.concatenate([Upair, Urest], axis=1)
    else:
        U = Upair
    return SvdDecomposition(U=U, sigma=s, V=V)


def sym_eig_ordered(A) -> EigDecomposition:
    """Deterministic eigendecomposition of a (nearly) symmetric matrix,
    eigenvalues nonincreasing.  The input is symmetrized internally."""
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    lam, Q = np.linalg.eigh(0.5 * (A + A.T))
    lam, Q = lam[::-1].copy(), Q[:, ::-1]
    Q = _fix_signs(Q)
    return EigDecomposition(Q=Q, lam=lam)


def lift(X):
    """Symmetric lift [[0, X], [X^T, 0]] of order m + n.

    Its ordered spectrum is (sigma(X), 0 repeated m-n times, -sigma(X)
    reversed).
    """
    X = require_tall(as_matrix(X))
    m, n = X.shape
    B = np.zeros((m + n, m + n))
    B[:m, m:] = X
    B[m:, :m] = X.T
    return B


def lift_eigenbasis(svd: SvdDecomposition):
    """Explicit orthonormal eigenbasis of lift(X) built from an SVD of X.

    Returns (P, d) where the columns of P are eigenvectors of lift(X) and
    d their eigenvalues, laid out as (sigma_1..sigma_n, 0 x (m-n),
    -sigma_1..-sigma_n).  Column k < n is (u_k; v_k)/sqrt(2), the middle
    block is (u_k; 0) over the trailing columns of U, and the final block
    is (-u_k; v_k)/sqrt(2).  In this basis lift(H) has the entries
    Sym(U^T H V), -Skw(U^T H V) and the trailing rows of U^T H V over
    sqrt(2), so its resolvent at sigma_k is the SVD-basis divided
    difference with weights 1/(sigma_k - sigma_j), 1/(sigma_k + sigma_j)
    and 1/sigma_k that ``sv_calculus`` evaluates without forming P.
    """
    U, s, V = svd.U, svd.sigma, svd.V
    m, n = svd.shape
    P = np.zeros((m + n, m + n))
    d = np.zeros(m + n)
    c = 1.0 / np.sqrt(2.0)
    P[:m, :n] = c * U[:, :n]
    P[m:, :n] = c * V
    d[:n] = s
    P[:m, n:m] = U[:, n:]
    P[:m, m:] = -c * U[:, :n]
    P[m:, m:] = c * V
    d[m:] = -s
    return P, d


def cluster_blocks(v, tol):
    """Split a nonincreasing vector into maximal runs of tol-equal values.

    Consecutive entries are grouped while they stay within ``tol`` of the
    first entry of the current run.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.diff(v) > 1e-13 * max(1.0, np.max(np.abs(v), initial=0.0))):
        raise NotSorted("input vector is not nonincreasing")
    blocks = []
    start = 0
    for i in range(1, len(v)):
        if abs(v[i] - v[start]) > tol:
            blocks.append(list(range(start, i)))
            start = i
    if len(v):
        blocks.append(list(range(start, len(v))))
    return blocks


def _rank_arrays(n, blocks):
    l = np.zeros(n, dtype=int)
    j = np.zeros(n, dtype=int)
    r_s = np.zeros(n, dtype=int)
    for blk in blocks:
        for pos, s in enumerate(blk):
            l[s] = pos + 1
            j[s] = len(blk) - pos - 1
            r_s[s] = len(blk)
    return l, j, r_s


def _check_tolerances(cluster_tol, rank_tol=RANK_TOL):
    """Raise ``ShapeError`` unless both tolerances are finite and >= 0."""
    if not (0.0 <= cluster_tol < np.inf and 0.0 <= rank_tol < np.inf):
        raise ShapeError(f"cluster_tol {cluster_tol!r} and rank_tol "
                         f"{rank_tol!r} must be finite and >= 0")


def partition_values(v, cluster_tol=CLUSTER_TOL, rank_tol=RANK_TOL,
                     kind="singular", m=None):
    """Partition a nonincreasing value vector into equal-value blocks.

    For ``kind="singular"`` entries at or below ``rank_tol * max(1, v[0])``
    form the zero block beta and the rest cluster into alpha blocks with
    strictly decreasing distinct values mu.  For ``kind="eigen"`` all
    entries cluster (values may be negative, no rank split).  Both
    tolerances must be finite and >= 0: a NaN or negative one would
    silently change every block, so it raises ``ShapeError``.
    """
    _check_tolerances(cluster_tol, rank_tol)
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ShapeError("partition_values expects a vector")
    n = len(v)
    scale = max(1.0, v[0]) if n else 1.0
    if kind == "eigen":
        escale = max(1.0, float(np.max(np.abs(v), initial=0.0)))
        blocks = cluster_blocks(v, cluster_tol * escale)
        l, j, r_s = _rank_arrays(n, blocks)
        return EigenPartition(n=n, blocks=blocks, l=l, j=j, r_s=r_s,
                              cluster_tol=cluster_tol)
    if kind != "singular":
        raise ValueError(f"unknown kind {kind!r}")
    if np.any(v < -rank_tol * scale):
        raise NotSorted("singular values must be nonnegative")
    m = n if m is None else m
    r = int(np.sum(v > rank_tol * scale))
    alpha_blocks = cluster_blocks(v[:r], cluster_tol * scale)
    beta = list(range(r, n))
    beta0 = list(range(n, m))
    mu = np.array([v[blk[0]] for blk in alpha_blocks])
    if np.any(np.diff(mu) >= 0):
        # adjacent clusters must be separated by more than the tolerance
        raise InconsistentPartition("cluster values not strictly decreasing")
    blocks = alpha_blocks + ([beta] if beta else [])
    l, j, r_s = _rank_arrays(n, blocks)
    return SingularPartition(n=n, m=m, r=r, t=len(alpha_blocks), mu=mu,
                             alpha_blocks=alpha_blocks, beta=beta,
                             beta0=beta0, l=l, j=j, r_s=r_s,
                             cluster_tol=cluster_tol, rank_tol=rank_tol)


def partition_of(svd: SvdDecomposition, cluster_tol=CLUSTER_TOL,
                 rank_tol=RANK_TOL) -> SingularPartition:
    m, n = svd.shape
    return partition_values(svd.sigma, cluster_tol, rank_tol, m=m)


def _random_orthogonal(k, rng):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def gauge_randomize(svd: SvdDecomposition, part: SingularPartition,
                    seed: int) -> SvdDecomposition:
    """Return a different valid SVD of the same matrix.

    Columns of U and V inside each equal-singular-value block are mixed
    by one random orthogonal block (the same on both sides, which is the
    full gauge freedom at a positive singular value); the zero-value
    subspaces of U and V mix independently.
    """
    m, n = svd.shape
    if part.n != n or part.m != m:
        raise InconsistentPartition("partition shape mismatch")
    for blk in part.alpha_blocks:
        vals = svd.sigma[blk]
        if np.max(vals) - np.min(vals) > 2 * part.cluster_tol * max(
                1.0, svd.sigma[0]):
            raise InconsistentPartition("partition does not match sigma")
    rng = np.random.default_rng(seed)
    U = svd.U.copy()
    V = svd.V.copy()
    for blk in part.alpha_blocks:
        Q = _random_orthogonal(len(blk), rng)
        U[:, blk] = U[:, blk] @ Q
        V[:, blk] = V[:, blk] @ Q
    bh = part.betahat
    if bh:
        Q = _random_orthogonal(len(bh), rng)
        U[:, bh] = U[:, bh] @ Q
    if part.beta:
        Q = _random_orthogonal(len(part.beta), rng)
        V[:, part.beta] = V[:, part.beta] @ Q
    return SvdDecomposition(U=U, sigma=svd.sigma.copy(), V=V)


# -- matrix file format --------------------------------------------------------

def read_matrix_csv(path, header=False):
    """Read a matrix from CSV: one row per line, plain decimal points."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            if header and lineno == 0:
                continue
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ShapeError(f"{path}:{lineno + 1}: {exc}") from exc
    if not rows:
        raise ShapeError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ShapeError(f"{path}: ragged rows")
    return as_matrix(np.array(rows), name=str(path))


def write_matrix_csv(path, X):
    """Write a matrix as CSV with 17 significant digits."""
    X = as_matrix(X)
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
