"""Dense matrix primitives: ordered SVD and symmetric eigendecomposition,
multiplicity-aware index partitioning, and the one tolerance policy.

All decompositions follow the tall convention n <= m, order their values
nonincreasingly and fix signs deterministically so repeated runs agree
bit-for-bit.  Every downstream formula must nevertheless be invariant
under the residual gauge freedom inside equal-value blocks; see
``gauge_randomize`` for the tool that exercises it.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass

import numpy as np

from .errors import (
    InconsistentPartition,
    NonFinite,
    NotSorted,
    ShapeError,
)

# Relative tolerances, both scaled by max(1, largest value).  The cluster
# tolerance decides when two singular values count as equal; the rank
# tolerance decides when one counts as zero.  They are the only settable
# thresholds, and ``Tolerances`` carries them through every call.
CLUSTER_TOL = 1e-8
RANK_TOL = 1e-12

# Fixed thresholds for every module, each with the scale it multiplies.
ZERO_TOL = 1e-12          # absym zero / tie classes; 1 + ||x||_inf
SORT_TOL = 1e-13          # sorted input of cluster_blocks; max(1, |v|)
GAUGE_TOL = 1e-8          # the one subgradient test of Y; ||Y||
CONE_TOL = 1e-8           # critical-cone duality gap; 1 + ||Y|| ||H||
F_CONE_TOL = 1e-9         # f-level critical-cone gap; 1 + ||v|| ||w||
SUBDIFF_TOL = 1e-10       # default of the subdiff_contains hook; absolute
SET_TOL = 1e-9            # invariant-set membership; absolute
CURVATURE_TOL = 1e-7      # sign of a sampled certify curvature; absolute
FD_TOL = 1e-5             # finite-difference check of psi hooks; relative
SYMMETRY_TOL = 1e-12      # asymmetry of eig_expand2 inputs; max(1, ||A||)
BLOCK_SORT_TOL = 1e-12    # sortedness of a sigma'' target; max(1, |zbar|)
GAP_WARN = 1e-6           # ConditioningWarning below this gap; max(1, s_1)


@dataclass(frozen=True)
class Tolerances:
    """The two thresholds of every partition, ``cluster`` (equal values)
    and ``rank`` (zero values).  A NaN, negative or infinite one would
    silently change every block, so it raises ``ShapeError``."""

    cluster: float = CLUSTER_TOL
    rank: float = RANK_TOL

    def __post_init__(self):
        if not (0.0 <= self.cluster < np.inf and 0.0 <= self.rank < np.inf):
            raise ShapeError(f"cluster_tol {self.cluster!r} and rank_tol "
                             f"{self.rank!r} must be finite and >= 0")


TOLERANCES = Tolerances()


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
        return self.Q @ (self.lam[..., :, None] * self.Q.mT)


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
    tols: Tolerances

    @property
    def betahat(self):
        return self.beta + self.beta0


def _fix_signs(U, V=None):
    """Flip column signs over the last axis of U (a matrix or a stack) so
    the largest-magnitude entry of each column is positive; V's columns
    flip along with U's leading ones."""
    if U.size == 0:            # no entry to read: nothing flips
        return U if V is None else (U, V)
    top = np.argmax(np.abs(U), axis=-2)[..., None, :]
    sign = np.where(np.take_along_axis(U, top, axis=-2) < 0, -1.0, 1.0)
    U = np.multiply(U, sign, order="C")   # C order: BLAS rounds by layout
    return U if V is None else (
        U, np.multiply(V, sign[..., :V.shape[-1]], order="C"))


def _read_only(obj):
    """obj, with every array it holds through dataclass fields and tuples
    marked read-only (its lists hold indices and numbers only)."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, tuple) or is_dataclass(obj):
        for item in obj if isinstance(obj, tuple) else vars(obj).values():
            _read_only(item)
    return obj


class _LastCall:
    """A one-entry memo keyed on the exact bits of the inputs.  A miss
    builds, marks the value's arrays read-only and replaces the entry
    whole, so a race between threads can only cause a miss."""

    entry = None

    def get(self, key, build, *args):
        entry = self.entry
        if entry is None or entry[0] != key:
            entry = self.entry = (key, _read_only(build(*args)))
        return entry[1]


_LAST_SVD = _LastCall()


def svd_ordered(X) -> SvdDecomposition:
    """Deterministic ordered SVD of a finite matrix with n <= m.

    Singular values come out nonincreasing; the sign convention makes the
    largest-magnitude entry of each column of U positive, with V adjusted
    so that X = U diag(sigma) V^T is preserved.  The last result is kept:
    a bitwise-equal X gets the same read-only decomposition back.
    """
    X = require_tall(as_matrix(X))
    return _LAST_SVD.get((X.shape, X.tobytes()), _svd, X)


def _svd(X):
    U, s, Vt = np.linalg.svd(X, full_matrices=True)
    U, V = _fix_signs(U, Vt.T)
    return SvdDecomposition(U=U, sigma=s, V=V)


def sym_eig_ordered(A) -> EigDecomposition:
    """Deterministic eigendecomposition of a (nearly) symmetric matrix, or
    of every matrix of a (..., k, k) stack in one call, eigenvalues
    nonincreasing.  The input is symmetrized internally."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"A must be square, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("A contains non-finite entries")
    lam, Q = np.linalg.eigh(0.5 * A + 0.5 * A.mT)   # no overflow near max
    return EigDecomposition(Q=_fix_signs(Q[..., ::-1]), lam=lam[..., ::-1])


def cluster_blocks(v, tol):
    """Split a nonincreasing vector into maximal runs of tol-equal values.

    Consecutive entries are grouped while they stay within ``tol`` of the
    first entry of the current run.
    """
    v = np.asarray(v, dtype=float)
    rise = np.diff(v)
    if (rise > 0).any() and (rise > SORT_TOL * max(
            1.0, np.max(np.abs(v), initial=0.0))).any():
        raise NotSorted("input vector is not nonincreasing")
    vals = v.tolist()
    blocks = []
    start = 0
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[start]) > tol:
            blocks.append(list(range(start, i)))
            start = i
    if vals:
        blocks.append(list(range(start, len(vals))))
    return blocks


def cluster_ranks(V, tol):
    """``cluster_blocks`` on every row of a nonincreasing (b, k) stack at
    once, with one tolerance per row: the 1-based rank of each entry
    within its run (1 starts a run)."""
    ranks = np.ones(V.shape, dtype=int)
    start = V[:, 0]
    for j in range(1, V.shape[1]):
        new = np.abs(V[:, j] - start) > tol
        start = np.where(new, V[:, j], start)
        ranks[:, j] = np.where(new, 1, ranks[:, j - 1] + 1)
    return ranks


def size_classes(blocks):
    """Contiguous blocks grouped by size: a (b, k) index array per size k,
    one row per block in block order, sizes ascending."""
    sizes = np.array([len(b) for b in blocks], dtype=int)
    starts = np.array([b[0] for b in blocks], dtype=int)
    return [starts[sizes == k][:, None] + np.arange(k)
            for k in np.unique(sizes).tolist()]


def partition_values(v, tols=TOLERANCES, m=None):
    """Partition a nonincreasing singular value vector into equal-value
    blocks.

    Entries at or below ``tols.rank * max(1, v[0])`` form the zero block
    beta and the rest cluster into alpha blocks with strictly decreasing
    distinct values mu.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ShapeError("partition_values expects a vector")
    n = len(v)
    scale = max(1.0, v[0]) if n else 1.0
    if np.any(v < -tols.rank * scale):
        raise NotSorted("singular values must be nonnegative")
    m = n if m is None else m
    r = int(np.sum(v > tols.rank * scale))
    alpha_blocks = cluster_blocks(v[:r], tols.cluster * scale)
    beta = list(range(r, n))
    beta0 = list(range(n, m))
    mu = np.array([v[blk[0]] for blk in alpha_blocks])
    if np.any(np.diff(mu) >= 0):
        # adjacent clusters must be separated by more than the tolerance
        raise InconsistentPartition("cluster values not strictly decreasing")
    sizes = np.array([len(b) for b in alpha_blocks + [beta] if b], dtype=int)
    r_s = np.repeat(sizes, sizes)
    l = np.arange(n) + 1 - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return SingularPartition(n=n, m=m, r=r, t=len(alpha_blocks), mu=mu,
                             alpha_blocks=alpha_blocks, beta=beta,
                             beta0=beta0, l=l, j=r_s - l, r_s=r_s, tols=tols)


def partition_of(svd: SvdDecomposition, tols=TOLERANCES) -> SingularPartition:
    m, n = svd.shape
    return partition_values(svd.sigma, tols, m=m)


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
        if np.max(vals) - np.min(vals) > 2 * part.tols.cluster * max(
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
