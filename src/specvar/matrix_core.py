"""Dense matrix primitives: ordered SVD and symmetric eigendecomposition,
partitions of singular values, which build their divided-difference tables
once, kept for the last X as one prepared point, and the tolerance policy.

All decompositions follow the tall convention n <= m, order their values
nonincreasingly and fix signs deterministically so repeated runs agree
bit-for-bit.  Every downstream formula must nevertheless be invariant
under the residual gauge freedom inside equal-value blocks; see
``gauge_randomize`` for the tool that exercises it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, is_dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConditioningWarning,
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
SORT_TOL = 1e-13          # sorted input of _run_starts; max(1, |v|)
GAUGE_TOL = 1e-8          # the one subgradient test of Y; ||Y||
CONE_TOL = 1e-8           # critical-cone duality gap; 1 + ||Y|| ||H||
SUBDIFF_TOL = 1e-10       # default of the subdiff_contains hook; absolute
SET_TOL = 1e-9            # invariant-set membership; absolute
CURVATURE_TOL = 1e-7      # sign of a sampled certify curvature; absolute
FD_TOL = 1e-5             # finite-difference check of psi hooks; relative
SYMMETRY_TOL = 1e-12      # asymmetry of eig_expand2 inputs; max(1, ||A||)
BLOCK_SORT_TOL = 1e-12    # sortedness of a sigma'' target; max(1, |zbar|)
GAP_WARN = 1e-6           # ConditioningWarning below this gap; max(1, s_1)

# matrix entries per stack of directions, samples or shifted points
_CHUNK_ENTRIES = 1 << 18


def _chunk_size(x):
    """Items of x's size per stack: max(1, _CHUNK_ENTRIES // x.size)."""
    return max(1, _CHUNK_ENTRIES // max(x.size, 1))


def _chunks(x, k):
    """Slices of range(k), ``_chunk_size(x)`` items each (the last fewer)."""
    step = _chunk_size(x)
    return [slice(lo, min(lo + step, k)) for lo in range(0, k, step)]


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


# -- the input contract: one rule per kind of argument -------------------------

def as_matrix(X, name="X", like=None, *, like_name="X", stack=False, ndim=2):
    """X as a finite float array (``NonFinite`` otherwise) with ``ndim``
    axes (None: any), or the shape of the array ``like``, or with ``stack``
    a stack of such arrays (one of them a stack of one).  A ragged or
    non-numeric X or a wrong shape raises ``ShapeError`` naming X and, if
    given, ``like_name``."""
    try:
        A = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:   # ragged or not numbers
        raise ShapeError(f"{name} is not an array of reals: {exc}") from None
    if like is None:
        if ndim is not None and A.ndim != ndim:
            raise ShapeError(f"{name} must be {ndim}-dimensional, got "
                             f"ndim={A.ndim}")
    else:
        if stack and A.ndim == like.ndim:
            A = A[None]
        if A.ndim != like.ndim + stack or A.shape[stack:] != like.shape:
            raise ShapeError(f"{name} {np.shape(X)} and {like_name} "
                             f"{like.shape} differ")
    if not np.all(np.isfinite(A)):
        raise NonFinite(f"{name} contains non-finite entries")
    return A


def as_count(value, name, low=0, error=ShapeError):
    """value as an int at or above ``low`` (None: any int).  numpy ints
    count, bools and floats do not; anything else raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or (low is not None and value < low):
        floor = "" if low is None else f" >= {low}"
        raise error(f"{name} {value!r} must be an int{floor}")
    return int(value)


def as_real(value, name, positive=True):
    """value as a finite float, > 0 if ``positive``.  numpy scalars count,
    bools and strings do not; anything else raises ``ShapeError``."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)) \
            or not -np.inf < value < np.inf or (positive and value <= 0):
        raise ShapeError(f"{name} {value!r} must be a finite real"
                         f"{' > 0' if positive else ''}")
    return float(value)


def require_tall(X, name="X"):
    """Reject n > m (in X or each matrix of a stack X) instead of
    transposing silently; callers transpose."""
    m, n = X.shape[-2:]
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

    The t alpha blocks are contiguous runs of equal nonzero values, block
    i starting at index ``starts[i]`` with ``sizes[i]`` entries and value
    ``mu[i]``; ``owner`` gives the block number of every index (t on the
    zero block) and ``classes`` the blocks grouped by size, one (b, k)
    index array per size k, sizes ascending, rows in block order.
    ``beta`` lists the indices treated as zero (rank tolerance),
    ``beta0`` the extra m - n lift positions.  ``l``, ``j``, ``r_s`` are
    the 1-based within-block rank, the count of equal values strictly
    after, and the block multiplicity, per index.  ``alpha_blocks`` is a
    list view of the runs.  The index lists refuse in-place changes
    (``TypeError``).  ``values`` is a read-only copy of the vector, and
    ``tables`` its divided differences, built on first use only.
    """

    values: np.ndarray
    n: int
    m: int
    r: int
    t: int
    mu: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray
    classes: tuple
    beta: list
    beta0: list
    l: np.ndarray
    j: np.ndarray
    r_s: np.ndarray
    tols: Tolerances

    @property
    def alpha_blocks(self):
        """``alpha_blocks[i]`` lists the 0-based indices of block i."""
        return _FrozenList(_FrozenList(range(a, a + k)) for a, k in zip(
            self.starts.tolist(), self.sizes.tolist()))

    @property
    def betahat(self):
        return self.beta + self.beta0

    @cached_property
    def tables(self):
        """The read-only ``divided_differences(self)``, built once."""
        return _read_only(divided_differences(self))


class _FrozenList(list):
    """A list that refuses in-place changes (``TypeError``)."""

    def _frozen(self, *args):
        raise TypeError("list is read-only")

    append = extend = insert = pop = remove = clear = sort = reverse = \
        __setitem__ = __delitem__ = __iadd__ = __imul__ = _frozen

    def __reduce__(self):   # copies and pickles rebuild, never append
        return type(self), (list(self),)


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
    builds (the builder marks its arrays read-only) and replaces the entry
    whole, so a race between threads can only cause a miss."""

    entry = None

    def get(self, key, build, *args):
        entry = self.entry
        if entry is None or entry[0] != key:
            entry = self.entry = (key, build(*args))
        return entry[1]


# the prepared point of the last X: (key, svd, partition)
_LAST_SVD = _LastCall()


def svd_ordered(X) -> SvdDecomposition:
    """Deterministic ordered SVD of a finite matrix with n <= m.

    Singular values come out nonincreasing; the sign convention makes the
    largest-magnitude entry of each column of U positive, with V adjusted
    so that X = U diag(sigma) V^T is preserved.  The last X is kept: a
    bitwise-equal X gets the same read-only decomposition back, and with
    it the partition (and its tables) last built for it.
    """
    X = require_tall(as_matrix(X))
    key, entry = (X.shape, X.tobytes()), _LAST_SVD.entry
    if entry is None or entry[0] != key:
        entry = _LAST_SVD.entry = (key, _read_only(_svd(X)), None)
    return entry[1]


def _svd(X):
    U, s, Vt = np.linalg.svd(X, full_matrices=True)
    U, V = _fix_signs(U, Vt.T)
    return SvdDecomposition(U=U, sigma=s, V=V)


def sym_eig_ordered(A) -> EigDecomposition:
    """Deterministic eigendecomposition of a (nearly) symmetric matrix, or
    of every matrix of a (..., k, k) stack in one call, eigenvalues
    nonincreasing.  The input is symmetrized internally."""
    A = as_matrix(A, "A", ndim=None)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ShapeError(f"A must be square, got {A.shape}")
    S = 0.5 * A + 0.5 * A.mT                        # no overflow near max
    if A.shape[-1] == 1:   # what eigh returns for 1 x 1: the entry and 1
        return EigDecomposition(Q=np.ones(A.shape), lam=S[..., 0])
    lam, Q = np.linalg.eigh(S)
    return EigDecomposition(Q=_fix_signs(Q[..., ::-1]), lam=lam[..., ::-1])


def _run_starts(v, tol):
    """The first index of every run of tol-equal values of a nonincreasing
    float vector, as a list: an entry further than tol from the first entry
    of the current run starts the next run (the one tie rule).  A rise above
    SORT_TOL max(1, max |v|) raises ``NotSorted``."""
    rise = (v[1:] - v[:-1]).max(initial=0.0)
    if rise > 0 and rise > SORT_TOL * max(1.0, np.max(np.abs(v), initial=0.0)):
        raise NotSorted("input vector is not nonincreasing")
    starts, first = [], None
    for i, x in enumerate(v.tolist()):
        if first is None or abs(x - first) > tol:
            starts.append(i)
            first = x
    return starts


def cluster_ranks(V, tol):
    """The ``_run_starts`` rule on every row of a nonincreasing (b, k)
    stack at once, with one tolerance per row: the 1-based rank of each
    entry within its run (1 starts a run)."""
    ranks = np.ones(V.shape, dtype=int)
    start = V[:, 0]
    for j in range(1, V.shape[1]):
        new = np.abs(V[:, j] - start) > tol
        start = np.where(new, V[:, j], start)
        ranks[:, j] = np.where(new, 1, ranks[:, j - 1] + 1)
    return ranks


def size_classes(starts, sizes):
    """Contiguous blocks, given by their first indices and sizes (int
    arrays), grouped by size: a (b, k) index array per size k, one row per
    block in block order, sizes ascending.  ``partition_values`` builds
    them once per partition, as ``SingularPartition.classes``."""
    return tuple(starts[sizes == k][:, None] + np.arange(k)
                 for k in sorted(set(sizes.tolist())))


def _value_blocks(v, tols):
    """The partition rule of nonincreasing singular values v: (r, bounds,
    l), r the count above tols.rank max(1, v[0]), bounds the start of each
    block (the ``_run_starts`` runs of those r at tols.cluster max(1,
    v[0]), then the zero block), then n, l each 1-based rank in its block.
    A value below -tols.rank max(1, v[0]) raises ``NotSorted``."""
    n = len(v)
    scale = max(1.0, v[0]) if n else 1.0
    if (v < -tols.rank * scale).any():
        raise NotSorted("singular values must be nonnegative")
    r = np.count_nonzero(v > tols.rank * scale)
    bounds = np.array(_run_starts(v[:r], tols.cluster * scale)
                      + ([r, n] if r < n else [n]))
    return r, bounds, np.arange(1, n + 1) - np.repeat(bounds[:-1],
                                                      np.diff(bounds))


def partition_values(v, tols=TOLERANCES, m=None):
    """Partition a nonincreasing singular value vector into equal-value
    blocks.

    Entries at or below ``tols.rank * max(1, v[0])`` form the zero block
    beta and the rest cluster (the ``_run_starts`` rule at
    ``tols.cluster * max(1, v[0])``, see ``_value_blocks``) into alpha
    blocks with strictly decreasing distinct values mu.  The blocks come
    out as integer arrays (starts, sizes, owners, size classes).
    """
    v = as_matrix(v, "v", ndim=1)
    n = len(v)
    m = n if m is None else m
    r, bounds, l = _value_blocks(v, tols)
    t = len(bounds) - 1 - (r < n)
    mu = v[bounds[:t]]
    if (mu[1:] >= mu[:-1]).any():
        # adjacent clusters must be separated by more than the tolerance
        raise InconsistentPartition("cluster values not strictly decreasing")
    every = bounds[1:] - bounds[:-1]
    starts, sizes = bounds[:t], every[:t]
    r_s = np.repeat(every, every)
    return SingularPartition(
        values=_read_only(v.copy()), n=n, m=m, r=r, t=t, mu=mu,
        starts=starts, sizes=sizes,
        owner=np.repeat(np.arange(len(every)), every),
        classes=size_classes(starts, sizes), beta=_FrozenList(range(r, n)),
        beta0=_FrozenList(range(n, m)), l=l, j=r_s - l, r_s=r_s, tols=tols)


def partition_of(svd: SvdDecomposition, tols=TOLERANCES) -> SingularPartition:
    """The partition of sigma(X): ``svd_ordered``'s decomposition keeps
    one, read-only, for the last ``tols``; any other gauge builds one."""
    entry = _LAST_SVD.entry
    if entry is None or entry[1] is not svd:
        return partition_values(svd.sigma, tols, m=svd.shape[0])
    if entry[2] is None or entry[2].tols != tols:
        part = _read_only(partition_values(svd.sigma, tols, m=svd.shape[0]))
        entry = _LAST_SVD.entry = (*entry[:2], part)
    return entry[2]


_PACKAGE = __name__.rpartition(".")[0] + "."


def _outside_level():
    """The ``stacklevel`` that makes a warning issued by the caller of this
    function name the first frame outside this package."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get(
            "__name__", "").startswith(_PACKAGE):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class DividedDifferences:
    """Point-only alpha-term tables of sigma(X), column i < r at its block
    value mu_i, (mu, min_gap, warning text or "") per alpha block and the
    warning texts alone, in block order."""

    D: np.ndarray            # n x r: 1/(mu_i - sigma_j), 0 inside the block
    E: np.ndarray            # n x r: 1/(mu_i + sigma_j), halved (no overflow)
    C: np.ndarray            # r: 1/(2 mu_i)
    gaps: list
    texts: tuple

    def warn(self):
        """One ``ConditioningWarning`` per small-gap block, at the line of
        the caller outside this package."""
        if self.texts:
            level = _outside_level()
            for text in self.texts:
                warnings.warn(text, ConditioningWarning, stacklevel=level)


def divided_differences(part: SingularPartition) -> DividedDifferences:
    """The ``DividedDifferences`` of the values s = ``part.values`` over
    ``part``'s blocks, which ``part.tables`` keeps: the gap from mu to the
    rest of the lift [[0, X], [X^T, 0]] (sigma_j off the block, -sigma_j,
    0 if m > n) warns below GAP_WARN max(1, sigma_1)."""
    s, n, r = part.values, part.n, part.r
    mu, cols = part.mu, part.owner[:r]
    diff = mu - s[:, None]                           # n x t
    diff[np.arange(r), cols] = np.inf                # own block: D = 0
    with np.errstate(over="ignore"):   # mu + sigma_n may overflow to inf
        gap = np.minimum(np.abs(diff).min(axis=0, initial=np.inf), mu + s[-1:])
    gap = np.minimum(gap, mu if part.m > n else np.inf)
    warn = GAP_WARN * max(1.0, s[0]) if n else GAP_WARN
    text = ("spectral gap {:.3e} at block value {:.6g} below {:.1e}; "
            "second-order output ill-conditioned")
    gaps = _FrozenList((m, g, "" if g >= warn else text.format(g, m, warn))
                       for m, g in zip(mu.tolist(), gap.tolist()))
    E = 0.5 / (0.5 * mu + 0.5 * s[:, None])          # halved: no overflow
    return DividedDifferences((1.0 / diff)[:, cols], E[:, cols],
                              (0.5 / mu)[cols], gaps,
                              tuple(filter(None, (w for _, _, w in gaps))))


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
    rng = np.random.default_rng(as_count(seed, "seed"))
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
    return as_matrix(rows, str(path))   # ragged rows raise ShapeError


def write_matrix_csv(path, X):
    """Write a matrix as CSV with 17 significant digits."""
    X = as_matrix(X)
    with open(path, "w", encoding="utf-8") as fh:
        for row in X:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
