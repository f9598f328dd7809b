"""Second-order optimality analysis for min psi(X) + f(sigma(X)).

The pipeline is: check first-order stationarity of a candidate point
(-grad psi must be a subgradient of the spectral term), then evaluate
the curvature ``<H, hess H> + d2F`` over sampled critical-cone
directions, and probe quadratic growth directly.  Sampled certificates
are labeled evidence, not proof: the sufficient condition quantifies
over all cone directions and sampling cannot exhaust them, while a
single validated negative direction does refute optimality.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .absym import INF, SpectralFunctionSpec, _stacked, l1_spec, scale_spec
from .errors import AssumptionViolated, SamplingExhausted, ShapeError
from .matrix_core import CURVATURE_TOL, TOLERANCES, as_matrix, svd_ordered
from .oimf import F_eval, SpectralPoint, _subgradient, guided_offsets
from .oracles import fd_gradient_check


# -- objective smooth parts ------------------------------------------------------

def _entry_sums(A):
    """np.sum of a matrix, or a (k,) array over a (k, m, n) stack: each
    contiguous row is summed pairwise like the whole matrix, bitwise."""
    if A.ndim == 3:
        return np.sum(A.reshape(len(A), -1), axis=1)
    return float(np.sum(A))


class HalfSquaredDistance:
    """psi(X) = ||X - B||^2 / 2."""

    def __init__(self, B):
        self.B = as_matrix(B, "B")

    def value(self, X):
        return 0.5 * _entry_sums((X - self.B) ** 2)

    def gradient(self, X):
        return X - self.B

    def hessian_apply(self, X, H):
        return np.asarray(H, dtype=float)


class LeastSquares:
    """psi(X) = ||A(X) - b||^2 / 2 with A given as a table of matrices:
    A(X)_i = <A_i, X>."""

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 3 or self.A.shape[0] != len(self.b):
            raise ShapeError("A must be (p, m, n) with b of length p")

    def _apply(self, X):
        return np.tensordot(self.A, X, axes=([1, 2], [0, 1]))

    def value(self, X):
        if np.ndim(X) == 3:   # per matrix: a stacked gemm rounds differently
            return np.array([self.value(Xi) for Xi in X])
        r = self._apply(X) - self.b
        return 0.5 * float(r @ r)

    def gradient(self, X):
        r = self._apply(X) - self.b
        return np.tensordot(r, self.A, axes=(0, 0))

    def hessian_apply(self, X, H):
        return np.tensordot(self._apply(np.asarray(H, dtype=float)), self.A,
                            axes=(0, 0))


class QuadraticMinusRankOne:
    """psi(X) = ||X - B||^2 / 2 - gamma <E, X>^2 / 2: a strongly convex
    quadratic deflated along one matrix direction; gamma large enough
    makes it indefinite there, which is how saddle fixtures are built."""

    def __init__(self, B, E, gamma):
        self.B = as_matrix(B, "B")
        self.E = as_matrix(E, "E")
        self.gamma = float(gamma)

    def value(self, X):
        t = _entry_sums(self.E * X)
        return 0.5 * _entry_sums((X - self.B) ** 2) \
            - 0.5 * self.gamma * t * t

    def gradient(self, X):
        return X - self.B - self.gamma * float(np.sum(self.E * X)) * self.E

    def hessian_apply(self, X, H):
        H = np.asarray(H, dtype=float)
        return H - self.gamma * float(np.sum(self.E * H)) * self.E


@dataclass(frozen=True)
class ProblemSpec:
    """min psi(X) + f(sigma(X)); fold any weight into f before building
    (see absym.scale_spec).

    ``psi.value`` maps an (m, n) matrix to a float and a (k, m, n) stack
    to a (k,) array, entry i bitwise ``psi.value(X[i])``: the growth
    probe scores its samples in stacks."""

    psi: object
    f: SpectralFunctionSpec


@dataclass(frozen=True)
class SamplingConfig:
    n_samples: int = 200
    min_samples: int = 50
    max_candidates: int = 20_000
    seed: int = 0
    growth_eps: float = 1e-2
    growth_samples: int = 2000


@dataclass(frozen=True)
class OptimalityCertificate:
    stationarity_residual: float
    is_stationary: bool
    samples: list
    min_curvature: float
    growth_constant_observed: float
    verdict: str
    counterexample: object = None


def svt_solve(B, weight):
    """Singular value soft-thresholding: the minimizer of
    ||X - B||^2 / 2 + weight ||X||_*."""
    svd = svd_ordered(B)
    n = svd.shape[1]
    s = np.maximum(svd.sigma - weight, 0.0)
    return svd.U[:, :n] @ (s[:, None] * svd.V.T)


def objective(p: ProblemSpec, X):
    return float(p.psi.value(X)) + float(F_eval(p.f, X))


def stationarity_check(p: ProblemSpec, X0):
    """Residual of -grad psi(X0) against the subdifferential of F at X0:
    the larger of its alignment residual with X0 and f's violation at
    sigma(X0); the boolean is the residual within GAUGE_TOL ||grad psi||,
    the test ``SpectralPoint`` applies next (``oimf._subgradient``)."""
    X0 = as_matrix(X0, "X0")
    Y = -np.asarray(p.psi.gradient(X0), dtype=float)
    *_, residual, ok, _ = _subgradient(p.f, X0, Y, TOLERANCES)
    return float(residual), ok


def _curvature_from(p: ProblemSpec, X0, H, rep):
    """<H, hess psi(X0) H> + d2F from a second-subderivative report."""
    if not rep.critical:
        return INF
    quad = float(np.sum(H * np.asarray(p.psi.hessian_apply(X0, H))))
    return quad + rep.value


def curvature(p: ProblemSpec, X0, H):
    """<H, hess psi(X0) H> plus the second subderivative of the spectral
    term at X0 for -grad psi(X0); +inf outside the critical cone."""
    X0 = as_matrix(X0, "X0")
    H = as_matrix(H, "H")
    Y = -np.asarray(p.psi.gradient(X0), dtype=float)
    point = SpectralPoint(p.f, X0, Y)
    return _curvature_from(p, X0, H, point.second_subderivative(H))


def _structured_candidates(svd, part, rng, budget):
    """Directions expressed in the aligned gauge, densest first: diagonal
    patterns, single entries, two-index symmetric/antisymmetric pairs,
    then raw and beta-zeroed Gaussians.  Lazy: at most max(budget, 1)
    matrices, each built (and each Gaussian drawn) only when consumed."""
    m, n = part.m, part.n
    r = part.r

    def stream():
        for i in range(n):
            G = np.zeros((m, n))
            G[i, i] = 1.0
            yield G
            yield -G
        for i in range(n):
            for j in range(i + 1, n):
                S = np.zeros((m, n))
                S[i, j] = S[j, i] = 1.0
                yield S
                A = np.zeros((m, n))
                A[i, j], A[j, i] = 1.0, -1.0
                yield A
        for i in range(n, m):
            for j in range(n):
                G = np.zeros((m, n))
                G[i, j] = 1.0
                yield G
        while True:
            G = rng.standard_normal((m, n))
            yield G.copy()
            if r < n:
                G[r:, r:] = 0.0  # keep the zero block quiet: often critical
            yield G

    return itertools.islice(stream(), max(budget, 1))


def _validated_counterexample(p, X0, H, q):
    """A negative curvature direction must actually descend faster than
    the quadratic model along some probe step."""
    base = objective(p, X0)
    for t in (1e-2, 1e-3):
        if objective(p, X0 + t * H) < base + 0.25 * t * t * q:
            return True
    return False


_CHUNK_ENTRIES = 1 << 18   # matrix entries per direction stack or SVD stack


def certify(p: ProblemSpec, X0, cfg: SamplingConfig = SamplingConfig()):
    """Assemble an optimality certificate for the candidate point X0.

    Samples unit-norm critical-cone directions (structured generators
    plus rejection-filtered Gaussians), evaluates the curvature of each,
    and reports either a validated negative direction (optimality
    refuted), uniformly positive sampled curvature (evidence in favor),
    or inconclusive.  The candidates are normalised (zero ones skipped,
    still counted as tried) and evaluated in chunks, one
    ``SpectralPoint.second_subderivatives`` call each, then walked in
    stream order.  A chunk holds at most the samples still needed (and
    ``_CHUNK_ENTRIES`` entries), so every chunk size consumes the
    candidates, hook rows and random draws of a one-by-one loop.
    """
    X0 = as_matrix(X0, "X0")
    rep = fd_gradient_check(p.psi, X0)
    if not rep.ok:
        raise AssumptionViolated(
            f"psi hooks fail the finite-difference check: gradient rel err "
            f"{rep.gradient_rel_err:.2e}, hessian rel err "
            f"{rep.hessian_rel_err:.2e}")
    residual, ok = stationarity_check(p, X0)
    growth = quadratic_growth_probe(p, X0, cfg.growth_eps,
                                    cfg.growth_samples, cfg.seed)
    if not ok:
        return OptimalityCertificate(
            stationarity_residual=residual, is_stationary=False,
            samples=[], min_curvature=math.nan,
            growth_constant_observed=growth, verdict="not-stationary")

    Y = -np.asarray(p.psi.gradient(X0), dtype=float)
    point = SpectralPoint(p.f, X0, Y)
    svd = point.gauge
    rng = np.random.default_rng(cfg.seed)

    def candidates():
        """Nonzero candidates, normalised; every one drawn counts as tried.
        Guided directions come first: curvature-minimizing offsets of a
        few random base directions often sit inside the cone."""
        nonlocal tried
        guided = (D for _ in range(4)
                  for D in guided_offsets(X0, rng.standard_normal(X0.shape)))
        structured = (svd.U @ G @ svd.V.T for G in _structured_candidates(
            svd, point.part, rng, cfg.max_candidates))
        for H in itertools.chain(guided, structured):
            tried += 1
            nrm = np.linalg.norm(H)
            if nrm > 0:
                yield H / nrm

    samples = []
    counterexample = None
    tried = 0
    stream = candidates()
    cap = max(1, _CHUNK_ENTRIES // max(X0.size, 1))
    while len(samples) < cfg.n_samples:
        Hs = list(itertools.islice(stream,
                                   min(cfg.n_samples - len(samples), cap)))
        if not Hs:
            break
        for H, rep in zip(Hs, point.second_subderivatives(Hs)):
            if not rep.critical:
                continue
            q = _curvature_from(p, X0, H, rep)
            samples.append((H, q))
            if q < -CURVATURE_TOL and counterexample is None:
                if _validated_counterexample(p, X0, H, q):
                    counterexample = H

    if cfg.n_samples > 0 and len(samples) < cfg.min_samples:
        raise SamplingExhausted(
            f"only {len(samples)} cone members in {tried} candidates "
            f"(need {cfg.min_samples})")

    if not samples:
        return OptimalityCertificate(
            stationarity_residual=residual, is_stationary=True,
            samples=[], min_curvature=math.nan,
            growth_constant_observed=growth, verdict="inconclusive")

    min_curv = min(q for _, q in samples)
    if counterexample is not None:
        verdict = "necessary-violated"
    elif min_curv > CURVATURE_TOL:
        verdict = "sufficient-evidence"
    else:
        verdict = "inconclusive"
    return OptimalityCertificate(
        stationarity_residual=residual, is_stationary=True,
        samples=samples, min_curvature=float(min_curv),
        growth_constant_observed=growth, verdict=verdict,
        counterexample=counterexample)


def quadratic_growth_probe(p: ProblemSpec, X0, eps, n_samples, seed):
    """min over sampled X in ball(X0, eps) of the growth quotient
    [obj(X) - obj(X0)] / ||X - X0||^2; deterministic for a fixed seed.

    Sample i draws D = standard_normal(X0.shape), then u = uniform(0, 1),
    and is X0 + r D / ||D|| with r = eps max(u, 1e-12)^(1 / X0.size).
    Each chunk of samples takes one stacked SVD and one ``psi.value``
    call; one ``f.eval`` call scores all n_samples x min(m, n) singular
    values.  The quotients are bitwise those of one ``objective`` call
    per sample for any chunk size.  n_samples <= 0 calls no hook: +inf."""
    X0 = as_matrix(X0, "X0")
    n_samples = int(n_samples)
    if n_samples <= 0:
        return INF
    base = objective(p, X0)
    rng = np.random.default_rng(seed)
    d = X0.size
    chunk = max(1, _CHUNK_ENTRIES // max(d, 1))
    radii, nrm, psi = np.empty((3, n_samples))
    svals = np.empty((n_samples, min(X0.shape)))
    for lo in range(0, n_samples, chunk):
        Xs = np.empty((min(chunk, n_samples - lo),) + X0.shape)
        for i, D in enumerate(Xs, lo):
            rng.standard_normal(out=D)
            flat = D.reshape(-1)
            nrm[i] = math.sqrt(flat @ flat)   # np.linalg.norm(D)
            radii[i] = eps * max(rng.uniform(0.0, 1.0), 1e-12) ** (1.0 / d)
        at = slice(lo, lo + len(Xs))
        Xs /= nrm[at, None, None]
        Xs *= radii[at, None, None]
        Xs += X0
        psi[at] = _stacked(p.psi.value(Xs), len(Xs), "psi.value")
        svals[at] = np.linalg.svd(Xs, compute_uv=False)
    q = (psi + _stacked(p.f.eval(svals), n_samples, "f.eval") - base) \
        / (radii * radii)
    return float(np.fmin.reduce(q, initial=INF))


# -- shipped fixtures ------------------------------------------------------------

def soft_threshold_fixture():
    """The closed-form prox instance: B = diag(3, 1, 0.2), weight 0.5 on
    the nuclear norm; its minimizer thresholds the singular values."""
    B = np.diag([3.0, 1.0, 0.2])
    weight = 0.5
    p = ProblemSpec(psi=HalfSquaredDistance(B),
                    f=scale_spec(l1_spec(), weight))
    X0 = svt_solve(B, weight)
    return p, X0


def saddle_fixture():
    """A stationary non-minimizer: the quadratic is deflated along an
    antisymmetric direction that lies in the (full) critical cone, giving
    it strictly negative curvature there."""
    E = np.array([[0.0, 1.0], [-1.0, 0.0]])
    B = np.diag([2.5, 1.5])
    p = ProblemSpec(psi=QuadraticMinusRankOne(B, E, gamma=1.0),
                    f=scale_spec(l1_spec(), 0.5))
    X0 = np.diag([2.0, 1.0])
    return p, X0
