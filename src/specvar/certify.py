"""Second-order optimality analysis for min psi(X) + f(sigma(X)).

The pipeline is: check first-order stationarity of a candidate point
(-grad psi must be a subgradient of the spectral term), then evaluate
the curvature ``<H, hess H> + d2F`` over sampled critical-cone
directions, and score the objective on each sample's parabolic arc, the
curve along which the second subderivative is reached; a negative
direction is validated on its arc.  Sampled certificates are labeled
evidence, not proof: the sufficient condition quantifies over all cone
directions and sampling cannot exhaust them, while a single validated
negative direction does refute optimality.  The black-box ball probe
``quadratic_growth_probe`` is a separate check (``specvar growth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .absym import INF, SpectralFunctionSpec, _stacked, l1_spec, scale_spec
from .errors import (AssumptionViolated, NonFinite, SamplingExhausted,
                     ShapeError)
from .matrix_core import (CURVATURE_TOL, TOLERANCES, _chunk_size, _chunks,
                          as_count, as_matrix, as_real, svd_ordered)
from .oimf import (F_eval, SpectralPoint, _duality_gaps, _subgradient,
                   _zero_target_offsets, guided_offsets)
from .oracles import fd_gradient_check


# -- objective smooth parts ------------------------------------------------------

def _entry_sums(A):
    """np.sum of a matrix, or a (k,) array over a (k, m, n) stack: each
    contiguous row is summed pairwise like the whole matrix, bitwise."""
    if A.ndim == 3:
        return np.sum(A.reshape(len(A), -1), axis=1)
    return float(np.sum(A))


def _matching(X, like, like_name="B", name="X"):
    """X as a float array: one matrix or a (k, m, n) stack of them, (m, n)
    the shape ``like`` of psi's data; ``ShapeError`` otherwise, before
    any arithmetic could broadcast it."""
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-2:] != like:
        raise ShapeError(f"{name} {X.shape} and {like_name} {like} differ")
    return X


class HalfSquaredDistance:
    """psi(X) = ||X - B||^2 / 2."""

    def __init__(self, B):
        self.B = as_matrix(B, "B")

    def value(self, X):
        return 0.5 * _entry_sums((_matching(X, self.B.shape) - self.B) ** 2)

    def gradient(self, X):
        return _matching(X, self.B.shape) - self.B

    def hessian_apply(self, X, H):
        _matching(X, self.B.shape)
        return _matching(H, self.B.shape, name="H")


class LeastSquares:
    """psi(X) = ||A(X) - b||^2 / 2 with A given as a table of matrices:
    A(X)_i = <A_i, X>."""

    def __init__(self, A, b):
        self.A = as_matrix(A, "A", ndim=3)
        self.b = as_matrix(b, "b", ndim=1)
        if self.A.shape[0] != len(self.b):
            raise ShapeError("A must be (p, m, n) with b of length p")

    def _apply(self, X):
        return np.tensordot(self.A, X, axes=([1, 2], [0, 1]))

    def value(self, X):
        X = _matching(X, self.A.shape[1:], "A[0]")
        if X.ndim == 3:   # per matrix: a stacked gemm rounds differently
            return np.array([self.value(Xi) for Xi in X])
        r = self._apply(X) - self.b
        return 0.5 * float(r @ r)

    def gradient(self, X):
        r = self._apply(_matching(X, self.A.shape[1:], "A[0]")) - self.b
        return np.tensordot(r, self.A, axes=(0, 0))

    def hessian_apply(self, X, H):
        _matching(X, self.A.shape[1:], "A[0]")
        H = _matching(H, self.A.shape[1:], "A[0]", "H")
        if H.ndim == 3:   # per matrix, as in value
            return np.array([self.hessian_apply(X, Hi) for Hi in H])
        return np.tensordot(self._apply(H), self.A, axes=(0, 0))


class QuadraticMinusRankOne:
    """psi(X) = ||X - B||^2 / 2 - gamma <E, X>^2 / 2: a strongly convex
    quadratic deflated along one matrix direction; gamma large enough
    makes it indefinite there, which is how saddle fixtures are built."""

    def __init__(self, B, E, gamma):
        self.B = as_matrix(B, "B")
        self.E = as_matrix(E, "E", self.B, like_name="B")
        self.gamma = as_real(gamma, "gamma", positive=False)

    def value(self, X):
        X = _matching(X, self.B.shape)
        t = _entry_sums(self.E * X)
        return 0.5 * _entry_sums((X - self.B) ** 2) \
            - 0.5 * self.gamma * t * t

    def gradient(self, X):
        X = _matching(X, self.B.shape)
        return X - self.B - self.gamma * float(np.sum(self.E * X)) * self.E

    def hessian_apply(self, X, H):
        _matching(X, self.B.shape)
        H = _matching(H, self.B.shape, name="H")
        t = _entry_sums(self.E * H)
        if H.ndim == 3:
            t = t[:, None, None]
        return H - self.gamma * t * self.E


@dataclass(frozen=True)
class ProblemSpec:
    """min psi(X) + f(sigma(X)); fold any weight into f before building
    (see absym.scale_spec).

    ``psi.value`` maps an (m, n) matrix to a float and a (k, m, n) stack
    to a (k,) array, entry i bitwise ``psi.value(X[i])``; likewise
    ``psi.hessian_apply(X, H)`` maps a (k, m, n) stack H to a (k, m, n)
    stack, entry i bitwise ``psi.hessian_apply(X, H[i])``.  ``objective``
    and the gradient check score their points, and ``certify`` its
    curvatures, in stacks."""

    psi: object
    f: SpectralFunctionSpec


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling plan of ``certify``: every count an int >= 0, n_samples
    0 or at least min_samples, and ``growth_eps`` a finite real > 0,
    else ``ShapeError`` naming the field.  ``growth_eps`` is the longer
    step of the arcs that score growth and validate a counterexample (the
    other is growth_eps / 10)."""

    n_samples: int = 200
    min_samples: int = 50
    max_candidates: int = 20_000
    seed: int = 0
    growth_eps: float = 1e-2

    def __post_init__(self):
        for name in ("n_samples", "min_samples", "max_candidates", "seed"):
            as_count(getattr(self, name), name)
        as_real(self.growth_eps, "growth_eps")
        if 0 < self.n_samples < self.min_samples:
            raise ShapeError(f"n_samples {self.n_samples} must be 0 or at "
                             f"least min_samples {self.min_samples}")


@dataclass(frozen=True)
class OptimalityCertificate:
    """What ``certify`` found at X0.  ``samples`` holds (H, q) per
    accepted critical direction, ``min_curvature`` the least q (NaN with
    no samples).  ``min_arc_quotient`` is the least
    [obj(X0 + t H + t^2 D_H) - obj(X0)] / t^2 over the samples' arcs at
    t in {growth_eps, growth_eps / 10} (see ``_arc_quotients``), +inf
    with no samples; it tends to min q / 2.  ``counterexample`` is the
    first sample, in stream order, with q < -CURVATURE_TOL whose arc
    quotient at either t is below q / 4."""

    stationarity_residual: float
    is_stationary: bool
    samples: list
    min_curvature: float
    verdict: str
    counterexample: object = None
    min_arc_quotient: float = INF


def svt_solve(B, weight):
    """Singular value soft-thresholding: the minimizer of
    ||X - B||^2 / 2 + weight ||X||_*."""
    svd = svd_ordered(B)
    n = svd.shape[1]
    s = np.maximum(svd.sigma - weight, 0.0)
    return svd.U[:, :n] @ (s[:, None] * svd.V.T)


def objective(p: ProblemSpec, X):
    """psi(X) + F(X); a (k, m, n) stack gives a (k,) array, entry i
    bitwise ``objective(p, X[i])``, from one ``psi.value`` and one stacked
    ``F_eval`` call."""
    if np.ndim(X) == 3:
        return (_stacked(p.psi.value(X), len(X), "psi.value")
                + _stacked(F_eval(p.f, X), len(X), "f.eval"))
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


def _curvatures(p: ProblemSpec, X0, point, Hs, cone):
    """q = <H, hess psi(X0) H> + d2F for a checked (k, m, n) stack at the
    ``SpectralPoint`` of X0, +inf off the critical cone: the value half
    ``point._values`` on the stack's ``_duality_gaps`` arrays ``cone`` (d2F
    is each report's value, bitwise), then one ``psi.hessian_apply`` call
    on the critical rows.  It never warns; its callers do, once."""
    Hhat, d1, _, tols, crit = cone
    d2f, alpha, beta = point._values(Hhat, d1, tols, crit)
    q = np.full(len(Hs), INF)
    if crit.any():
        Hc, d2f = Hs[crit], d2f[crit]
        HD = _stacked(np.asarray(p.psi.hessian_apply(X0, Hc), dtype=float),
                      len(Hc), "psi.hessian_apply", X0.shape)
        with np.errstate(over="ignore", invalid="ignore"):   # as floats add
            d2F = np.where(np.isfinite(d2f), d2f + alpha[crit] + beta[crit],
                           INF)
        q[crit] = _entry_sums(Hc * HD) + d2F
    return q


def curvature(p: ProblemSpec, X0, H):
    """<H, hess psi(X0) H> plus the second subderivative of the spectral
    term at X0 for -grad psi(X0); +inf outside the critical cone."""
    X0 = as_matrix(X0, "X0")
    Hs = as_matrix(H, "H", X0, like_name="X0")[None]
    Y = -np.asarray(p.psi.gradient(X0), dtype=float)
    point = SpectralPoint(p.f, X0, Y)
    cone = _duality_gaps(p.f, point.gauge, point.part, point.Y, Hs)
    point.part.tables.warn()
    return float(_curvatures(p, X0, point, Hs, cone)[0])


class _CandidateStream:
    """Directions expressed in the aligned gauge, densest first: +-E_ii,
    then S_ij and A_ij for i < j, then E_ij for the rows past n, then per
    Gaussian draw the raw matrix and its beta-zeroed copy.  At most
    max(budget, 1) in all; ``take(k)`` gives the next ones, up to k, as
    one (k, m, n) stack.  The structured ones are written by index into
    zeros (-E_ii is E_ii negated, -0.0 entries and all), and the draws a
    stack needs come from one ``standard_normal`` block: the rng is
    untouched until the first Gaussian, no draw is made before it is
    needed, and the copy of a draw that ends a stack opens the next."""

    def __init__(self, part, rng, budget):
        m, n = part.m, part.n
        self.shape, self.r, self.rng = (m, n), part.r, rng
        self.left, self.taken, self.copy = max(budget, 1), 0, None
        # two (row, column, value) entries per structured candidate, a
        # one-entry pattern's twice; -E_ii is +E_ii times its sign
        d = np.repeat(np.arange(n), 2)
        iu, ju = (np.repeat(i, 2) for i in np.triu_indices(n, 1))
        ie, je = np.repeat(np.arange(n, m), n), np.tile(np.arange(n), m - n)
        self.rows = np.stack([np.concatenate([d, iu, ie]),
                              np.concatenate([d, ju, ie])], axis=1)
        self.cols = np.stack([np.concatenate([d, ju, je]),
                              np.concatenate([d, iu, je])], axis=1)
        self.values = np.ones(self.rows.shape)
        self.values[2 * n + 1:2 * n + len(iu):2, 1] = -1.0   # A_ji
        self.sign = np.ones(len(self.rows))
        self.sign[1:2 * n:2] = -1.0

    def take(self, k):
        k = min(k, self.left)
        a = self.taken
        b = min(a + k, len(self.rows))
        self.left -= k
        self.taken += k
        G = np.zeros((k,) + self.shape)
        if a < b:
            G[np.arange(b - a)[:, None], self.rows[a:b], self.cols[a:b]] = \
                self.values[a:b]
            G[:b - a] *= self.sign[a:b, None, None]
        out = G[max(b - a, 0):]
        if len(out) and self.copy is not None:
            out[0] = self.copy
            out, self.copy = out[1:], None
        if len(out):
            draws = self.rng.standard_normal(((len(out) + 1) // 2,)
                                             + self.shape)
            out[0::2] = draws
            draws[:, self.r:, self.r:] = 0.0   # the copy: a quiet zero block
            out[1::2] = draws[:len(out) // 2]
            if len(out) % 2:
                self.copy = draws[-1].copy()
        return G


def _arc_quotients(p: ProblemSpec, X0, point, Hs, Hhat, eps):
    """[obj(X0 + t H + t^2 D_H) - obj(X0)] / t^2 for every H of a (k, m, n)
    stack and t = eps (row 0) and eps / 10 (row 1): a (2, k) array.

    D_H is half the zero-target cancelling direction of H
    (``oimf._zero_target_offsets``, as the last offset ``guided_offsets``
    gives for H; the other offset is not built), read in the aligned gauge
    of ``point`` from Hhat = U^T H V of its cone pass, so the arc is the
    parabola X0 + t H + t^2 W / 2 with W = 2 D_H, on which the second
    subderivative is reached: at a stationary X0 and a critical H the
    quotient tends to half the curvature q of H.  Per chunk of the stack
    one zero-target pass and, per t, one stacked ``objective`` call; each
    row bitwise that of H alone.  The step t is absolute, so on a badly
    scaled psi the quotients can stray far from q / 2.  A NaN quotient
    raises ``NonFinite``."""
    base = objective(p, X0)
    ts = (eps, eps / 10)
    q = np.empty((len(ts), len(Hs)))
    for at in _chunks(X0, len(Hs)):
        H = Hs[at]
        D = _zero_target_offsets(point.gauge, point.part, Hhat[at])
        for row, t in enumerate(ts):
            q[row, at] = (objective(p, X0 + t * H + (t * t) * D)
                          - base) / (t * t)
    if np.isnan(q).any():
        bad = np.argwhere(np.isnan(q))[0]
        raise NonFinite(f"arc quotient of sample {bad[1]} at t = "
                        f"{ts[bad[0]]:g} is NaN")
    return q


def certify(p: ProblemSpec, X0, cfg: SamplingConfig = SamplingConfig()):
    """Assemble an optimality certificate for the candidate point X0.

    Samples unit-norm critical-cone directions (structured generators
    plus rejection-filtered Gaussians), evaluates the curvature of each,
    scores each one's parabolic arc, and reports either a negative
    direction that its arc validates (optimality refuted), uniformly
    positive sampled curvature (evidence in favor), or inconclusive.
    The candidates are normalised (zero ones skipped, still counted as
    tried) and tested in passes, each one stack drawn from
    ``_CandidateStream``: per pass one gauge product U G V^T for its
    structured candidates and the cone test alone (``_duality_gaps``, one
    ``f.subderivative`` call); a pass keeps its critical rows with their
    Hhat = U^T H V, formed once per candidate.  The guided offsets of
    four random base directions come first, from one pass before any
    structured Gaussian is drawn (none when no samples are asked for); a
    pass takes at most the samples still needed (and ``_CHUNK_ENTRIES``
    entries), so every chunk size walks the same candidates and hook
    rows.  After the last pass the value half runs once per ``_chunks``
    chunk of the accepted stack (``_curvatures``: one
    ``f.second_subderivative`` call, the alpha and beta terms, one
    ``psi.hessian_apply`` call, no report objects), then the sample count
    is checked.  Last, the accepted stack's parabolic arcs are scored from
    the kept Hhat (``_arc_quotients``): their least quotient is
    ``min_arc_quotient``, and the counterexample is the first row with
    q < -CURVATURE_TOL and an arc quotient below q / 4, the test
    obj < obj(X0) + t^2 q / 4.  The objective is evaluated at X0 and on
    the arcs only.  Small gaps warn once, from the guided offsets.
    """
    X0 = as_matrix(X0, "X0")
    rep = fd_gradient_check(p.psi, X0)
    if not rep.ok:
        raise AssumptionViolated(
            f"psi hooks fail the finite-difference check: gradient rel err "
            f"{rep.gradient_rel_err:.2e}, hessian rel err "
            f"{rep.hessian_rel_err:.2e}")
    Y = -np.asarray(p.psi.gradient(X0), dtype=float)
    aligned = _subgradient(p.f, X0, Y, TOLERANCES)   # as stationarity_check
    residual, ok = float(aligned[3]), aligned[4]
    if not ok:
        return OptimalityCertificate(
            stationarity_residual=residual, is_stationary=False,
            samples=[], min_curvature=math.nan, verdict="not-stationary")

    point = SpectralPoint._from_subgradient(p.f, X0, Y, aligned)
    svd = point.gauge
    rng = np.random.default_rng(cfg.seed)
    # guided directions come first: curvature-minimizing offsets of a few
    # random base directions often sit inside the cone
    guided = np.array(guided_offsets(X0, rng.standard_normal(
        (4,) + X0.shape)) if cfg.n_samples > 0 else [])
    stream = _CandidateStream(point.part, rng, cfg.max_candidates)

    passes = []   # per cone pass: its critical H and _duality_gaps rows
    kept = tried = 0
    cap = _chunk_size(X0)
    while kept < cfg.n_samples:
        k = min(cfg.n_samples - kept, cap)
        Hs, guided = guided[:k], guided[k:]
        Gs = stream.take(k - len(Hs))
        if len(Gs):
            Gs = svd.U @ Gs @ svd.V.T
            Hs = np.concatenate([Hs, Gs]) if len(Hs) else Gs
        if not len(Hs):
            break
        tried += len(Hs)   # zero candidates count as tried, then drop out
        flat = Hs.reshape(len(Hs), -1)
        nrm = np.sqrt(np.vecdot(flat, flat))   # np.linalg.norm, bitwise
        Hs = Hs[nrm > 0] / nrm[nrm > 0, None, None]
        if not len(Hs):
            continue
        cone = _duality_gaps(p.f, svd, point.part, point.Y, Hs)
        crit = cone[-1]
        passes.append([Hs[crit]] + [a[crit] for a in cone])
        kept += int(crit.sum())

    q = np.empty(0)
    if passes:   # the value half runs even with no row kept
        Hs, *cone = (np.concatenate(a) for a in zip(*passes))
        q = np.concatenate([
            _curvatures(p, X0, point, Hs[at], [a[at] for a in cone])
            for at in _chunks(X0, kept) or [slice(0, 0)]])

    if cfg.n_samples > 0 and kept < cfg.min_samples:
        raise SamplingExhausted(
            f"only {kept} cone members in {tried} candidates "
            f"(need {cfg.min_samples})")

    samples, min_curv, min_arc, counterexample = [], math.nan, INF, None
    if kept:
        arcs = _arc_quotients(p, X0, point, Hs, cone[0], cfg.growth_eps)
        descends = (q < -CURVATURE_TOL) & (arcs < 0.25 * q).any(axis=0)
        if descends.any():
            counterexample = Hs[np.argmax(descends)]
        q = q.tolist()
        samples, min_curv = list(zip(Hs, q)), min(q)
        min_arc = float(arcs.min())
    if counterexample is not None:
        verdict = "necessary-violated"
    elif min_curv > CURVATURE_TOL:
        verdict = "sufficient-evidence"
    else:
        verdict = "inconclusive"
    return OptimalityCertificate(
        stationarity_residual=residual, is_stationary=True,
        samples=samples, min_curvature=float(min_curv), verdict=verdict,
        counterexample=counterexample, min_arc_quotient=min_arc)


def quadratic_growth_probe(p: ProblemSpec, X0, eps, n_samples, seed):
    """min over sampled X in ball(X0, eps) of the growth quotient
    [obj(X) - obj(X0)] / ||X - X0||^2: an observed constant, deterministic
    for a fixed seed.  A black-box check (``specvar growth``): uniform
    points rarely fall near a descending arc, so it can report positive
    growth at a stationary saddle, and ``certify`` does not run it.  Of
    the two children of ``SeedSequence(seed)``, the first draws all
    n_samples u = random() in one block, the second each chunk's
    directions D in one standard_normal((k, m, n)) block.  Sample i is
    X0 + r D / sqrt(sum(D * D)), r = eps max(u, 1e-12)^(1 / X0.size), for
    every chunk size and every n_samples > i: more samples never raise
    the probe.  Per chunk one stacked ``objective`` call gives bitwise
    the quotients of one call per sample.  n_samples <= 0 calls no hook:
    +inf.
    An eps that is not finite and > 0, an n_samples that is not an int or
    a seed that is not an int >= 0 raises ``ShapeError``, and a NaN
    quotient ``NonFinite``."""
    eps = as_real(eps, "eps")
    X0 = as_matrix(X0, "X0")
    n_samples = as_count(n_samples, "n_samples", None)
    seed = as_count(seed, "seed")
    if n_samples <= 0:
        return INF
    base = objective(p, X0)
    radius_rng, direction_rng = map(np.random.default_rng,
                                    np.random.SeedSequence(seed).spawn(2))
    d = X0.size
    radii = eps * np.maximum(radius_rng.random(n_samples), 1e-12) ** (1.0 / d)
    obj = np.empty(n_samples)
    for at in _chunks(X0, n_samples):
        Xs = direction_rng.standard_normal((at.stop - at.start,) + X0.shape)
        D = Xs.reshape(len(Xs), -1)
        Xs /= np.sqrt(np.sum(D * D, axis=1))[:, None, None]
        Xs *= radii[at, None, None]
        Xs += X0
        obj[at] = objective(p, Xs)
    q = (obj - base) / (radii * radii)
    if np.isnan(q).any():
        raise NonFinite(f"growth quotient of sample "
                        f"{np.flatnonzero(np.isnan(q))[0]} is NaN")
    return float(q.min(initial=INF))


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
