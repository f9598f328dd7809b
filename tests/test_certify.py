import importlib
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from specvar.absym import INF, l1_spec, scale_spec
from specvar.certify import (
    HalfSquaredDistance,
    LeastSquares,
    ProblemSpec,
    QuadraticMinusRankOne,
    SamplingConfig,
    certify,
    curvature,
    objective,
    quadratic_growth_probe,
    saddle_fixture,
    soft_threshold_fixture,
    stationarity_check,
    svt_solve,
)
from specvar.errors import AssumptionViolated, NonFinite, SamplingExhausted
from specvar.errors import ShapeError
from specvar.oimf import SpectralPoint, _critical_subspaces, _duality_gaps
from specvar.oracles import fd_gradient_check

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402


class TestSvt:
    def test_thresholds_singular_values(self):
        B = np.diag([3.0, 1.0, 0.2])
        X = svt_solve(B, 0.5)
        np.testing.assert_allclose(X, np.diag([2.5, 0.5, 0.0]), atol=1e-12)

    def test_is_prox_minimizer(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 3))
        w = 0.7
        f = scale_spec(l1_spec(), w)
        p = ProblemSpec(psi=HalfSquaredDistance(B), f=f)
        X = svt_solve(B, w)
        base = objective(p, X)
        for _ in range(200):
            Z = X + 1e-2 * rng.standard_normal((4, 3))
            assert objective(p, Z) >= base - 1e-12


class TestStationarity:
    def test_soft_threshold_fixture_stationary(self):
        p, X0 = soft_threshold_fixture()
        residual, ok = stationarity_check(p, X0)
        assert ok and residual <= 1e-9

    def test_data_point_not_stationary(self):
        p, _ = soft_threshold_fixture()
        residual, ok = stationarity_check(p, p.psi.B)
        assert not ok and residual > 1e-3

    def test_zero_gradient_at_origin(self):
        class ZeroPsi:
            def value(self, X):
                return 0.0

            def gradient(self, X):
                return np.zeros_like(X)

            def hessian_apply(self, X, H):
                return np.zeros_like(H)

        p = ProblemSpec(psi=ZeroPsi(), f=l1_spec())
        residual, ok = stationarity_check(p, np.zeros((2, 2)))
        assert ok and residual == 0.0


class TestCurvature:
    def test_smooth_direction_identity_hessian(self):
        p, X0 = soft_threshold_fixture()
        H = np.zeros((3, 3))
        H[0, 0] = 1.0
        assert curvature(p, X0, H) == pytest.approx(1.0, abs=1e-9)

    def test_outside_cone_infinite(self):
        p, X0 = soft_threshold_fixture()
        H = np.zeros((3, 3))
        H[2, 2] = -1.0  # forbidden: the interior beta component must stay 0
        assert curvature(p, X0, H) == INF

    def test_quadratic_homogeneity(self):
        p, X0 = soft_threshold_fixture()
        rng = np.random.default_rng(1)
        H = rng.standard_normal((3, 3))
        H[2, :] = 0.0
        H[:, 2] = 0.0
        q = curvature(p, X0, H)
        assert math.isfinite(q)
        assert curvature(p, X0, 3.0 * H) == pytest.approx(9.0 * q, rel=1e-8)

    def test_matches_parabolic_quotient(self):
        p, X0 = soft_threshold_fixture()
        rng = np.random.default_rng(2)
        base = objective(p, X0)
        for _ in range(5):
            H = rng.standard_normal((3, 3))
            H[2, :] = 0.0
            H[:, 2] = 0.0
            H /= np.linalg.norm(H)
            q = curvature(p, X0, H)
            t = 1e-3
            quot = (objective(p, X0 + t * H) - base) / (0.5 * t * t)
            assert quot == pytest.approx(q, abs=0.05)


class TestCertify:
    def test_soft_threshold_sufficient_evidence(self):
        p, X0 = soft_threshold_fixture()
        cfg = SamplingConfig(n_samples=120, min_samples=100, seed=0)
        cert = certify(p, X0, cfg)
        assert cert.verdict == "sufficient-evidence"
        assert cert.is_stationary and cert.stationarity_residual <= 1e-9
        assert len(cert.samples) >= 100
        assert cert.min_curvature >= 0.9
        assert quadratic_growth_probe(p, X0, cfg.growth_eps, 2000,
                                      cfg.seed) >= 0.25
        assert cert.min_arc_quotient >= 0.25

    def test_saddle_necessary_violated(self):
        p, X0 = saddle_fixture()
        cfg = SamplingConfig(n_samples=60, min_samples=20, seed=0)
        cert = certify(p, X0, cfg)
        assert cert.verdict == "necessary-violated"
        assert cert.counterexample is not None
        H = cert.counterexample
        q = curvature(p, X0, H)
        assert q < -1e-7
        # descent confirmation along the stored direction
        base = objective(p, X0)
        assert any(objective(p, X0 + t * H) < base + 0.25 * t * t * q
                   for t in (1e-2, 1e-3))

    def test_not_stationary_short_circuit(self):
        p, _ = soft_threshold_fixture()
        cert = certify(p, p.psi.B, SamplingConfig(n_samples=10,
                                                  min_samples=1))
        assert cert.verdict == "not-stationary"
        assert not cert.is_stationary and cert.samples == []

    def test_zero_samples_inconclusive(self):
        p, X0 = soft_threshold_fixture()
        cert = certify(p, X0, SamplingConfig(n_samples=0, min_samples=0))
        assert cert.verdict == "inconclusive"

    def test_deterministic(self):
        p, X0 = soft_threshold_fixture()
        cfg = SamplingConfig(n_samples=40, min_samples=10, seed=7)
        a = certify(p, X0, cfg)
        b = certify(p, X0, cfg)
        assert a.verdict == b.verdict
        assert a.min_curvature == b.min_curvature
        assert all(np.array_equal(h1, h2) and q1 == q2
                   for (h1, q1), (h2, q2) in zip(a.samples, b.samples))

    def test_bad_psi_hooks_rejected(self):
        class Wrong(HalfSquaredDistance):
            def gradient(self, X):
                return 1.5 * (X - self.B)

        p, X0 = soft_threshold_fixture()
        bad = ProblemSpec(psi=Wrong(p.psi.B), f=p.f)
        with pytest.raises(AssumptionViolated):
            certify(bad, X0)

    @pytest.mark.parametrize("eps", [1e-10, 3e-10, 1e-9])
    def test_near_stationary_point_gets_a_verdict(self, eps):
        # a residual this small passes stationarity_check, and SpectralPoint
        # accepts the same -grad psi at the scale GAUGE_TOL ||Y||
        p, X0 = soft_threshold_fixture()
        X = X0.copy()
        X[0, 0] += eps
        cert = certify(p, X, SamplingConfig(n_samples=20, min_samples=10))
        assert cert.is_stationary
        assert cert.verdict == "sufficient-evidence"

    @pytest.mark.parametrize("eps", [1e-8, 3e-8])
    def test_past_the_gauge_scale_is_not_stationary(self, eps):
        # the aligned values of -grad psi rise by eps > GAUGE_TOL ||grad psi||:
        # stationarity_check rejects the point by the test SpectralPoint
        # would apply next, so certify reports it instead of raising
        p, X0 = soft_threshold_fixture()
        X = X0.copy()
        X[0, 0] += eps
        cert = certify(p, X, SamplingConfig(n_samples=20, min_samples=10))
        assert not cert.is_stationary
        assert cert.verdict == "not-stationary"

    def test_sampling_exhausted(self):
        p, X0 = soft_threshold_fixture()
        with pytest.raises(SamplingExhausted):
            certify(p, X0, SamplingConfig(n_samples=500, min_samples=400,
                                          max_candidates=60))

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e8])
    def test_badly_scaled_quadratic_certifies(self, s):
        # an exact quadratic at entries of size s: the gradient check's
        # step grows with them, so psi is not refused
        B = np.diag([3.0 * s, s])
        p = ProblemSpec(HalfSquaredDistance(B), scale_spec(l1_spec(), 0.5))
        X0 = np.diag([3.0 * s - 0.5, s - 0.5])
        cert = certify(p, X0, SamplingConfig(n_samples=40, min_samples=10))
        assert cert.verdict == "sufficient-evidence"


class TestGrowthProbe:
    def test_convex_fixture_strong_growth(self):
        p, X0 = soft_threshold_fixture()
        g = quadratic_growth_probe(p, X0, 1e-2, 10_000, seed=0)
        assert g >= 0.25

    def test_negative_at_non_stationary(self):
        p, _ = soft_threshold_fixture()
        g = quadratic_growth_probe(p, p.psi.B, 1e-2, 2000, seed=0)
        assert g < 0.0

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_strongly_convex_fixture_grows_at_least_half(self, eps):
        # obj = ||X - B||^2 / 2 + ||X||_* / 2 is 1-strongly convex and X0
        # minimises it, so obj(X) - obj(X0) >= ||X - X0||^2 / 2 and every
        # sampled quotient is >= 1/2.  The slack covers rounding: the
        # difference of two objective values near 1.77 (each with one 3x3
        # SVD) is good to ~1e-14, and the smallest radius drawn for these
        # seeds is 0.19 eps, so at eps = 1e-3 the quotient is good to 3e-7.
        p, X0 = soft_threshold_fixture()
        for seed in range(20):
            g = quadratic_growth_probe(p, X0, eps, 4000, seed)
            assert g >= 0.5 - 1e-6, (seed, g)

    def test_deterministic(self):
        p, X0 = soft_threshold_fixture()
        a = quadratic_growth_probe(p, X0, 1e-2, 500, seed=3)
        b = quadratic_growth_probe(p, X0, 1e-2, 500, seed=3)
        assert a == b


class TestLeastSquaresPsi:
    def test_matches_half_squared_for_identity_map(self):
        rng = np.random.default_rng(3)
        m, n = 3, 2
        A = np.zeros((m * n, m, n))
        for k in range(m * n):
            A[k].flat[k] = 1.0
        B = rng.standard_normal((m, n))
        ls = LeastSquares(A, B.ravel())
        hs = HalfSquaredDistance(B)
        X = rng.standard_normal((m, n))
        assert ls.value(X) == pytest.approx(hs.value(X))
        np.testing.assert_allclose(ls.gradient(X), hs.gradient(X),
                                   atol=1e-12)
        H = rng.standard_normal((m, n))
        np.testing.assert_allclose(ls.hessian_apply(X, H),
                                   hs.hessian_apply(X, H), atol=1e-12)


class TestQuadraticMinusRankOne:
    def test_hessian_deflation(self):
        E = np.array([[0.0, 1.0], [-1.0, 0.0]])
        psi = QuadraticMinusRankOne(np.zeros((2, 2)), E, gamma=1.0)
        H = E / np.linalg.norm(E)
        # <H, hess H> = 1 - gamma <E, H>^2 = 1 - 2
        val = float(np.sum(H * psi.hessian_apply(np.zeros((2, 2)), H)))
        assert val == pytest.approx(-1.0)


class TestBetaCoupledCurvature:
    def test_coupled_direction_vs_parabolic_quotient(self):
        # directions coupling the positive and zero blocks activate the
        # beta correction term; the objective quotient along the
        # curvature-minimizing parabola must converge to the analytic
        # value (the straight-line quotient stays strictly above it)
        from specvar.sv_calculus import min_direction_construct

        p, X0 = soft_threshold_fixture()
        base = objective(p, X0)
        rng = np.random.default_rng(8)
        for _ in range(5):
            H = np.zeros((3, 3))
            H[0, 2], H[2, 0] = rng.standard_normal(2)
            H[1, 2], H[2, 1] = rng.standard_normal(2)
            H[0, 0] = rng.standard_normal()
            H /= np.linalg.norm(H)
            q = curvature(p, X0, H)
            assert math.isfinite(q)
            What = min_direction_construct(X0, H, np.zeros(3))
            t = 1e-3
            quot = (objective(p, X0 + t * H + 0.5 * t * t * What)
                    - base) / (0.5 * t * t)
            assert quot == pytest.approx(q, abs=0.05)
            line = (objective(p, X0 + t * H) - base) / (0.5 * t * t)
            assert line >= q - 0.05


class TestFlagChecks:
    def test_second_subderivative_needs_flags(self):
        from dataclasses import replace
        from specvar.oimf import F_second_subderivative
        f = replace(l1_spec(), lipschitz_on_domain=False)
        with pytest.raises(AssumptionViolated):
            F_second_subderivative(f, np.diag([1.0, 0.0]), np.eye(2),
                                   np.eye(2))

    def test_subderivative_needs_flags(self):
        from dataclasses import replace
        from specvar.oimf import F_subderivative
        f = replace(l1_spec(), convex=False, lsc=False,
                    lipschitz_on_domain=False)
        with pytest.raises(AssumptionViolated):
            F_subderivative(f, np.diag([1.0, 0.0]), np.eye(2))


def _soft_instance(m, n, seed):
    """1/2 ||X - B||^2 + 0.5 ||X||_* with a repeated singular value of B
    above the threshold and n // 4 below it: X0 = prox has a cluster and
    a zero block."""
    rng = np.random.default_rng(seed)
    nb = n // 4
    above = np.linspace(3.0, 1.0, n - nb - 1)
    above = np.insert(above, len(above) // 2, above[len(above) // 2])
    b = np.concatenate([above, np.linspace(0.4, 0.05, nb)])
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = U[:, :n] @ np.diag(b) @ V.T
    p = ProblemSpec(psi=HalfSquaredDistance(B),
                    f=scale_spec(l1_spec(), 0.5))
    return p, svt_solve(B, 0.5)


def _saddle_instance(n):
    X0 = np.diag(np.linspace(3.0, 1.0, n))
    E = np.zeros((n, n))
    E[0, 1], E[1, 0] = 1.0, -1.0
    p = ProblemSpec(psi=QuadraticMinusRankOne(X0 + 0.5 * np.eye(n), E, 1.0),
                    f=scale_spec(l1_spec(), 0.5))
    return p, X0


def _candidates_one_at_a_time(part, rng, project):
    """The documented candidate order, one matrix built per candidate:
    +-E_ii, S_ij then A_ij for i < j, E_ij for the rows past n, then each
    Gaussian draw projected alone."""
    m, n = part.m, part.n
    for i in range(n):
        E = np.zeros((m, n))
        E[i, i] = 1.0
        yield E
        yield -E
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
            E = np.zeros((m, n))
            E[i, j] = 1.0
            yield E
    while True:
        yield project(rng.standard_normal((1, m, n)))[0]


def _l1_span(part):
    """T of l1 at a Y with weight 1 on the alpha blocks and 1/2 on the
    zero block: {Hhat[r:, r:] = 0}."""
    sy = np.where(np.arange(part.n) < part.r, 1.0, 0.5)
    return _critical_subspaces(l1_spec(), part, sy)[1]


class TestCandidateStream:
    def test_lazy_and_rng_untouched_until_gaussians(self):
        from specvar.certify import _CandidateStream
        from specvar.matrix_core import partition_of, svd_ordered
        X = np.diag([2.0, 1.0, 0.0])
        part = partition_of(svd_ordered(X))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        first = _CandidateStream(part, rng, 10**9, _l1_span(part)).take(12)
        assert rng.bit_generator.state == state   # 6 diagonal, 6 pairs
        assert first[0][0, 0] == 1.0 and first[1][0, 0] == -1.0
        assert len(_CandidateStream(part, rng, 5, _l1_span(part)).take(
            100)) == 5
        gauss = _CandidateStream(part, rng, 10**9, _l1_span(part)).take(
            40)[12:]   # each draw once, projected: the zero block is zero
        assert not gauss[:, 2:, 2:].any() and gauss[:, :2].all()
        assert len({G.tobytes() for G in gauss}) == 28

    @pytest.mark.parametrize("shape, rank", [((3, 3), 2), ((5, 3), 2),
                                             ((4, 4), 4), ((1, 1), 0)])
    def test_stacks_equal_one_at_a_time(self, shape, rank):
        # any split into stacks: the matrices bitwise (-0.0 entries too),
        # and the rng where one draw at a time leaves it
        from specvar.certify import _CandidateStream
        from specvar.matrix_core import partition_of, svd_ordered
        m, n = shape
        X = np.zeros(shape)
        X[np.arange(rank), np.arange(rank)] = np.arange(rank, 0, -1)
        part = partition_of(svd_ordered(X))
        for sizes in ([1] * 40, [3, 5, 0, 7, 2, 9, 1, 13], [n * (m + 1) + 3]):
            ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
            ref = _candidates_one_at_a_time(part, ref_rng, _l1_span(part))
            stream = _CandidateStream(part, rng, sum(sizes) - 1,
                                      _l1_span(part))
            taken = 0
            for k in sizes:
                got = stream.take(k)
                k = min(k, sum(sizes) - 1 - taken)
                taken += k
                assert got.shape == (k, m, n)
                for G in got:
                    assert next(ref).tobytes() == G.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert len(stream.take(5)) == 0

    def test_certify_memory_peak(self):
        import tracemalloc
        p, X0 = _soft_instance(18, 16, seed=11)
        tracemalloc.start()
        try:
            cert = certify(p, X0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.verdict == "sufficient-evidence"
        assert len(cert.samples) == 200
        assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def _reference_certify(p, X0, cfg=SamplingConfig()):
    """certify with every direction evaluated from scratch: the cone test
    through F_subderivative in the svd_ordered gauge, then a fresh
    simultaneous gauge and reduced blocks for d2F; candidates built
    eagerly, a negative direction validated on its own arc
    X0 + t H + t^2 D, D the zero-target offset, one objective call per
    point."""
    from specvar.matrix_core import CURVATURE_TOL, partition_of, svd_ordered
    from specvar.oimf import (
        CONE_TOL,
        F_subderivative,
        simultaneous_gauge,
    )
    from specvar.sv_calculus import (
        direction_blocks,
        min_direction_construct,
        sigma_dir1_stack,
    )

    def offsets(X, H):
        svd = svd_ordered(X)
        part = partition_of(svd)
        r = part.r
        out = []
        if r > 0:
            Ua, Va = svd.U[:, :r], svd.V[:, :r]
            out.append((H @ Va / svd.sigma[:r]) @ (Ua.T @ H))
        out.append(0.5 * min_direction_construct(X, H, np.zeros(part.n)))
        return out

    def curvature_fresh(H, Y):
        svd, part, sy = simultaneous_gauge(X0, Y)
        blocks = direction_blocks(X0, H, gauge=svd)
        d1 = sigma_dir1_stack(blocks.Hhat[None], blocks.part)[0]
        gap = p.f.subderivative(svd.sigma, d1) - float(np.sum(Y * H))
        tol = CONE_TOL * (1.0 + np.linalg.norm(Y) * np.linalg.norm(H))
        if abs(gap) > tol:
            return INF
        d2f = p.f.second_subderivative(svd.sigma, sy, d1, tol)
        alpha = sum(2.0 * float(sy[ix] @ np.diag(G))
                    for (idx, _), Gs in zip(blocks.classes, blocks.quadratics)
                    for ix, G in zip(idx, Gs))
        r, Hhat = part.r, blocks.Hhat
        cross = -2.0 * (Hhat[r:, :r] / svd.sigma[:r]) @ Hhat[:r, r:part.n]
        beta = float(sy[part.beta] @ np.diag(cross))
        quad = float(np.sum(H * p.psi.hessian_apply(X0, H)))
        return quad + d2f + alpha + beta

    def descends(H, q):
        D = offsets(X0, H)[-1]
        return any((objective(p, X0 + t * H + t * t * D) - base) / (t * t)
                   < 0.25 * q for t in (cfg.growth_eps, cfg.growth_eps / 10))

    base = objective(p, X0)
    Y = -p.psi.gradient(X0)
    svd, part, sy = simultaneous_gauge(X0, Y)
    rng = np.random.default_rng(cfg.seed)
    span = _critical_subspaces(p.f, part, sy)[1]
    cands = [svd.U @ G @ svd.V.T for G in itertools.islice(
        _candidates_one_at_a_time(part, rng, span),
        max(cfg.max_candidates, 1))]
    samples, counterexample = [], None
    for H in cands:
        if len(samples) >= cfg.n_samples:
            break
        nrm = np.linalg.norm(H)
        if nrm <= 0:
            continue
        H = H / nrm
        gap = F_subderivative(p.f, X0, H) - float(np.sum(Y * H))
        if abs(gap) > 1e-8 * (1.0 + np.linalg.norm(Y)):
            continue
        q = curvature_fresh(H, Y)
        samples.append((H, q))
        if (q < -CURVATURE_TOL and counterexample is None
                and descends(H, q)):
            counterexample = H
    min_curv = min(q for _, q in samples)
    if counterexample is not None:
        verdict = "necessary-violated"
    elif min_curv > CURVATURE_TOL:
        verdict = "sufficient-evidence"
    else:
        verdict = "inconclusive"
    return verdict, samples, counterexample


def _gauge_randomized(p, X0):
    from specvar.matrix_core import gauge_randomize, partition_of, svd_ordered
    svd = svd_ordered(X0)
    g = gauge_randomize(svd, partition_of(svd), seed=5)
    n = X0.shape[1]
    return p, g.U[:, :n] @ np.diag(g.sigma) @ g.V.T


class TestPreparedPointEquivalence:
    """certify on one prepared point reproduces the per-direction loop:
    same verdict and count, H and counterexample to 1e-12, curvatures to
    1e-12 relative."""

    INSTANCES = {
        "soft-fixture": soft_threshold_fixture,
        "saddle-fixture": saddle_fixture,
        "soft-7x5": lambda: _soft_instance(7, 5, seed=1),
        "soft-9x8": lambda: _soft_instance(9, 8, seed=2),
        "saddle-6": lambda: _saddle_instance(6),
        "soft-7x5-gauge": lambda: _gauge_randomized(
            *_soft_instance(7, 5, seed=1)),
    }

    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_same_certificate(self, name):
        p, X0 = self.INSTANCES[name]()
        cert = certify(p, X0)
        verdict, samples, ce = _reference_certify(p, X0)
        assert cert.verdict == verdict
        assert len(cert.samples) == len(samples) == 200
        for (H1, q1), (H2, q2) in zip(cert.samples, samples):
            assert np.max(np.abs(H1 - H2)) <= 1e-12
            assert abs(q1 - q2) <= 1e-12 * max(1.0, abs(q2))
        assert (cert.counterexample is None) == (ce is None)
        if ce is not None:
            assert np.max(np.abs(cert.counterexample - ce)) <= 1e-12


# position of the argument a hook takes as (k, n) rows
_ROWS_ARG = {"eval": 0, "subderivative": 1, "second_subderivative": 2}


def _counting(f, counts, rows=None):
    """f with every hook call counted by name; ``rows`` (if given) sums
    the rows each hook was handed: the leading dimension of its stacked
    argument, 1 for a vector or a hook that takes no stack."""
    from dataclasses import replace

    def wrap(name, hook):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if rows is not None:
                arg = np.asarray(args[_ROWS_ARG[name]]) \
                    if name in _ROWS_ARG else None
                rows[name] = rows.get(name, 0) + (
                    len(arg) if arg is not None and arg.ndim == 2 else 1)
            return hook(*args, **kwargs)
        return counted

    return replace(f, **{h: wrap(h, getattr(f, h)) for h in (
        "eval", "subderivative", "subdiff_contains", "subdiff_violation",
        "second_subderivative")})


class TestOneAlignment:
    """certify reads its stationarity test and its SpectralPoint from one
    ``oimf._subgradient`` result: -grad psi(X0) is aligned with X0 once."""

    @staticmethod
    def _count(monkeypatch):
        import specvar.oimf as oimf
        import specvar.sv_calculus as svc
        calls = {"_align": 0, "partition_of": 0}

        def counted(mod, name, key):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        counted(oimf, "_align", "_align")
        for mod in (oimf, svc):
            counted(mod, "partition_of", "partition_of")
        return calls

    @pytest.mark.parametrize("fixture", [soft_threshold_fixture,
                                         saddle_fixture])
    def test_fixtures(self, monkeypatch, fixture):
        # one partition for the point; the cone passes and the arc pass
        # read it
        p, X0 = fixture()
        calls = self._count(monkeypatch)
        certify(p, X0)
        assert calls == {"_align": 1, "partition_of": 1}

    def test_not_stationary(self, monkeypatch):
        p, X0 = soft_threshold_fixture()
        X0 = X0.copy()
        X0[0, 0] += 3e-8
        calls = self._count(monkeypatch)
        cert = certify(p, X0)
        assert calls == {"_align": 1, "partition_of": 1}
        assert cert.verdict == "not-stationary"
        assert cert.stationarity_residual == stationarity_check(p, X0)[0]


class TestChunkedCandidates:
    """certify evaluates its candidate stream in chunks of directions; the
    certificate, the candidates tried and the rows handed to each hook
    are those of a direction-by-direction loop for every chunk size, and
    each chunk reaches f through one stacked hook call."""

    @pytest.mark.parametrize("name", ["soft-fixture", "saddle-fixture",
                                      "soft-9x8", "soft-7x5-gauge"])
    def test_chunk_size_independent(self, name, monkeypatch):
        matrix_core = importlib.import_module("specvar.matrix_core")
        cmod = importlib.import_module("specvar.certify")
        cone = cmod._duality_gaps
        chunks = []
        monkeypatch.setattr(cmod, "_duality_gaps",
                            lambda *args: chunks.append(1) or cone(*args))
        p, X0 = TestPreparedPointEquivalence.INSTANCES[name]()
        cfg = SamplingConfig(n_samples=60, min_samples=10)
        runs = []
        for entries in (1, X0.size, matrix_core._CHUNK_ENTRIES):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            counts, rows = {}, {}
            chunks.clear()
            cert = certify(ProblemSpec(p.psi, _counting(p.f, counts, rows)),
                           X0, cfg)
            runs.append((cert, rows))
        ref, ref_rows = runs[-1]   # the default chunk size
        assert len(ref.samples) == 60
        assert counts["subderivative"] <= 2 * len(chunks)
        for cert, rows in runs[:-1]:
            assert rows == ref_rows
            assert cert.verdict == ref.verdict
            assert len(cert.samples) == len(ref.samples)
            for (H1, q1), (H2, q2) in zip(cert.samples, ref.samples):
                assert np.array_equal(H1, H2)
                assert abs(q1 - q2) <= 1e-12 * max(1.0, abs(q2))
            ce, ref_ce = cert.counterexample, ref.counterexample
            assert (ce is None) == (ref_ce is None)
            if ref_ce is not None:
                assert np.array_equal(ce, ref_ce)

    def test_keeps_exactly_n_samples(self):
        p, X0 = _soft_instance(18, 16, seed=11)
        for n in (1, 7):
            cert = certify(p, X0, SamplingConfig(n_samples=n, min_samples=1))
            assert len(cert.samples) == n

    def test_exhausted_reports_candidates_tried(self):
        p, X0 = soft_threshold_fixture()
        # 12 structured candidates, 10 in the cone, then 48 projected
        # Gaussians, all in it
        with pytest.raises(SamplingExhausted,
                           match=r"^only 58 cone members in 60 candidates "
                                 r"\(need 400\)$"):
            certify(p, X0, SamplingConfig(n_samples=500, min_samples=400,
                                          max_candidates=60))
        # at X0 = 0 inside the ball the cone is {0}: T = {0}, so no
        # candidate is drawn
        B = np.array([[0.3, 0.1], [0.0, -0.2], [0.1, 0.0]])
        p0 = ProblemSpec(HalfSquaredDistance(B), scale_spec(l1_spec(), 0.5))
        with pytest.raises(SamplingExhausted,
                           match=r"^only 0 cone members in 0 candidates "
                                 r"\(need 40\)$"):
            certify(p0, np.zeros((3, 2)), SamplingConfig(
                n_samples=50, min_samples=40, max_candidates=30, seed=3))
        cert = certify(p0, np.zeros((3, 2)), SamplingConfig(min_samples=0))
        assert cert.verdict == "inconclusive" and cert.samples == []

    def test_face_classified_once_per_hook_call(self, monkeypatch):
        # one top-k face per hook call, shared by every row of its stack
        import specvar.absym as absym
        calls = []
        classify = absym._classify
        monkeypatch.setattr(absym, "_classify",
                            lambda x, k: calls.append(k) or classify(x, k))
        p, X0 = soft_threshold_fixture()
        counts = {}
        cert = certify(ProblemSpec(p.psi, _counting(p.f, counts)), X0)
        assert len(cert.samples) == 200
        assert len(calls) == sum(counts.get(h, 0) for h in (
            "subdiff_violation", "subdiff_contains", "subderivative",
            "second_subderivative"))


def _growth_reference(p, X0, eps, n_samples, seed):
    """The growth probe as one objective call per sample: the radii from
    the first child of SeedSequence(seed), one direction per sample from
    the second.  The radii are one block, as in the probe, because numpy's
    vectorised power can round differently from Python's float **."""
    base = objective(p, X0)
    radius_rng, direction_rng = map(np.random.default_rng,
                                    np.random.SeedSequence(seed).spawn(2))
    radii = eps * np.maximum(radius_rng.random(n_samples), 1e-12) ** (
        1.0 / X0.size)
    best = INF
    for radius in radii.tolist():
        D = direction_rng.standard_normal(X0.shape)
        D /= np.sqrt(np.sum(D * D))
        best = min(best, (objective(p, X0 + radius * D) - base)
                   / (radius * radius))
    return best


def _least_squares_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    p = ProblemSpec(psi=LeastSquares(rng.standard_normal((7, m, n)),
                                     rng.standard_normal(7)),
                    f=scale_spec(l1_spec(), 0.3))
    return p, rng.standard_normal((m, n))


def _half_squared_instance(m, n, seed):
    rng = np.random.default_rng(seed)
    p = ProblemSpec(psi=HalfSquaredDistance(rng.standard_normal((m, n))),
                    f=scale_spec(l1_spec(), 0.5))
    return p, rng.standard_normal((m, n))


class _CountingPsi:
    def __init__(self, psi):
        self.psi, self.calls = psi, 0

    def value(self, X):
        self.calls += 1
        return self.psi.value(X)


class TestStackedGrowthProbe:
    """The probe evaluates its samples as stacks (one psi.value and one
    stacked F_eval, so one f.eval, per chunk) and equals a per-sample
    objective loop bitwise, for every chunk size."""

    INSTANCES = {
        "soft-fixture": soft_threshold_fixture,
        "saddle-fixture": saddle_fixture,
        "least-squares-5x3": lambda: _least_squares_instance(5, 3, 1),
        "soft-7x5-gauge": lambda: _gauge_randomized(
            *_soft_instance(7, 5, seed=1)),
        "1x1": lambda: _half_squared_instance(1, 1, 2),
        "6x1": lambda: _half_squared_instance(6, 1, 3),
        "60x2": lambda: _half_squared_instance(60, 2, 4),
    }

    @pytest.mark.parametrize("n_samples", [1, 2, 2001])
    @pytest.mark.parametrize("name", list(INSTANCES))
    def test_equals_per_sample_loop(self, name, n_samples, monkeypatch):
        matrix_core = importlib.import_module("specvar.matrix_core")
        p, X0 = self.INSTANCES[name]()
        ref = _growth_reference(p, X0, 1e-2, n_samples, seed=3)
        for entries in (1, 64 * X0.size, X0.size, matrix_core._CHUNK_ENTRIES):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            counts, psi = {}, _CountingPsi(p.psi)
            g = quadratic_growth_probe(
                ProblemSpec(psi, _counting(p.f, counts)), X0, 1e-2,
                n_samples, seed=3)
            assert g == ref
            chunks = -(-n_samples // max(1, entries // X0.size))
            assert counts == {"eval": 1 + chunks}   # X0, then each chunk
            assert psi.calls == 1 + chunks

    def test_more_samples_never_raise_the_probe(self):
        # sample i is the same for every n_samples > i
        p, X0 = soft_threshold_fixture()
        g = [quadratic_growth_probe(p, X0, 1e-2, n, seed=3)
             for n in (1, 2, 7, 2001)]
        assert g[0] >= g[1] >= g[2] >= g[3]

    def test_no_samples_calls_no_hook(self):
        p, X0 = soft_threshold_fixture()
        counts, psi = {}, _CountingPsi(p.psi)
        for n_samples in (0, -3):
            assert quadratic_growth_probe(
                ProblemSpec(psi, _counting(p.f, counts)), X0, 1e-2,
                n_samples, seed=0) == INF
        assert counts == {} and psi.calls == 0

    @pytest.mark.parametrize("seed", [0, 10])
    def test_certificate_growth_constant(self, seed):
        # the probe at certify's default growth_eps and a certify seed
        p, X0 = _soft_instance(9, 8, seed=2)
        cfg = SamplingConfig(seed=seed)
        assert quadratic_growth_probe(p, X0, cfg.growth_eps, 2000, seed) == \
            _growth_reference(p, X0, cfg.growth_eps, 2000, seed)

    def test_scalar_for_stack_is_shape_error(self):
        from dataclasses import replace

        class ScalarPsi(HalfSquaredDistance):
            def value(self, X):
                return 0.5 * float(np.sum((X - self.B) ** 2))

        p, X0 = soft_threshold_fixture()
        with pytest.raises(ShapeError, match="psi.value"):
            quadratic_growth_probe(ProblemSpec(ScalarPsi(p.psi.B), p.f), X0,
                                   1e-2, 5, seed=0)
        f = replace(p.f, eval=lambda x: float(np.sum(np.abs(x))))
        with pytest.raises(ShapeError, match="f.eval"):
            quadratic_growth_probe(ProblemSpec(p.psi, f), X0, 1e-2, 5, seed=0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_eps_finite_and_positive(self, eps):
        p, X0 = soft_threshold_fixture()
        with pytest.raises(ShapeError, match="eps"):
            quadratic_growth_probe(p, X0, eps, 5, seed=0)
        with pytest.raises(ShapeError, match="eps"):
            certify(p, X0, SamplingConfig(growth_eps=eps))


class TestStackedPsiValue:
    """value on a (k, m, n) stack is a (k,) array, entry i bitwise equal to
    value on matrix i."""

    @staticmethod
    def _psis(m, n, rng):
        B = rng.standard_normal((m, n))
        E = rng.standard_normal((m, n))
        return [HalfSquaredDistance(B), QuadraticMinusRankOne(B, E, 1.7),
                LeastSquares(rng.standard_normal((9, m, n)),
                             rng.standard_normal(9))]

    @pytest.mark.parametrize("shape", [(50, 3, 3), (4, 1, 1), (20, 6, 1),
                                       (10, 40, 4), (3, 18, 16)])
    def test_stack_matches_matrices(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1.0, 1e-8, 1e8):
            Xs = scale * rng.standard_normal(shape)
            for psi in self._psis(*shape[1:], rng):
                values = psi.value(Xs)
                assert values.shape == (shape[0],)
                singles = [psi.value(X) for X in Xs]
                assert all(type(v) is float for v in singles)
                assert np.array_equal(values, singles)

    @pytest.mark.parametrize("shape", [(50, 3, 3), (4, 1, 1), (20, 6, 1),
                                       (10, 40, 4), (3, 18, 16)])
    def test_hessian_stack_matches_matrices(self, shape):
        # hessian_apply(X, H) on a (k, m, n) stack H: row i bitwise
        # hessian_apply(X, H[i])
        rng = np.random.default_rng(7 + sum(shape))
        for scale in (1.0, 1e-8, 1e8):
            X = rng.standard_normal(shape[1:])
            Hs = scale * rng.standard_normal(shape)
            for psi in self._psis(*shape[1:], rng):
                rows = psi.hessian_apply(X, Hs)
                assert rows.shape == shape
                assert np.array_equal(
                    rows, np.array([psi.hessian_apply(X, H) for H in Hs]))


def _certificate_sha(cert):
    import hashlib
    digest = hashlib.sha256()
    for H, q in cert.samples:
        digest.update(H.tobytes())
        digest.update(np.float64(q).tobytes())
    return digest.hexdigest()


class TestStackedCertify:
    """certify builds, normalises and scores its candidates in stacks: the
    certificates are bitwise those of the one-matrix-at-a-time loop, and
    psi's stack contract is checked where a hook is called."""

    # SHA-256 over (H, q) of every sample, from the per-matrix loop
    # (numpy 2.4, OpenBLAS 0.3.31 on x86-64; another BLAS may round
    # differently)
    PINNED = {
        ("soft", 0): "d146b32e18c0a6e3897afde45b4af936"
                     "2315cb60e85784e17ab046ac30925e59",
        ("soft", 1): "9b95355d93996ae345fee14ed10ea30f"
                     "e25bdbb316e183c31921baa944a55fbd",
        ("soft", 2): "f4b6c8dd255a0f4512a9ebc0c85dc3eb"
                     "25c08a68a1acbffefa8854ce00123222",
        ("soft", 3): "36ae60a6d566ffaa77608dae70686e7b"
                     "f4480ea5ca2e76b501fdadba1e2ce560",
        ("saddle", 0): "dd885caa4d31e727684eba57dd4fe5fd"
                       "781d67fd597d596ea524af8655250432",
        ("saddle", 1): "7080e4f335be44ec64791d35e0ef44e5"
                       "7c5e5bfdc53a51a2981ee7941c5740ca",
        ("saddle", 2): "4be8f5318b5c8c1a45ef07ba248c3a43"
                       "6a3eb4c015dd00426f768e190784965c",
        ("saddle", 3): "cd03e86dcd1e89df1b3557cdbe43c7a5"
                       "1a6bcf194817c3eb5c40219dd7650a1c",
    }

    # SHA-256 over verdict, min_curvature, min_arc_quotient,
    # stationarity_residual and the counterexample's bytes of seeds 0-19,
    # recorded before certify's passes ran on arrays (same platform); the
    # saddle's re-recorded when the guided candidates left the stream
    # (five counterexamples became A_01 / sqrt 2)
    WHOLE_PINNED = {
        "soft": "a0dcafea8841ebb172b0d54364f3a192"
                "74e6c3a1708e68e68258d2b23909ba06",
        "saddle": "af2dd3d6bb30c3fa49d61bde2b26e703"
                  "71357f35ca5644cda46eb2cfb2c8395a",
    }

    @pytest.mark.parametrize("name, seed", list(PINNED))
    def test_pinned_certificate(self, name, seed):
        fixture = {"soft": soft_threshold_fixture, "saddle": saddle_fixture}
        p, X0 = fixture[name]()
        cert = certify(p, X0, SamplingConfig(seed=seed))
        assert cert.verdict == {"soft": "sufficient-evidence",
                                "saddle": "necessary-violated"}[name]
        assert len(cert.samples) == 200
        assert _certificate_sha(cert) == self.PINNED[name, seed]

    @pytest.mark.parametrize("name", list(WHOLE_PINNED))
    def test_pinned_certificate_fields(self, name):
        import hashlib
        fixture = {"soft": soft_threshold_fixture, "saddle": saddle_fixture}
        digest = hashlib.sha256()
        for seed in range(20):
            p, X0 = fixture[name]()
            cert = certify(p, X0, SamplingConfig(seed=seed))
            digest.update(cert.verdict.encode())
            digest.update(np.array([cert.min_curvature, cert.min_arc_quotient,
                                    cert.stationarity_residual]).tobytes())
            ce = cert.counterexample
            digest.update(b"none" if ce is None else ce.tobytes())
        assert digest.hexdigest() == self.WHOLE_PINNED[name]

    def test_default_builds_no_reports(self, monkeypatch):
        # the passes read the kernel's arrays: no per-row report objects
        omod = importlib.import_module("specvar.oimf")
        built = []
        report = omod.SecondSubderivativeReport
        monkeypatch.setattr(omod, "SecondSubderivativeReport",
                            lambda **kw: built.append(1) or report(**kw))
        for fixture in (soft_threshold_fixture, saddle_fixture):
            p, X0 = fixture()
            assert len(certify(p, X0).samples) == 200
        assert built == []
        p, X0 = soft_threshold_fixture()   # the counter sees the reports
        SpectralPoint(p.f, X0, -p.psi.gradient(X0)).second_subderivatives(
            np.stack([X0, -X0]))
        assert built == [1, 1]

    def test_one_hessian_call_per_chunk(self, monkeypatch):
        matrix_core = importlib.import_module("specvar.matrix_core")
        p, X0 = _soft_instance(7, 5, seed=1)
        calls = []

        class Counting(HalfSquaredDistance):
            def hessian_apply(self, X, H):
                calls.append(len(H))
                return super().hessian_apply(X, H)

        psi = Counting(p.psi.B)
        for entries, chunks in ((matrix_core._CHUNK_ENTRIES, 1),
                                (20 * X0.size, 10)):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            calls.clear()
            cert = certify(ProblemSpec(psi, p.f), X0)
            assert len(cert.samples) == 200
            # the gradient check's stack of five, then the chunks
            assert calls[0] == 5
            assert len(calls) >= 1 + chunks and sum(calls[1:]) == 200

    def test_one_value_pass(self, monkeypatch):
        # the passes run only the cone test; the value half runs once on
        # the accepted stack
        from dataclasses import replace
        cmod = importlib.import_module("specvar.certify")
        omod = importlib.import_module("specvar.oimf")
        calls = []

        def logged(name, fn):
            return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(cmod, "_duality_gaps",
                            logged("cone", omod._duality_gaps), raising=False)
        monkeypatch.setattr(omod, "alpha_terms",
                            logged("alpha", omod.alpha_terms))

        class Logged(HalfSquaredDistance):
            def hessian_apply(self, X, H):
                calls.append("hessian")
                return super().hessian_apply(X, H)

        p, X0 = soft_threshold_fixture()
        f = replace(p.f, subderivative=logged("d1", p.f.subderivative),
                    second_subderivative=logged(
                        "d2", p.f.second_subderivative))
        cert = certify(ProblemSpec(Logged(p.psi.B), f), X0)
        assert len(cert.samples) == 200
        # the gradient check, the cone's probes, then two passes: 12
        # structured candidates (10 critical) and 188 projected Gaussians,
        # then 2 more
        assert calls == ["hessian", "d1"] + ["cone", "d1"] * 2 + [
            "d2", "alpha", "hessian"]

    def test_warns_once_per_value_chunk(self, monkeypatch):
        # a 5e-7 gap between the top two values warns once a call, from
        # the point's tables: the cone passes, the value half and the arc
        # pass never warn, however many chunks they run
        import warnings
        from specvar.errors import ConditioningWarning
        matrix_core = importlib.import_module("specvar.matrix_core")
        B = np.diag([3.0 + 5e-7, 3.0, 0.2])
        p = ProblemSpec(HalfSquaredDistance(B), scale_spec(l1_spec(), 0.5))
        X0 = svt_solve(B, 0.5)
        texts = SpectralPoint(p.f, X0, -p.psi.gradient(X0)).part.tables.texts
        for entries, chunks in ((matrix_core._CHUNK_ENTRIES, 1),
                                (20 * X0.size, 10)):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cert = certify(p, X0)
            assert len(cert.samples) == 200
            assert texts and [str(w.message) for w in caught if issubclass(
                w.category, ConditioningWarning)] == list(texts)

    def test_forms_hhat_once_per_candidate(self, monkeypatch):
        # the cone passes form Hhat = U^T H V in the aligned gauge; the
        # value half and the arcs read their critical rows, bitwise, and
        # _prepared never runs
        cmod, omod, svc = (importlib.import_module(f"specvar.{name}") for
                           name in ("certify", "oimf", "sv_calculus"))
        prepared, cone, values, arcs = [], [], [], []

        def logged(owner, name, log, pick):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append(pick(args, out))
                return out
            monkeypatch.setattr(owner, name, wrapper)

        for module in (svc, omod):
            logged(module, "_prepared", prepared, lambda a, _: np.shape(a[1]))
        logged(cmod, "_duality_gaps", cone, lambda _, out: out[0][out[-1]])
        logged(omod.SpectralPoint, "_values", values, lambda a, _: a[1])
        logged(cmod, "_zero_target_offsets", arcs, lambda a, _: a[2])
        p, X0 = soft_threshold_fixture()
        assert len(certify(p, X0).samples) == 200
        assert not hasattr(cmod, "_prepared")
        assert prepared == []
        kept = np.concatenate(cone)
        assert len(kept) == 200
        assert np.array_equal(np.concatenate(values), kept)
        assert np.array_equal(np.concatenate(arcs), kept)

    def test_curvature_reads_the_stack_path(self):
        p, X0 = soft_threshold_fixture()
        H = np.zeros((3, 3))
        H[0, 0] = 1.0
        seen = []

        class Seen(HalfSquaredDistance):
            def hessian_apply(self, X, D):
                seen.append(np.shape(D))
                return super().hessian_apply(X, D)

        assert curvature(ProblemSpec(Seen(p.psi.B), p.f), X0, H) == \
            curvature(p, X0, H)
        assert seen == [(1, 3, 3)]

    def test_per_matrix_hessian_is_shape_error(self):
        class PerMatrix(HalfSquaredDistance):
            def hessian_apply(self, X, H):
                # reads its argument as one matrix: a stack comes back as
                # one (k m, n) matrix
                return np.asarray(H).reshape(-1, np.shape(H)[-1])

        p, X0 = soft_threshold_fixture()
        with pytest.raises(ShapeError, match="psi.hessian_apply"):
            certify(ProblemSpec(PerMatrix(p.psi.B), p.f), X0)
        H = np.zeros((3, 3))
        H[0, 0] = 1.0
        with pytest.raises(ShapeError, match="psi.hessian_apply"):
            curvature(ProblemSpec(PerMatrix(p.psi.B), p.f), X0, H)

    def test_per_matrix_value_is_shape_error(self):
        class PerMatrix(HalfSquaredDistance):
            def value(self, X):
                return 0.5 * float(np.sum((X - self.B) ** 2))

        p, X0 = soft_threshold_fixture()
        with pytest.raises(ShapeError, match="psi.value"):
            certify(ProblemSpec(PerMatrix(p.psi.B), p.f), X0)

    def test_row_mixing_hessian_fails_the_gradient_check(self):
        class PerMatrix(QuadraticMinusRankOne):
            def hessian_apply(self, X, H):
                # one rank-one coefficient summed over the whole stack:
                # right shape, wrong rows
                return H - self.gamma * float(np.sum(self.E * H)) * self.E

        p, X0 = saddle_fixture()
        psi = PerMatrix(p.psi.B, p.psi.E, p.psi.gamma)
        assert fd_gradient_check(p.psi, X0).ok
        assert not fd_gradient_check(psi, X0).hessian_ok
        with pytest.raises(AssumptionViolated, match="hessian rel err"):
            certify(ProblemSpec(psi, p.f), X0)

    def test_no_samples_draws_no_candidate(self, monkeypatch):
        cmod = importlib.import_module("specvar.certify")

        def refuse(*args):
            raise AssertionError("a candidate drawn")

        p, X0 = soft_threshold_fixture()
        monkeypatch.setattr(cmod._CandidateStream, "take", refuse)
        cert = certify(p, X0, SamplingConfig(n_samples=0, min_samples=0))
        assert cert.samples == [] and cert.verdict == "inconclusive"

    @staticmethod
    def _per_matrix_samples(p, X0, cfg):
        # the one-matrix-at-a-time loop: each candidate built, normalised,
        # tested and scored alone
        point = SpectralPoint(p.f, X0, -p.psi.gradient(X0))
        svd = point.gauge
        rng = np.random.default_rng(cfg.seed)
        span = _critical_subspaces(p.f, point.part, point.sy)[1]
        samples = []
        for H in (svd.U @ G @ svd.V.T for G in itertools.islice(
                _candidates_one_at_a_time(point.part, rng, span),
                max(cfg.max_candidates, 1))):
            if len(samples) == cfg.n_samples:
                break
            nrm = np.linalg.norm(H)
            if nrm == 0:
                continue
            H = H / nrm
            rep = point.second_subderivative(H)
            if rep.critical:
                quad = float(np.sum(H * p.psi.hessian_apply(X0, H)))
                samples.append((H, quad + rep.value))
        return samples

    @pytest.mark.parametrize("name", ["soft", "saddle", "soft-7x5",
                                      "saddle-4", "soft-10x8"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_per_matrix_loop(self, name, seed, monkeypatch):
        # any BLAS: the pins above hold for one
        matrix_core = importlib.import_module("specvar.matrix_core")
        p, X0 = {"soft": soft_threshold_fixture, "saddle": saddle_fixture,
                 "soft-7x5": lambda: _soft_instance(7, 5, seed=2),
                 "saddle-4": lambda: _saddle_instance(4),
                 "soft-10x8": lambda: _mix_soft_instance(1, 10, 8)}[name]()
        cfg = SamplingConfig(seed=seed, min_samples=0)
        ref = self._per_matrix_samples(p, X0, cfg)
        for entries in (matrix_core._CHUNK_ENTRIES, 7 * X0.size):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            got = certify(p, X0, cfg).samples
            assert len(got) == len(ref)
            for (H, q), (H_ref, q_ref) in zip(got, ref):
                assert np.array_equal(H, H_ref) and q == q_ref


def _mix_soft_instance(seed, m, n):
    """certify-mix's soft instance of size (m, n) for a workload seed:
    (ProblemSpec, X0), psi = HalfSquaredDistance(B), f = 0.5 l1."""
    rng = workloads._rng(seed, 0)
    for size in workloads.SOFT_SIZES:   # drawn in order, as the workload
        d = workloads._soft_instance(rng, *size)
        if size == (m, n):
            break
    p = ProblemSpec(HalfSquaredDistance(d["B"]), scale_spec(l1_spec(), 0.5))
    return p, d["X0"]


def _deflated_soft_instance(seed, m, n):
    """certify-mix's soft instance of size (m, n) for a workload seed,
    with psi deflated to QuadraticMinusRankOne(B, E, 1.5): E = U G V^T
    normalised in the aligned gauge, G = default_rng(seed)'s Gaussian with
    its diagonal and zero block zeroed.  <E, X0> = 0 keeps X0 stationary;
    the curvature turns negative on S = {H : Hhat[r:, r:] = 0}."""
    soft, X0 = _mix_soft_instance(seed, m, n)
    B, f = soft.psi.B, soft.f
    point = SpectralPoint(f, X0, B - X0)
    r = point.part.r
    G = np.random.default_rng(seed).standard_normal((m, n))
    G[r:, r:] = 0.0
    G[np.arange(n), np.arange(n)] = 0.0
    E = point.gauge.U @ G @ point.gauge.V.T
    psi = QuadraticMinusRankOne(B, E / np.linalg.norm(E), 1.5)
    return ProblemSpec(psi, f), X0


def _curvature_form(p, X0):
    """(basis, A): an orthonormal basis of S = {H : Hhat[r:, r:] = 0} as a
    (d, m, n) stack, and the matrix of the curvature on S, polarised from
    ``_curvatures`` at the basis vectors and their pairwise sums (each
    stack's cone pass first)."""
    from specvar.certify import _curvatures
    point = SpectralPoint(p.f, X0, -p.psi.gradient(X0))
    m, n = X0.shape
    r = point.part.r
    free = [(i, j) for i in range(m) for j in range(n) if i < r or j < r]
    basis = np.zeros((len(free), m, n))
    basis[(np.arange(len(free)), *np.array(free).T)] = 1.0
    basis = point.gauge.U @ basis @ point.gauge.V.T

    def q(Hs):
        return np.concatenate([
            _curvatures(p, X0, point, Hs[at], _duality_gaps(
                p.f, point.gauge, point.part, point.Y, Hs[at]))
            for at in np.array_split(np.arange(len(Hs)),
                                     -(-len(Hs) // 2000))])

    diag = q(basis)
    iu, ju = np.triu_indices(len(basis), 1)
    A = np.diag(diag)
    A[iu, ju] = A[ju, iu] = 0.5 * (q(basis[iu] + basis[ju])
                                   - diag[iu] - diag[ju])
    return basis, A


def _arcs(p, X0, Hs, eps):
    """``_arc_quotients`` of a (k, m, n) stack at the ``SpectralPoint`` of
    X0, on the Hhat its cone pass forms, as in ``certify``."""
    from specvar.certify import _arc_quotients
    point = SpectralPoint(p.f, X0, -p.psi.gradient(X0))
    Hhat = _duality_gaps(p.f, point.gauge, point.part, point.Y, Hs)[0]
    return _arc_quotients(p, X0, point, Hs, Hhat, eps)


class _NanFar(HalfSquaredDistance):
    """psi NaN farther than 1e-4 from X0 in any entry: the gradient
    check's shifts pass, the arc points do not."""

    def __init__(self, B, X0):
        super().__init__(B)
        self.X0 = X0

    def value(self, X):
        v = np.asarray(super().value(X), dtype=float)
        far = np.abs(np.asarray(X) - self.X0).max(axis=(-2, -1)) > 1e-4
        return np.where(far, math.nan, v) if v.ndim else (
            math.nan if far else float(v))


class TestArcQuotients:
    """certify scores every accepted sample on the arc
    X0 + t H + t^2 D_H, D_H half the zero-target cancelling direction of
    guided_offsets, at t in {growth_eps, growth_eps / 10}: the quotient
    tends to half the curvature, and min_arc_quotient is their least."""

    @pytest.mark.parametrize("size", workloads.SOFT_SIZES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_exact_minimum_on_deflated_instances(self, seed, size):
        p, X0 = _deflated_soft_instance(seed, *size)
        basis, A = _curvature_form(p, X0)
        lam, vec = np.linalg.eigh(A)
        assert lam[0] < -0.2
        H = np.tensordot(vec[:, 0], basis, axes=1)
        arcs = _arcs(p, X0, H[None], 1e-2)
        assert abs(arcs[0, 0] - 0.5 * lam[0]) <= 1e-3

    @pytest.mark.parametrize("name", list(
        TestPreparedPointEquivalence.INSTANCES))
    def test_arcs_follow_half_the_curvature(self, name):
        p, X0 = TestPreparedPointEquivalence.INSTANCES[name]()
        cert = certify(p, X0)
        Hs = np.array([H for H, _ in cert.samples])
        q = np.array([q for _, q in cert.samples])
        arcs = _arcs(p, X0, Hs, SamplingConfig.growth_eps)
        assert np.max(np.abs(arcs[1] - 0.5 * q)) <= 2e-3
        assert cert.min_arc_quotient == arcs.min()
        if cert.verdict == "necessary-violated":
            assert cert.min_arc_quotient < 0
        else:
            assert cert.min_arc_quotient >= 0.25

    @pytest.mark.parametrize("name", ["soft-fixture", "saddle-6"])
    def test_rows_and_chunks_are_bitwise_alone(self, name, monkeypatch):
        matrix_core = importlib.import_module("specvar.matrix_core")
        p, X0 = TestPreparedPointEquivalence.INSTANCES[name]()
        Hs = np.array([H for H, _ in certify(
            p, X0, SamplingConfig(n_samples=30, min_samples=1)).samples])
        ref = _arcs(p, X0, Hs, 1e-2)
        assert np.array_equal(ref, np.column_stack(
            [_arcs(p, X0, H[None], 1e-2) for H in Hs]))
        monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", 7 * X0.size)
        assert np.array_equal(_arcs(p, X0, Hs, 1e-2), ref)

    @pytest.mark.parametrize("fixture", [soft_threshold_fixture,
                                         saddle_fixture])
    def test_default_hands_f_eval_few_rows(self, fixture, monkeypatch):
        # certify runs no ball probe: the arcs take 2 n_samples rows, and
        # build only their zero-target offsets
        cmod = importlib.import_module("specvar.certify")
        arcs = []
        zero_target = cmod._zero_target_offsets
        monkeypatch.setattr(cmod, "_zero_target_offsets", lambda *a: (
            arcs.append(len(a[2])) or zero_target(*a)))
        monkeypatch.setattr(cmod, "quadratic_growth_probe", None)
        p, X0 = fixture()
        counts, rows = {}, {}
        cert = certify(ProblemSpec(p.psi, _counting(p.f, counts, rows)), X0)
        n = SamplingConfig.n_samples
        assert len(cert.samples) == n
        assert rows["eval"] <= 2 * n + 8
        assert sum(arcs) == n   # the arcs, one zero-target pass a chunk
        assert not hasattr(cert, "growth_constant_observed")

    def test_no_samples_is_inf(self):
        p, X0 = soft_threshold_fixture()
        cert = certify(p, X0, SamplingConfig(n_samples=0, min_samples=0))
        assert cert.min_arc_quotient == INF
        cert = certify(p, p.psi.B, SamplingConfig(n_samples=10,
                                                  min_samples=1))
        assert cert.verdict == "not-stationary"
        assert cert.min_arc_quotient == INF

    def test_nan_is_nonfinite(self):
        p, X0 = soft_threshold_fixture()
        bad = ProblemSpec(_NanFar(p.psi.B, X0), p.f)
        assert fd_gradient_check(bad.psi, X0).ok
        with pytest.raises(NonFinite, match="arc quotient of sample 0"):
            certify(bad, X0, SamplingConfig(n_samples=10, min_samples=1))


class TestArcValidation:
    """certify validates a negative direction on the parabolic arc it
    scores, not on a straight line: the objective is evaluated at X0 and
    on the arc stacks only, and the counterexample is the first row, in
    stream order, with q < -CURVATURE_TOL and an arc quotient below q / 4
    at either step."""

    @pytest.mark.parametrize("fixture", [soft_threshold_fixture,
                                         saddle_fixture])
    def test_f_eval_sees_x0_and_the_arcs(self, fixture, monkeypatch):
        cmod = importlib.import_module("specvar.certify")
        shapes, arc_calls = [], []
        real_f_eval, real_arcs = cmod.F_eval, cmod._arc_quotients
        monkeypatch.setattr(cmod, "F_eval", lambda f, X: (
            shapes.append(np.shape(X)) or real_f_eval(f, X)))
        monkeypatch.setattr(cmod, "_arc_quotients", lambda *a: (
            arc_calls.append(len(a[3])) or real_arcs(*a)))
        p, X0 = fixture()
        cert = certify(p, X0)
        n = SamplingConfig.n_samples
        assert arc_calls == [n]
        # X0 once, then one stack per step t of the one arc chunk
        assert shapes == [X0.shape, (n,) + X0.shape, (n,) + X0.shape]
        assert (cert.counterexample is not None) == (fixture is saddle_fixture)

    def test_counterexample_is_first_descending_arc(self, monkeypatch):
        from specvar.matrix_core import CURVATURE_TOL
        cmod = importlib.import_module("specvar.certify")
        p, X0 = saddle_fixture()
        cert = certify(p, X0)
        q = np.array([q for _, q in cert.samples])
        neg = np.flatnonzero(q < -CURVATURE_TOL)
        assert len(neg) >= 3
        real_arcs = cmod._arc_quotients

        def arcs_with(descending):
            # every arc rises except, per index, the step given
            def arcs(*args):
                out = np.abs(real_arcs(*args))
                for i, step in descending.items():
                    out[step, i] = 0.25 * q[i] * 1.001
                return out
            return arcs

        for descending, expect in (
                ({}, None),
                ({neg[2]: 1}, neg[2]),   # the shorter step alone
                ({neg[1]: 0, neg[2]: 1}, neg[1]),
                ({neg[0]: 0, neg[1]: 1}, neg[0])):
            monkeypatch.setattr(cmod, "_arc_quotients", arcs_with(descending))
            got = certify(p, X0)
            if expect is None:
                assert got.counterexample is None
                assert got.verdict == "inconclusive"
            else:
                assert np.array_equal(got.counterexample,
                                      cert.samples[expect][0])
                assert got.verdict == "necessary-violated"
        # an arc exactly at q / 4 does not descend
        monkeypatch.setattr(cmod, "_arc_quotients",
                            lambda *a: np.tile(0.25 * q, (2, 1)))
        assert certify(p, X0).counterexample is None


def _mix_saddles(seeds):
    """certify-mix's saddle instances of the given workload seeds, as
    (ProblemSpec, X0)."""
    for seed in seeds:
        rng = workloads._rng(seed, 0)
        for m, n in workloads.SOFT_SIZES:   # drawn first, as the workload
            workloads._soft_instance(rng, m, n)
        for n in workloads.SADDLE_SIZES:
            d = workloads._saddle_instance(rng, n)
            yield ProblemSpec(QuadraticMinusRankOne(d["B"], d["E"], 1.0),
                              scale_spec(l1_spec(), 0.5)), d["X0"]


class TestDistinctSamples:
    def test_no_sample_repeats(self):
        # each Gaussian is drawn once: at full rank a zero-block-zeroed
        # copy equalled its draw (107 distinct of 200 at the saddle, seed 0)
        runs = [(fixture(), seed) for fixture in (soft_threshold_fixture,
                                                   saddle_fixture)
                for seed in range(20)]
        runs += [(point, 0) for point in _mix_saddles(range(1, 21))]
        for (p, X0), seed in runs:
            cert = certify(p, X0, SamplingConfig(seed=seed))
            assert len({H.tobytes() for H, _ in cert.samples}) == 200


class TestBenchmarkCheck:
    def test_certify_mix_jobs_pass_their_check(self, tmp_path):
        # perfbench's own check, unedited: verdict, 200 samples and the
        # saddle counterexample's descent, on the five instances of
        # workload seeds 1-5 and the two CLI fixtures
        mix = workloads.CertifyMix(tmp_path)
        for seed in range(1, 6):
            mix.prepare(seed)
            for job in mix.jobs(seed, 0):
                if job.data["kind"] != "cli" or seed == 1:
                    assert mix.check(job, mix.run(job, lambda f: f)) is None
