import math

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
from specvar.errors import AssumptionViolated, SamplingExhausted


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
        assert cert.growth_constant_observed >= 0.25

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

    def test_sampling_exhausted(self):
        p, X0 = soft_threshold_fixture()
        with pytest.raises(SamplingExhausted):
            certify(p, X0, SamplingConfig(n_samples=500, min_samples=400,
                                          max_candidates=60))


class TestGrowthProbe:
    def test_convex_fixture_strong_growth(self):
        p, X0 = soft_threshold_fixture()
        g = quadratic_growth_probe(p, X0, 1e-2, 10_000, seed=0)
        assert g >= 0.25

    def test_negative_at_non_stationary(self):
        p, _ = soft_threshold_fixture()
        g = quadratic_growth_probe(p, p.psi.B, 1e-2, 2000, seed=0)
        assert g < 0.0

    def test_probe_not_decreasing_as_ball_shrinks(self):
        p, X0 = soft_threshold_fixture()
        g2 = quadratic_growth_probe(p, X0, 1e-2, 4000, seed=1)
        g3 = quadratic_growth_probe(p, X0, 1e-3, 4000, seed=1)
        assert g3 >= g2 - 1e-6

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


class TestCandidateStream:
    def test_lazy_and_rng_untouched_until_gaussians(self):
        from specvar.certify import _structured_candidates
        from specvar.matrix_core import partition_of, svd_ordered
        X = np.diag([2.0, 1.0, 0.0])
        svd = svd_ordered(X)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        it = _structured_candidates(svd, partition_of(svd), rng, 10**9)
        first = [next(it) for _ in range(12)]   # 6 diagonal, 6 pairs
        assert rng.bit_generator.state == state
        assert first[0][0, 0] == 1.0 and first[1][0, 0] == -1.0
        assert len(list(_structured_candidates(svd, partition_of(svd), rng,
                                               5))) == 5

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
    simultaneous gauge and reduced blocks for d2F; guided offsets in
    original space, candidates built eagerly, growth probed one objective
    call per sample."""
    from specvar.certify import _validated_counterexample
    from specvar.matrix_core import partition_of, svd_ordered
    from specvar.oimf import (
        CONE_TOL,
        F_subderivative,
        simultaneous_gauge,
    )
    from specvar.sv_calculus import (
        _beta_cross_term,
        alpha_quadratics,
        direction_blocks,
        min_direction_construct,
        sigma_dir1_from_blocks,
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

    def structured(part, rng, budget):
        m, n, r = part.m, part.n, part.r
        out = []
        for i in range(n):
            G = np.zeros((m, n))
            G[i, i] = 1.0
            out += [G, -G]
        for i in range(n):
            for j in range(i + 1, n):
                S = np.zeros((m, n))
                S[i, j] = S[j, i] = 1.0
                A = np.zeros((m, n))
                A[i, j], A[j, i] = 1.0, -1.0
                out += [S, A]
        for i in range(n, m):
            for j in range(n):
                G = np.zeros((m, n))
                G[i, j] = 1.0
                out.append(G)
        while len(out) < budget:
            G = rng.standard_normal((m, n))
            out.append(G.copy())
            if r < n:
                G[r:, r:] = 0.0
            out.append(G)
        return out[:max(budget, 1)]

    def growth(eps, n_samples, seed):
        base = objective(p, X0)
        rng = np.random.default_rng(seed)
        best = INF
        for _ in range(n_samples):
            D = rng.standard_normal(X0.shape)
            D /= np.linalg.norm(D)
            radius = eps * max(rng.uniform(0.0, 1.0), 1e-12) ** (
                1.0 / X0.size)
            best = min(best, (objective(p, X0 + radius * D) - base)
                       / (radius * radius))
        return best

    def curvature_fresh(H, Y):
        svd, part, sy = simultaneous_gauge(X0, Y)
        blocks = direction_blocks(X0, H, gauge=svd)
        d1 = sigma_dir1_from_blocks(blocks)
        gap = p.f.subderivative(svd.sigma, d1) - float(np.sum(Y * H))
        tol = CONE_TOL * (1.0 + np.linalg.norm(Y) * np.linalg.norm(H))
        if abs(gap) > tol:
            return INF
        d2f = p.f.second_subderivative(svd.sigma, sy, d1, tol)
        alpha = sum(2.0 * float(sy[ab.indices] @ np.diag(G))
                    for ab, G in zip(blocks.alpha, alpha_quadratics(blocks)))
        beta = float(sy[part.beta] @ np.diag(_beta_cross_term(blocks)))
        quad = float(np.sum(H * p.psi.hessian_apply(X0, H)))
        return quad + d2f + alpha + beta

    g = growth(cfg.growth_eps, cfg.growth_samples, cfg.seed)
    Y = -p.psi.gradient(X0)
    svd, part, _ = simultaneous_gauge(X0, Y)
    rng = np.random.default_rng(cfg.seed)
    cands = []
    for _ in range(4):
        cands += offsets(X0, rng.standard_normal(X0.shape))
    cands += [svd.U @ G @ svd.V.T
              for G in structured(part, rng, cfg.max_candidates)]
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
        if (q < -cfg.curvature_tol and counterexample is None
                and _validated_counterexample(p, X0, H, q)):
            counterexample = H
    min_curv = min(q for _, q in samples)
    if counterexample is not None:
        verdict = "necessary-violated"
    elif min_curv > cfg.curvature_tol:
        verdict = "sufficient-evidence"
    else:
        verdict = "inconclusive"
    return verdict, samples, counterexample, g


def _gauge_randomized(p, X0):
    from specvar.matrix_core import gauge_randomize, partition_of, svd_ordered
    svd = svd_ordered(X0)
    g = gauge_randomize(svd, partition_of(svd), seed=5)
    n = X0.shape[1]
    return p, g.U[:, :n] @ np.diag(g.sigma) @ g.V.T


class TestPreparedPointEquivalence:
    """certify on one prepared point reproduces the per-direction loop:
    same verdict and count, H and counterexample to 1e-12, curvatures
    and the growth constant to 1e-12 relative."""

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
        verdict, samples, ce, g = _reference_certify(p, X0)
        assert cert.verdict == verdict
        assert len(cert.samples) == len(samples) == 200
        for (H1, q1), (H2, q2) in zip(cert.samples, samples):
            assert np.max(np.abs(H1 - H2)) <= 1e-12
            assert abs(q1 - q2) <= 1e-12 * max(1.0, abs(q2))
        assert (cert.counterexample is None) == (ce is None)
        if ce is not None:
            assert np.max(np.abs(cert.counterexample - ce)) <= 1e-12
        assert abs(cert.growth_constant_observed - g) <= 1e-12 * max(
            1.0, abs(g))
