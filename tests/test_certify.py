import importlib
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
from specvar.errors import ShapeError


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
    from specvar.matrix_core import CURVATURE_TOL, partition_of, svd_ordered
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
        if (q < -CURVATURE_TOL and counterexample is None
                and _validated_counterexample(p, X0, H, q)):
            counterexample = H
    min_curv = min(q for _, q in samples)
    if counterexample is not None:
        verdict = "necessary-violated"
    elif min_curv > CURVATURE_TOL:
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


class TestChunkedCandidates:
    """certify evaluates its candidate stream in chunks of directions; the
    certificate, the candidates tried and the rows handed to each hook
    are those of a direction-by-direction loop for every chunk size, and
    each chunk reaches f through one stacked hook call."""

    @pytest.mark.parametrize("name", ["soft-fixture", "saddle-fixture",
                                      "soft-9x8", "soft-7x5-gauge"])
    def test_chunk_size_independent(self, name, monkeypatch):
        cmod = importlib.import_module("specvar.certify")
        omod = importlib.import_module("specvar.oimf")
        stacks = omod.SpectralPoint.second_subderivatives
        chunks = []
        monkeypatch.setattr(omod.SpectralPoint, "second_subderivatives",
                            lambda pt, Hs: chunks.append(1) or stacks(pt, Hs))
        p, X0 = TestPreparedPointEquivalence.INSTANCES[name]()
        cfg = SamplingConfig(n_samples=60, min_samples=10, growth_samples=50)
        runs = []
        for entries in (1, X0.size, cmod._CHUNK_ENTRIES):
            monkeypatch.setattr(cmod, "_CHUNK_ENTRIES", entries)
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
        # 8 guided offsets and 60 structured candidates
        with pytest.raises(SamplingExhausted,
                           match=r"^only 34 cone members in 68 candidates "
                                 r"\(need 400\)$"):
            certify(p, X0, SamplingConfig(n_samples=500, min_samples=400,
                                          max_candidates=60))
        # at X0 = 0 the 4 guided offsets are zero: skipped, still tried
        B = np.array([[0.3, 0.1], [0.0, -0.2], [0.1, 0.0]])
        p0 = ProblemSpec(HalfSquaredDistance(B), scale_spec(l1_spec(), 0.5))
        with pytest.raises(SamplingExhausted,
                           match=r"^only 0 cone members in 34 candidates "
                                 r"\(need 40\)$"):
            certify(p0, np.zeros((3, 2)), SamplingConfig(
                n_samples=50, min_samples=40, max_candidates=30, seed=3))

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
    """The growth probe as one objective call per sample, as
    _reference_certify's growth."""
    base = objective(p, X0)
    rng = np.random.default_rng(seed)
    best = INF
    for _ in range(n_samples):
        D = rng.standard_normal(X0.shape)
        D /= np.linalg.norm(D)
        radius = eps * max(rng.uniform(0.0, 1.0), 1e-12) ** (1.0 / X0.size)
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
    """The probe evaluates its samples as stacks (one psi.value per chunk,
    one f.eval for all samples) and equals a per-sample objective loop
    bitwise, for every chunk size."""

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
        cmod = importlib.import_module("specvar.certify")
        p, X0 = self.INSTANCES[name]()
        ref = _growth_reference(p, X0, 1e-2, n_samples, seed=3)
        for entries in (1, 64 * X0.size, X0.size, cmod._CHUNK_ENTRIES):
            monkeypatch.setattr(cmod, "_CHUNK_ENTRIES", entries)
            counts, psi = {}, _CountingPsi(p.psi)
            g = quadratic_growth_probe(
                ProblemSpec(psi, _counting(p.f, counts)), X0, 1e-2,
                n_samples, seed=3)
            assert g == ref
            assert counts == {"eval": 2}   # X0, then every sample at once
            chunk = max(1, entries // X0.size)
            assert psi.calls == 1 + -(-n_samples // chunk)

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
        p, X0 = _soft_instance(9, 8, seed=2)
        cfg = SamplingConfig(seed=seed)
        assert certify(p, X0, cfg).growth_constant_observed == \
            _growth_reference(p, X0, cfg.growth_eps, cfg.growth_samples, seed)

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
