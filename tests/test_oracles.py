import numpy as np
import pytest

from specvar.errors import NonFinite, NonFiniteBase, ShapeError
from specvar.oimf import (
    F_eval,
    guided_offsets,
    nuclear_psi_eval,
)
from specvar.absym import l1_spec
from specvar.oracles import (
    OracleConfig,
    fd_gradient_check,
    liminf_table,
    parabolic_quotient,
    quotient2_fixed,
    quotient2_liminf,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestConfig:
    def test_defaults_valid(self):
        cfg = OracleConfig()
        assert cfg.tau_grid == (1e-1, 1e-2, 1e-3, 1e-4)

    def test_rejects_increasing_grid(self):
        with pytest.raises(ShapeError):
            OracleConfig(tau_grid=(1e-4, 1e-3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            OracleConfig(tau_grid=(1e-2, 0.0))

    @pytest.mark.parametrize("field, value", [
        ("tau_grid", (0.1, float("nan"))), ("tau_grid", (float("nan"),)),
        ("tau_grid", (float("inf"), 0.1)),
        ("radius_c", float("nan")), ("radius_c", float("inf")),
        ("radius_c", -1.0), ("radius_c", 0.0),
        ("samples_per_tau", 2.5), ("samples_per_tau", 0),
        ("samples_per_tau", True), ("seed", -1), ("seed", 1.0),
        ("seed", False),
    ])
    def test_rejects_field(self, field, value):
        with pytest.raises(ShapeError, match=field):
            OracleConfig(**{field: value})

    def test_integer_fields_accept_numpy_ints(self):
        cfg = OracleConfig(samples_per_tau=np.int64(3), seed=np.int32(0),
                           radius_c=1)
        assert (cfg.samples_per_tau, cfg.seed, cfg.radius_c) == (3, 0, 1)


class TestQuotient2Fixed:
    def test_exact_quadratic(self):
        cfg = OracleConfig()
        g = lambda x: 0.5 * np.sum(x * x, axis=-1)
        vals = quotient2_fixed(g, np.zeros(3), np.zeros(3),
                               np.array([1.0, 0, 0]), cfg)
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_linear_function_zero(self):
        cfg = OracleConfig()
        a = np.array([2.0, -1.0])
        g = lambda x: x @ a
        vals = quotient2_fixed(g, np.zeros(2), a, np.array([0.3, 0.7]), cfg)
        np.testing.assert_allclose(vals, 0.0, atol=1e-9)

    def test_psi_worked_case(self):
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3))
        g = lambda M: nuclear_psi_eval(M)
        vals = quotient2_fixed(g, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                               SWAP, cfg)
        np.testing.assert_allclose(vals, 2.0, atol=0.05)

    def test_nonfinite_base(self):
        cfg = OracleConfig()
        g = lambda x: float("inf")
        with pytest.raises(NonFiniteBase):
            quotient2_fixed(g, np.zeros(1), np.zeros(1), np.ones(1), cfg)


class TestQuotient2Liminf:
    def test_exact_quadratic_no_improvement(self):
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=16)
        g = lambda x: 0.5 * np.sum(x * x, axis=-1)
        w = np.array([1.0, 0.0])
        est = quotient2_liminf(g, np.zeros(2), np.zeros(2), w, cfg)
        fixed = quotient2_fixed(g, np.zeros(2), np.zeros(2), w, cfg)[-1]
        assert abs(est - fixed) <= cfg.radius_c**2 + 1e-9
        assert est <= fixed + 1e-9

    def test_guided_reaches_psi_epi_value(self):
        X = np.diag([1.0, 0.0])
        Om = np.diag([0.0, 1.0])
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=64, seed=1)
        guides = guided_offsets(X, SWAP)
        est = quotient2_liminf(nuclear_psi_eval, X, Om, SWAP, cfg,
                               guided_directions=guides)
        assert est == pytest.approx(-2.0, abs=0.05)

    def test_guided_beats_random(self):
        # at radius 0.5 * tau the sampling ball cannot reach the
        # cross-term direction, so the guide is strictly necessary
        # (at the default radius 2 the flat minimum region is wide
        # enough that isotropic samples also land in it)
        X = np.diag([1.0, 0.0])
        Om = np.diag([0.0, 1.0])
        guides = guided_offsets(X, SWAP)
        hits = 0
        for seed in range(20):
            cfg = OracleConfig(tau_grid=(1e-3,), samples_per_tau=64,
                               seed=seed, radius_c=0.5)
            guided = quotient2_liminf(nuclear_psi_eval, X, Om, SWAP, cfg,
                                      guided_directions=guides)
            random_only = quotient2_liminf(nuclear_psi_eval, X, Om, SWAP,
                                           cfg)
            if guided < random_only - 1e-6:
                hits += 1
        assert hits >= 19

    def test_nuclear_worked_case(self):
        X = np.diag([1.0, 0.0])
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=64, seed=2)
        g = lambda M: F_eval(l1_spec(), M)
        est = quotient2_liminf(g, X, np.eye(2), SWAP, cfg,
                               guided_directions=guided_offsets(X, SWAP))
        assert est == pytest.approx(0.0, abs=0.05)

    def test_deterministic(self):
        cfg = OracleConfig(seed=42)
        g = lambda M: F_eval(l1_spec(), M)
        X = np.diag([1.0, 0.0])
        a = quotient2_liminf(g, X, np.eye(2), SWAP, cfg)
        b = quotient2_liminf(g, X, np.eye(2), SWAP, cfg)
        assert a == b

    def test_table_last_row_matches(self):
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=8, seed=3)
        g = lambda M: F_eval(l1_spec(), M)
        X = np.diag([1.0, 0.0])
        rows = liminf_table(g, X, np.eye(2), SWAP, cfg)
        est = quotient2_liminf(g, X, np.eye(2), SWAP, cfg)
        assert rows[-1][0] == 1e-3
        assert rows[-1][1] == est


class TestParabolicQuotient:
    def test_quadratic_w_term_only(self):
        # the w-term dominates; the z shift only contributes tau^2/4 ||z||^2
        cfg = OracleConfig()
        g = lambda x: 0.5 * np.sum(x * x, axis=-1)
        vals = parabolic_quotient(g, np.zeros(2), np.array([1.0, 0.0]), 0.0,
                                  np.array([0.0, 1.0]), cfg)
        for tau, val in zip(cfg.tau_grid, vals):
            assert val == pytest.approx(1.0 + 0.25 * tau * tau, abs=1e-12)
        vals0 = parabolic_quotient(g, np.zeros(2), np.array([1.0, 0.0]), 0.0,
                                   np.zeros(2), cfg)
        np.testing.assert_allclose(vals0, 1.0, atol=1e-12)

    def test_linear_function(self):
        # for linear g the quotient is exactly <a, z>; the regularity
        # combination quotient - <v, z> with v = a vanishes identically
        cfg = OracleConfig()
        a = np.array([1.0, 2.0])
        g = lambda x: x @ a
        z = np.array([0.5, -1.5])
        vals = parabolic_quotient(g, np.zeros(2), np.ones(2), float(a.sum()),
                                  z, cfg)
        np.testing.assert_allclose(vals, a @ z, atol=1e-9)
        np.testing.assert_allclose([v - a @ z for v in vals], 0.0,
                                   atol=1e-9)

    def test_nuclear_straight_line(self):
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3))
        g = lambda M: F_eval(l1_spec(), M)
        vals = parabolic_quotient(g, np.diag([1.0, 0.0]), SWAP, 0.0,
                                  np.zeros((2, 2)), cfg)
        np.testing.assert_allclose(vals[-1], 4.0, atol=0.05)

    def test_infinite_dgxw_rejected(self):
        cfg = OracleConfig()
        with pytest.raises(NonFiniteBase):
            parabolic_quotient(lambda x: 0.0, np.zeros(1), np.ones(1),
                               float("inf"), np.zeros(1), cfg)


ROW = np.array([[1.0, 2.0]])


class TestShapeMismatch:
    # x is 2x2; a 1x2 v, guide or z used to broadcast against it silently
    @pytest.mark.parametrize("call", [
        lambda g, x, cfg: quotient2_fixed(g, x, ROW, SWAP, cfg),
        lambda g, x, cfg: quotient2_fixed(g, x, np.eye(2), np.eye(3), cfg),
        lambda g, x, cfg: quotient2_liminf(g, x, ROW, SWAP, cfg),
        lambda g, x, cfg: liminf_table(g, x, np.eye(2), SWAP, cfg, (ROW,)),
        lambda g, x, cfg: parabolic_quotient(g, x, SWAP, 0.0, ROW, cfg),
    ])
    def test_rejected(self, call):
        cfg = OracleConfig(tau_grid=(1e-2,), samples_per_tau=2)
        with pytest.raises(ShapeError):
            call(lambda M: F_eval(l1_spec(), M), np.diag([1.0, 0.0]), cfg)


class _Quadratic:
    """psi(X) = 0.5 ||X - B||^2 with correct hooks."""

    def __init__(self, B):
        self.B = B

    def value(self, X):
        if np.ndim(X) == 3:   # a stack: one value per matrix
            return np.array([self.value(Xi) for Xi in X])
        return 0.5 * float(np.sum((X - self.B) ** 2))

    def gradient(self, X):
        return X - self.B

    def hessian_apply(self, X, D):
        return D


class _WrongGradient(_Quadratic):
    def gradient(self, X):
        return 1.1 * (X - self.B)


class TestGradientCheck:
    def test_correct_hooks_pass(self):
        rng = np.random.default_rng(0)
        psi = _Quadratic(rng.standard_normal((3, 2)))
        rep = fd_gradient_check(psi, rng.standard_normal((3, 2)))
        assert rep.ok
        assert rep.gradient_rel_err <= 1e-7

    def test_wrong_gradient_flagged(self):
        rng = np.random.default_rng(1)
        psi = _WrongGradient(rng.standard_normal((3, 2)))
        rep = fd_gradient_check(psi, rng.standard_normal((3, 2)))
        assert not rep.gradient_ok

    def test_random_quadratic_hessian(self):
        rng = np.random.default_rng(2)
        n = 6
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)

        class Q:
            def value(self, X):
                if np.ndim(X) == 3:   # a stack: one value per matrix
                    return np.array([self.value(Xi) for Xi in X])
                return 0.5 * float(X.ravel() @ A @ X.ravel())

            def gradient(self, X):
                return (A @ X.ravel()).reshape(X.shape)

            def hessian_apply(self, X, D):
                if np.ndim(D) == 3:   # a stack: one product per matrix
                    return np.array([self.hessian_apply(X, Di) for Di in D])
                return (A @ D.ravel()).reshape(D.shape)

        X = rng.standard_normal((3, 2))
        rep = fd_gradient_check(Q(), X)
        assert rep.hessian_rel_err <= 1e-7


class TestStackedGradientCheck:
    """fd_gradient_check scores its 2 mn shifted points in stacks of at
    most _CHUNK_ENTRIES entries: the report is bitwise that of one
    psi.value call per point."""

    @staticmethod
    def _per_entry(psi, X):
        # the central-difference gradient one shifted point at a time, at
        # fd_gradient_check's step 1e-5 max(1, max|X|)
        tau = 1e-5 * max(1.0, float(np.max(np.abs(X))))
        G_fd = np.zeros_like(X)
        for idx in np.ndindex(X.shape):
            E = np.zeros_like(X)
            E[idx] = tau
            G_fd[idx] = (float(psi.value(X + E))
                         - float(psi.value(X - E))) / (2 * tau)
        G = psi.gradient(X)
        return np.linalg.norm(G_fd - G) / max(1.0, np.linalg.norm(G))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (6, 4), (18, 16)])
    def test_equals_per_entry_loop(self, shape, monkeypatch):
        from specvar.certify import (HalfSquaredDistance, LeastSquares,
                                     QuadraticMinusRankOne)
        import specvar.matrix_core as matrix_core
        rng = np.random.default_rng(sum(shape))
        B, E = rng.standard_normal(shape), rng.standard_normal(shape)
        psis = [HalfSquaredDistance(B), QuadraticMinusRankOne(B, E, 0.3),
                LeastSquares(rng.standard_normal((5,) + shape),
                             rng.standard_normal(5)), _Quadratic(B)]
        X = rng.standard_normal(shape)
        X[0, 0] = -0.0
        for psi in psis:
            ref = self._per_entry(psi, X)
            for entries in (1, 3 * X.size, matrix_core._CHUNK_ENTRIES):
                monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
                assert fd_gradient_check(psi, X).gradient_rel_err == ref

    def test_shifted_points_equal_dense_shifts(self, monkeypatch):
        # the points psi.value sees are bitwise X +- a dense shift matrix
        # tau E_i, -0.0 entries read as X + 0 and X - 0 read them
        import specvar.matrix_core as matrix_core
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3))
        X[0, 0] = X[2, 1] = -0.0
        X[1, 2] = 0.0
        seen = []

        class Seen(_Quadratic):
            def value(self, Xs):
                if np.ndim(Xs) == 3:   # not the rows it recurses into
                    seen.append(np.array(Xs))
                return super().value(Xs)

        tau = 1e-5 * max(1.0, float(np.max(np.abs(X))))
        shift = (tau * np.eye(X.size)).reshape((-1,) + X.shape)
        ref = [(X + shift).tobytes(), (X - shift).tobytes()]
        for entries in (1, X.size, matrix_core._CHUNK_ENTRIES):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", entries)
            seen.clear()
            fd_gradient_check(Seen(rng.standard_normal(X.shape)), X)
            sides = [np.concatenate(seen[side::2]).tobytes()
                     for side in (0, 1)]
            assert sides == ref

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e8])
    def test_step_scales_with_the_entries(self, s):
        # an exact quadratic at entries of size s: a step of 1e-5 alone
        # fails it at s = 1e6 (hessian) and at s = 1e8 (both)
        from specvar.certify import HalfSquaredDistance
        X = np.diag([3.0 * s - 0.5, s - 0.5])
        rep = fd_gradient_check(HalfSquaredDistance(np.diag([3.0 * s, s])),
                                X)
        assert rep.tau == 1e-5 * max(1.0, 3.0 * s - 0.5)
        assert rep.ok, rep

    def test_memory_peak(self):
        # 64 x 48: unchunked, each side of the 2 mn points is 75 MB
        import tracemalloc
        from specvar.certify import HalfSquaredDistance
        rng = np.random.default_rng(4)
        psi = HalfSquaredDistance(rng.standard_normal((64, 48)))
        X = rng.standard_normal((64, 48))
        tracemalloc.start()
        try:
            rep = fd_gradient_check(psi, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak < 10e6, f"tracemalloc peak {peak / 1e6:.1f} MB"

    def test_per_matrix_value_is_shape_error(self):
        class PerMatrix(_Quadratic):
            def value(self, X):
                return 0.5 * float(np.sum((X - self.B) ** 2))

        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="psi.value"):
            fd_gradient_check(PerMatrix(rng.standard_normal((3, 2))),
                              rng.standard_normal((3, 2)))

    def test_per_matrix_hessian_is_shape_error(self):
        class PerMatrix(_Quadratic):
            def hessian_apply(self, X, D):
                # reads a stack as one matrix: (k m, n) comes back
                return np.asarray(D).reshape(-1, np.shape(D)[-1])

        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError, match="psi.hessian_apply"):
            fd_gradient_check(PerMatrix(rng.standard_normal((3, 2))),
                              rng.standard_normal((3, 2)))


def _triple(fname, seed, n=6):
    """(X, Y, H) as in the oracle benchmark: X with a top value, a cluster
    of three and a zero block, Y a subgradient of f o sigma there and H a
    critical direction."""
    rng = np.random.default_rng(seed)
    m = n + 2
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    s = np.array([4.0, 3.0, 3.0, 3.0] + [0.0] * (n - 4))
    G = rng.standard_normal((m, n))
    v = np.zeros(n)
    if fname == "l1":
        v[:4], v[4:] = 1.0, np.sort(rng.uniform(0.1, 0.9, n - 4))[::-1]
        G[4:, 4:] = 0.0
    else:
        c = rng.uniform(0.2, 1.0, 3)
        v[0], v[1:4] = 1.0, np.sort(c / c.sum())[::-1]
        A = rng.standard_normal((3, 3))
        G[1:4, 1:4] = rng.standard_normal() * np.eye(3) + A - A.T
    H = U @ G @ V.T
    return (U[:, :n] * s) @ V.T, (U[:, :n] * v) @ V.T, H / np.linalg.norm(H)


class _Counting:
    """F_eval(spec) as an oracle target, counting its calls."""

    def __init__(self, spec):
        self.spec, self.calls = spec, 0

    def __call__(self, M):
        self.calls += 1
        return F_eval(self.spec, M)


class TestStackedOracles:
    """The oracles score their probe points in stacks of at most
    _CHUNK_ENTRIES entries: the outputs are bitwise those of one g call
    per point, with the liminf rows reseeding their sampled directions."""

    @staticmethod
    def _unit(rng, shape):
        d = rng.standard_normal(shape)
        nrm = np.linalg.norm(d)
        return d / nrm if nrm > 0 else d

    @classmethod
    def _per_point(cls, g, x, v, w, z, dgxw, cfg, guides):
        g0 = float(g(x))
        fixed = [(float(g(x + t * w)) - g0 - t * float(np.sum(v * w)))
                 / (0.5 * t * t) for t in cfg.tau_grid]
        table = []
        for tau in cfg.tau_grid:
            rng = np.random.default_rng(cfg.seed)
            wps = [w] + [w + tau * D for D in guides] + [
                w + tau * cfg.radius_c * cls._unit(rng, w.shape)
                for _ in range(cfg.samples_per_tau)]
            table.append((tau, min(
                (float(g(x + tau * wp)) - g0 - tau * float(np.sum(v * wp)))
                / (0.5 * tau * tau) for wp in wps)))
        parab = [(float(g(x + t * w + 0.5 * t * t * z)) - g0 - t * dgxw)
                 / (0.5 * t * t) for t in cfg.tau_grid]
        return fixed, table, parab

    @pytest.mark.parametrize("fname", ["l1", "kyfan:2"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_per_point_loop(self, fname, seed, monkeypatch):
        import specvar.matrix_core as matrix_core
        from specvar.absym import spec_by_name
        f = spec_by_name(fname)
        X, Y, H = _triple(fname, seed)
        Z = np.random.default_rng(seed + 10).standard_normal(X.shape)
        dgxw = float(np.sum(Y * H))
        guides = guided_offsets(X, H)
        cfg = OracleConfig(samples_per_tau=9, seed=seed)
        g = lambda M: F_eval(f, M)
        ref = self._per_point(g, X, Y, H, Z, dgxw, cfg, guides)
        for points in (1, 3, len(guides) + 2, 10_000):
            monkeypatch.setattr(matrix_core, "_CHUNK_ENTRIES", points * X.size)
            assert (quotient2_fixed(g, X, Y, H, cfg),
                    liminf_table(g, X, Y, H, cfg, guides),
                    parabolic_quotient(g, X, H, dgxw, Z, cfg)) == ref

    def test_one_g_call_per_tau_row(self):
        X, Y, H = _triple("l1", 0)
        cfg = OracleConfig()
        for run, calls in [
                (lambda g: quotient2_fixed(g, X, Y, H, cfg), 2),
                (lambda g: liminf_table(g, X, Y, H, cfg,
                                        guided_offsets(X, H)), 5),
                (lambda g: quotient2_liminf(g, X, Y, H, cfg), 2),
                (lambda g: parabolic_quotient(g, X, H, 0.0, H, cfg), 2)]:
            g = _Counting(l1_spec())
            run(g)
            assert g.calls == calls   # the base point, then the stacks

    @pytest.mark.parametrize("call", [
        lambda g, x, cfg: quotient2_fixed(g, x, np.eye(2), SWAP, cfg),
        lambda g, x, cfg: liminf_table(g, x, np.eye(2), SWAP, cfg),
        lambda g, x, cfg: parabolic_quotient(g, x, SWAP, 0.0, SWAP, cfg),
    ])
    def test_per_matrix_g_is_shape_error(self, call):
        cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=2)
        g = lambda M: float(np.sum(M * M))   # reads a stack as one point
        with pytest.raises(ShapeError, match="^g returned shape"):
            call(g, np.diag([1.0, 0.0]), cfg)

    def test_units_equal_sequential_draws(self):
        from specvar.oracles import _units
        for shape in [(3,), (2, 2), (8, 6), (34, 32)]:
            x = np.zeros(shape)
            ref_rng = np.random.default_rng(7)
            ref = [self._unit(ref_rng, shape) for _ in range(5)]
            assert _units(np.random.default_rng(7), 5, x).tolist() \
                == np.array(ref).tolist()


class _NanOnce:
    """The nuclear norm as an oracle target, except NaN at the probe point
    of the given position after the base point, whether g gets one point a
    call or a stack."""

    def __init__(self, position):
        self.left, self.base_seen = position, False

    def __call__(self, M):
        values = F_eval(l1_spec(), M)
        if not self.base_seen:
            self.base_seen = True
            return values
        values = np.array(values, dtype=float, ndmin=1)
        if 0 <= self.left < len(values):
            values[self.left] = np.nan
        self.left -= len(values)
        return values if np.ndim(M) == 3 else float(values[0])


class TestNanProbe:
    """A NaN value of g at any probe point raises NonFinite naming g,
    wherever it falls (a Python min over the quotients read nan or a
    number depending on the position)."""

    @pytest.mark.parametrize("position", [0, 1, 2, 4, 9])
    def test_liminf(self, position):
        cfg = OracleConfig(tau_grid=(1e-1, 1e-2), samples_per_tau=4)
        with pytest.raises(NonFinite, match="^g returned NaN"):
            liminf_table(_NanOnce(position), np.diag([1.0, 0.0]),
                         np.eye(2), SWAP, cfg)

    @pytest.mark.parametrize("position", [0, 3])
    def test_fixed_and_parabolic(self, position):
        cfg = OracleConfig()
        x = np.diag([1.0, 0.0])
        with pytest.raises(NonFinite, match="^g returned NaN"):
            quotient2_fixed(_NanOnce(position), x, np.eye(2), SWAP, cfg)
        with pytest.raises(NonFinite, match="^g returned NaN"):
            parabolic_quotient(_NanOnce(position), x, SWAP, 0.0, SWAP, cfg)
