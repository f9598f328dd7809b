import warnings

import numpy as np
import pytest

from specvar.absym import (
    INF,
    critical,
    kyfan_spec,
    l1_spec,
    linf_spec,
    scale_spec,
    spec_by_name,
)
from specvar.errors import AssumptionViolated, BadK
from specvar.oimf import SpectralPoint
from signed_perm import apply, random_signed_permutation, stabilizer_sample
from tie_runs import reference_runs

BUILTINS = [l1_spec(), linf_spec(), kyfan_spec(2)]
TOL = 1e-9   # an explicit cone threshold: the hooks' tol has no default


class TestEval:
    def test_l1(self):
        assert l1_spec().eval([3.0, -4.0]) == 7.0

    def test_linf(self):
        assert linf_spec().eval([3.0, -4.0]) == 4.0

    def test_kyfan(self):
        assert kyfan_spec(2).eval([5.0, 1.0, -3.0]) == 8.0

    def test_bad_k(self):
        with pytest.raises(BadK):
            kyfan_spec(3).eval([1.0, 2.0])
        with pytest.raises(BadK):
            kyfan_spec(0)

    def test_by_name(self):
        assert spec_by_name("kyfan:2").name == "kyfan:2"
        with pytest.raises(BadK):
            spec_by_name("l3")


class TestSubderivative:
    def test_l1_mixed_pattern(self):
        f = l1_spec()
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            assert f.subderivative([1.0, 0.0], [a, b]) == pytest.approx(
                a + abs(b), abs=1e-14)

    def test_zero_direction(self):
        assert l1_spec().subderivative([1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_linf_tied_max(self):
        assert linf_spec().subderivative([2.0, 2.0], [1.0, 3.0]) == 3.0

    def test_matches_difference_quotient(self):
        rng = np.random.default_rng(1)
        t = 1e-6
        for spec in BUILTINS:
            for _ in range(50):
                x = rng.choice([0.0, 1.0, 1.0, -2.0], size=4) \
                    + 0.1 * rng.integers(0, 3, size=4)
                w = rng.standard_normal(4)
                d = spec.subderivative(x, w)
                q = (spec.eval(x + t * w) - spec.eval(x)) / t
                assert abs(d - q) <= 3 * t * 4

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(2)
        for spec in BUILTINS:
            x = np.array([2.0, 2.0, 0.0, -1.0])
            w = rng.standard_normal(4)
            d = spec.subderivative(x, w)
            assert spec.subderivative(x, 2.5 * w) == pytest.approx(
                2.5 * d, abs=1e-12)


class TestSubdifferential:
    def test_l1_box(self):
        f = l1_spec()
        assert f.subdiff_contains([1.0, 0.0], [1.0, 0.4])
        assert not f.subdiff_contains([1.0, 0.0], [1.0, 1.5])
        np.testing.assert_allclose(
            f.subdiff_representative([1.0, -2.0]), [1.0, -1.0])

    def test_linf_simplex(self):
        f = linf_spec()
        assert f.subdiff_contains([3.0, -4.0], [0.0, -1.0])
        assert not f.subdiff_contains([3.0, -4.0], [0.0, 1.0])
        assert f.subdiff_contains([2.0, 2.0], [0.25, 0.75])
        assert not f.subdiff_contains([2.0, 2.0], [0.25, 0.25])

    def test_at_zero(self):
        # at the origin the subdifferential is the dual-norm unit ball
        assert l1_spec().subdiff_contains([0.0, 0.0], [0.7, -0.7])
        assert not l1_spec().subdiff_contains([0.0, 0.0], [1.2, 0.0])
        assert linf_spec().subdiff_contains([0.0, 0.0], [0.5, -0.5])
        assert not linf_spec().subdiff_contains([0.0, 0.0], [0.8, -0.8])

    def test_representative_is_member(self):
        rng = np.random.default_rng(3)
        for spec in BUILTINS:
            for _ in range(30):
                x = rng.choice([0.0, 1.0, -1.0, 2.0], size=5)
                v = spec.subdiff_representative(x)
                assert spec.subdiff_contains(x, v)

    def test_sample_is_member(self):
        rng = np.random.default_rng(4)
        for spec in BUILTINS:
            for _ in range(30):
                x = rng.choice([0.0, 0.0, 1.0, 3.0], size=5)
                v = spec.subdiff_sample(x, rng)
                assert spec.subdiff_contains(x, v)

    def test_sample_supports_mean_inequality(self):
        # subgradient inequality f(y) >= f(x) + <v, y - x> on random pairs
        rng = np.random.default_rng(5)
        for spec in BUILTINS:
            for _ in range(50):
                x = rng.standard_normal(4)
                y = rng.standard_normal(4)
                v = spec.subdiff_sample(x, rng)
                assert spec.eval(y) >= spec.eval(x) + v @ (y - x) - 1e-10


class TestCriticalCone:
    def test_l1_sign_rules(self):
        f = l1_spec()
        assert critical(f, [1.0, 0.0], [1.0, 1.0], [-2.0, 3.0], TOL)
        assert not critical(f, [1.0, 0.0], [1.0, 1.0], [0.0, -1.0], TOL)
        assert critical(f, [1.0, 0.0], [1.0, 0.4], [5.0, 0.0], TOL)
        assert not critical(f, [1.0, 0.0], [1.0, 0.4], [5.0, 0.1], TOL)


class TestSecondSubderivative:
    def test_indicator_values(self):
        f = l1_spec()
        assert f.second_subderivative([1.0, 0.0], [1.0, 1.0],
                                      [-2.0, 3.0], TOL) == 0.0
        assert f.second_subderivative([1.0, 0.0], [1.0, 1.0],
                                      [0.0, -1.0], TOL) == INF
        assert f.second_subderivative([1.0, 0.0], [1.0, 0.4],
                                      [1.0, 0.0], TOL) == 0.0

    def test_not_polyhedral_without_hook(self):
        # scaling keeps a missing hook missing, so c*f is rejected where f is
        from dataclasses import replace
        f = replace(l1_spec(), second_subderivative=None)
        X, Y = np.diag([1.0, 0.0]), np.diag([1.0, 0.5])
        assert scale_spec(f, 2.0).second_subderivative is None
        for spec, Ys in ((f, Y), (scale_spec(f, 2.0), 2.0 * Y)):
            with pytest.raises(AssumptionViolated):
                SpectralPoint(spec, X, Ys)


class TestParabolic:
    def quotient(self, spec, x, w, z, t):
        x, w, z = map(np.asarray, (x, w, z))
        d = spec.subderivative(x, w)
        return (spec.eval(x + t * w + 0.5 * t * t * z) - spec.eval(x)
                - t * d) / (0.5 * t * t)

    def test_matches_parabola_quotient(self):
        rng = np.random.default_rng(6)
        for spec in BUILTINS:
            for _ in range(40):
                x = rng.choice([0.0, 1.0, 1.0, -1.0], size=4)
                w = rng.choice([0.0, 1.0, -1.0], size=4) \
                    + 0.5 * rng.choice([0.0, 1.0], size=4)
                z = rng.standard_normal(4)
                val = spec.parabolic_subderivative(x, w, z)
                # below the first breakpoint the quotient is exact up to
                # float cancellation (~1e-16 / t^2)
                q = self.quotient(spec, x, w, z, 1e-5)
                assert abs(val - q) < 1e-4

    def test_l1_refined_pattern(self):
        # at x=(1,0) along w=(a,0): second-level pattern keeps |.| on w=0
        f = l1_spec()
        assert f.parabolic_subderivative([1.0, 0.0], [2.0, 0.0],
                                        [1.0, -3.0]) == pytest.approx(4.0)
        assert f.parabolic_subderivative([1.0, 0.0], [2.0, 1.0],
                                        [1.0, -3.0]) == pytest.approx(-2.0)
        assert f.parabolic_subderivative([1.0, 0.0], [2.0, -1.0],
                                        [1.0, -3.0]) == pytest.approx(4.0)

    def test_chained_near_tie_follows_cluster_blocks(self):
        # the tie window at x = (1, 1, 1) is ZERO_TOL (1 + max|w|) = 2e-12;
        # w chains: w_2 is within it of w_1 and w_3 of w_2, not of w_1.
        # The tie rule cuts the run at w_3, so the top-2 face along z
        # is z_1 + z_2 (a window about w_2 would also tie w_3 and pick z_3)
        from specvar.matrix_core import ZERO_TOL
        tol = ZERO_TOL * 2.0
        w = np.array([1.0, 1.0 - 0.6 * tol, 1.0 - 1.2 * tol])
        assert reference_runs(w, tol) == [[0, 1], [2]]
        f = kyfan_spec(2)
        assert f.parabolic_subderivative([1.0, 1.0, 1.0], w,
                                        [0.0, 0.0, 1.0]) == 0.0
        assert f.parabolic_subderivative([1.0, 1.0, 1.0], w,
                                        [1.0, 0.0, 0.0]) == 1.0


class TestSignedPermutations:
    def test_absolute_symmetry(self):
        rng = np.random.default_rng(8)
        for spec in BUILTINS:
            for _ in range(100):
                x = rng.standard_normal(4)
                Q = random_signed_permutation(4, rng)
                assert spec.eval(apply(Q, x)) == spec.eval(x)

    def test_convexity_sampling(self):
        rng = np.random.default_rng(9)
        for spec in BUILTINS:
            for _ in range(100):
                x = rng.standard_normal(4)
                y = rng.standard_normal(4)
                mid = spec.eval(0.5 * (x + y))
                assert mid <= 0.5 * spec.eval(x) + 0.5 * spec.eval(y) + 1e-12


class TestStabilizers:
    def test_subderivative_symmetry_under_stabilizer(self):
        rng = np.random.default_rng(11)
        x = np.array([2.0, 2.0, 0.0, 0.0])
        for spec in BUILTINS:
            for _ in range(50):
                Q = stabilizer_sample(x, rng)
                w = rng.standard_normal(4)
                a = spec.subderivative(x, apply(Q, w))
                b = spec.subderivative(x, w)
                assert abs(a - b) <= 1e-12


class TestScaleSpec:
    def test_values_scale(self):
        f = scale_spec(l1_spec(), 0.5)
        assert f.eval([3.0, -4.0]) == 3.5
        assert f.subderivative([1.0, 0.0], [1.0, 2.0]) == pytest.approx(1.5)

    def test_subdiff_scales(self):
        f = scale_spec(l1_spec(), 0.5)
        assert f.subdiff_contains([1.0, 0.0], [0.5, 0.2])
        assert not f.subdiff_contains([1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(
            f.subdiff_representative([1.0, -2.0]), [0.5, -0.5])

    def test_second_subderivative_scales_cone(self):
        f = scale_spec(l1_spec(), 2.0)
        assert f.second_subderivative([1.0, 0.0], [2.0, 2.0],
                                      [-1.0, 3.0], TOL) == 0.0
        assert f.second_subderivative([1.0, 0.0], [2.0, 2.0],
                                      [0.0, -1.0], TOL) == INF

    @pytest.mark.parametrize("c, v, member", [
        (0.5, [0.5, 0.5, 0.5 * (1 + 1.5e-10)], True),    # violation 7.5e-11
        (2.0, [2.0, 2.0, 2.0 * (1 + 0.75e-10)], False),  # violation 1.5e-10
    ])
    def test_membership_reads_the_scaled_violation(self, c, v, member):
        f = scale_spec(l1_spec(), c)
        x = [2.0, 1.0, 0.0]
        assert f.subdiff_contains(x, v) is member
        assert (f.subdiff_violation(x, v) <= 1e-10) is member


class TestScaledConeThreshold:
    """The cone of scale_spec(f, c) compares the scaled gap |c df(x)(w) -
    v.w| with tol, so its second subderivative hands the base spec
    tol / c, per row for a tol array."""

    @pytest.mark.parametrize("c", [1e-3, 0.5, 1e3])
    def test_tol_reads_the_scaled_gap(self, c):
        f = scale_spec(l1_spec(), c)
        x, v = [2.0, 1.0, 0.0], c * np.array([1.0, 1.0, 0.5])
        w = np.array([0.0, 0.0, 1.0])   # scaled gap c |1 - 0.5| = c / 2
        for tol, member in ((0.25 * c, False), (0.75 * c, True)):
            assert critical(f, x, v, w, tol) is member
            assert f.second_subderivative(x, v, w, tol) == (
                0.0 if member else INF)
        tols = np.array([0.25 * c, 0.75 * c])
        W = np.stack([w, w])
        assert critical(f, x, v, W, tols).tolist() == [False, True]
        assert f.second_subderivative(x, v, W, tols).tolist() == [INF, 0.0]
        assert critical(f, x, v, [1.0, -1.0, 0.0], TOL)
        assert not critical(f, x, v, w, TOL)


class TestStackedHooks:
    """subderivative, critical and second_subderivative on (k, n) rows,
    with a per-row tol: a (k,) array whose entry i is bitwise the
    single-vector call on row i."""

    @staticmethod
    def _assert_rows(f, x, v, W, tols):
        calls = (
            (lambda w, t: f.subderivative(x, w), float),
            (lambda w, t: critical(f, x, v, w, t), bool),
            (lambda w, t: f.second_subderivative(x, v, w, t), float))
        for call, kind in calls:
            for tol in (TOL, tols):
                out = call(W, tol)
                one = [call(w, tol if np.ndim(tol) == 0 else tol[i])
                       for i, w in enumerate(W)]
                assert all(type(o) is kind for o in one)
                assert isinstance(out, np.ndarray) and out.shape == (len(W),)
                assert out.tobytes() == np.array(one, out.dtype).tobytes()

    def test_rows_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        from specvar.matrix_core import ZERO_TOL
        st = hypothesis.strategies
        near = ZERO_TOL * 3.5           # ZERO_TOL (1 + max|x|), max|x| 2.5
        big = np.finfo(float).max

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=150)
        @hypothesis.given(n=st.integers(1, 10), k=st.integers(0, 5),
                          data=st.data())
        def prop(n, k, data):
            # ties, exact zeros, near-ties at 0.1x and 10x the tie tolerance
            cells = data.draw(st.lists(st.sampled_from(
                [0.0, 1.0, -1.0, 1.0 + 0.1 * near, 1.0 - 10.0 * near,
                 -1.0 - 0.1 * near]), min_size=n, max_size=n))
            x = np.array([2.5] + cells)[:n] * data.draw(
                st.sampled_from([1e-300, 1.0, 1e300]))
            order = data.draw(st.integers(1, n))
            c = data.draw(st.sampled_from([1e-3, 0.5, 1e3]))
            rows = []
            for _ in range(k):   # cone members (0, x) and general rows
                kind = data.draw(st.sampled_from(["zero", "x", "any"]))
                if kind == "any":
                    rows.append(np.array(data.draw(st.lists(st.sampled_from(
                        [0.0, 1.0, -0.5, 2.5, 1e300, -1e300, big]),
                        min_size=n, max_size=n))))
                else:
                    rows.append(x if kind == "x" else np.zeros(n))
            W = np.array(rows).reshape(k, n)
            tols = np.array(data.draw(st.lists(st.sampled_from(
                [0.0, 1e-8, 1.0, INF]), min_size=k, max_size=k)))
            for f in (l1_spec(), linf_spec(), kyfan_spec(order)):
                for g, s in ((f, 1.0), (scale_spec(f, c), c)):
                    v = s * np.asarray(f.subdiff_representative(x), float)
                    self._assert_rows(g, x, v, W, tols)

        with warnings.catch_warnings():
            warnings.simplefilter("error")   # overflow to inf is silent
            prop()

    def test_mixed_rows(self):
        f = l1_spec()
        x, v = np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.5])
        W = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -3.0],
                      [1.0, 2.0, 0.0]])   # df - v.w: 0, 0.5, 4.5, 0
        assert f.subderivative(x, W).tolist() == [0.0, 1.0, 3.0, 3.0]
        assert critical(f, x, v, W, TOL).tolist() \
            == [True, False, False, True]
        assert f.second_subderivative(x, v, W, np.array(
            [1e-8, 0.6, 1.0, 1e-8])).tolist() == [0.0, 0.0, INF, 0.0]
        assert f.subderivative(x, W[:0]).shape == (0,)

    def test_inf_minus_inf_is_silent_nan(self):
        # the top part of df(x)(w) overflows to +inf, the tied part to -inf
        big = np.finfo(float).max
        x, w = np.array([2.0, 2.0, -1.0, -1.0]), np.full(4, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, c in ((l1_spec(), 1.0), (scale_spec(l1_spec(), 2.0), 2.0)):
                v = c * np.array([1.0, 1.0, -1.0, -1.0])
                assert np.isnan(f.subderivative(x, w))
                assert np.isnan(f.subderivative(x, np.stack([w, w]))).all()
                assert critical(f, x, v, w, TOL) is False
                assert critical(f, x, v, w, 1.0) is False
                assert f.second_subderivative(x, v, np.stack([w, w]),
                                              np.ones(2)).tolist() == [INF] * 2


class TestFaceReuse:
    """Each hook call classifies the top-k face of its x once and reuses
    it for every row of a stack; nothing is kept between calls, so a spec
    queried at alternating points answers exactly like a fresh spec."""

    POINTS = [np.array([3.0, 1.0, 1.0, 0.0]), np.array([2.0, -2.0, 0.5, 0.0]),
              np.array([1.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.0, 0.0, 0.0])]

    @staticmethod
    def _outputs(spec, x, w, z, seed):
        return (spec.subderivative(x, w),
                spec.parabolic_subderivative(x, w, z),
                spec.subdiff_violation(x, w),
                spec.subdiff_contains(x, w),
                tuple(spec.subdiff_representative(x)),
                tuple(spec.subdiff_sample(x, np.random.default_rng(seed))),
                critical(spec, x, w, z, TOL),
                spec.second_subderivative(x, w, z, TOL))

    @pytest.mark.parametrize("name", ["l1", "linf", "kyfan:2"])
    def test_alternating_points_match_fresh_specs(self, name):
        rng = np.random.default_rng(9)
        spec = spec_by_name(name)
        # runs of equal points (hits) broken by switches (misses)
        for step in range(40):
            x = self.POINTS[(step // 3) % len(self.POINTS)].copy()
            w, z = rng.standard_normal(4), rng.standard_normal(4)
            assert self._outputs(spec, x, w, z, step) == self._outputs(
                spec_by_name(name), x, w, z, step)

    def test_face_follows_in_place_changes(self, monkeypatch):
        import specvar.absym as absym
        calls = []
        classify = absym._classify
        monkeypatch.setattr(absym, "_classify",
                            lambda x, k: calls.append(k) or classify(x, k))
        spec = l1_spec()
        x = np.array([1.0, 0.0])
        w = np.array([1.0, -1.0])
        assert spec.subderivative(x, w) == 2.0
        assert spec.subderivative(x, np.stack([w, -w, w])).tolist() \
            == [2.0, 0.0, 2.0]
        assert len(calls) == 2   # one face per call, whatever the rows
        x[1] = 1.0
        assert spec.subderivative(x, w) == 0.0
        assert len(calls) == 3


class TestRowEval:
    """eval on (s, n) rows gives an (s,) array whose entry i is bitwise
    eval(x[i]): the growth probe scores all its samples in one call."""

    SPECS = {"l1": l1_spec, "linf": linf_spec,
             "kyfan:2": lambda: kyfan_spec(2),
             "0.5*l1": lambda: scale_spec(l1_spec(), 0.5)}

    @staticmethod
    def _assert_rows(f, x):
        out = f.eval(x)
        assert isinstance(out, np.ndarray) and out.shape == (len(x),)
        assert np.array_equal(out, [f.eval(row) for row in x])

    @pytest.mark.parametrize("name", list(SPECS))
    def test_rows_match_vectors(self, name):
        f = self.SPECS[name]()
        rng = np.random.default_rng(4)
        for s, n in ((1, 2), (5, 3), (40, 17), (3, 64), (7, 200)):
            x = rng.standard_normal((s, n)) * 10.0 ** rng.integers(
                -8, 9, (s, n))
            x[0] = 0.0
            x[-1, :2] = [-2.5, 2.5]
            self._assert_rows(f, x)

    def test_rows_bad_k(self):
        with pytest.raises(BadK):
            kyfan_spec(3).eval(np.ones((4, 2)))
        with pytest.raises(BadK):
            l1_spec().eval(np.ones((4, 0)))

    def test_overflow_is_silent_inf(self):
        big = np.finfo(float).max
        f = l1_spec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.eval([1e308, -1e308]) == INF
            assert f.eval([big / 4, big / 4]) == big / 2
            assert f.eval([big / 2, big / 2]) == big
            rows = np.array([[1e308, 1e308], [big / 2, big / 2], [1.0, 2.0]])
            assert f.eval(rows).tolist() == [INF, big, 3.0]

    @pytest.mark.parametrize("x", [[1.0, 1.0], [0.0, 0.0]])
    def test_subderivative_overflow_is_silent_inf(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l1_spec().subderivative(x, [1e308, 1e308]) == INF

    def test_rows_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=60)
        @hypothesis.given(s=st.integers(1, 6), n=st.integers(1, 9),
                          data=st.data())
        def prop(s, n, data):
            # few distinct magnitudes: ties, exact zeros, near-ties at
            # 0.1x and 10x the clustering tolerance, scales 1e-8..1e8
            cells = st.lists(st.sampled_from(
                [0.0, 1.0, -1.0, 2.5, 1.0 + 1e-9, 1.0 - 1e-7]),
                min_size=s * n, max_size=s * n)
            scales = st.lists(st.sampled_from([1e-8, 1.0, 1e8]),
                              min_size=s * n, max_size=s * n)
            x = (np.array(data.draw(cells))
                 * np.array(data.draw(scales))).reshape(s, n)
            k = data.draw(st.integers(1, n))
            for f in (l1_spec(), linf_spec(), kyfan_spec(k),
                      scale_spec(l1_spec(), 0.5)):
                self._assert_rows(f, x)

        prop()


def test_spec_requires_subdiff_violation():
    # the one membership hook every subgradient test of F reads
    from dataclasses import fields

    from specvar.absym import SpectralFunctionSpec
    hooks = {f.name: getattr(l1_spec(), f.name)
             for f in fields(SpectralFunctionSpec)
             if f.name != "subdiff_violation"}
    with pytest.raises(TypeError, match="subdiff_violation"):
        SpectralFunctionSpec(**hooks)


class TestTieRun:
    """``_tie_run`` finds the run of one index under the tie rule.  On
    chained near-ties (steps of 0.4, 0.6, 1 and 1.5 times tol, runs of
    them that span more than tol, zeros) the run, the faces of
    ``_classify`` and ``_signed_top_dirderiv`` equal their forms under the
    entry-by-entry reference walk (``tie_runs.reference_runs``) at every
    k.  The test names keep ``cluster_blocks``, the former name of the
    rule's list form, which the reference walk reproduces."""

    STEPS = (0.4, 0.6, 1.0, 1.5)

    @staticmethod
    def run_ref(v, i, tol):
        return next((b[0], b[-1] + 1) for b in reference_runs(v, tol)
                    if i <= b[-1])

    def chains(self):
        """Signed vectors whose sorted magnitudes chain near-ties at the
        ZERO_TOL scale of ``_classify``, some with gaps and zeros."""
        from specvar.matrix_core import ZERO_TOL
        rng = np.random.default_rng(26)
        for _ in range(150):
            n = int(rng.integers(1, 13))
            top = float(rng.choice([1.0, 3.0, 1e3]))
            tol = ZERO_TOL * (1.0 + top)
            steps = rng.choice(self.STEPS, n - 1) * tol
            steps[rng.random(n - 1) < 0.2] = 0.1 * top     # a clear gap
            a = np.maximum(top - np.concatenate([[0.0], np.cumsum(steps)]),
                           0.0)
            a[rng.random(n) < 0.1] = 0.0
            yield rng.permutation(a * rng.choice([-1.0, 1.0], n))

    def test_run_equals_cluster_blocks(self):
        import specvar.absym as absym
        from specvar.matrix_core import ZERO_TOL
        walked = 0
        for x in self.chains():
            v = np.sort(np.abs(x))[::-1]
            tol = ZERO_TOL * (1.0 + v[0])
            for i in range(len(v)):
                assert absym._tie_run(v, i, tol)[1:] == self.run_ref(v, i,
                                                                     tol)
            # stretches between steps above tol that need the chain walk
            for part in np.split(v, np.flatnonzero(np.diff(v) < -tol) + 1):
                walked += part[0] - part[-1] > tol
        assert walked > 50

    def test_faces_equal_cluster_blocks(self):
        import specvar.absym as absym
        from specvar.matrix_core import ZERO_TOL
        for x in self.chains():
            a = np.abs(x)
            tol = ZERO_TOL * (1.0 + np.max(a))
            order = np.argsort(-a, kind="stable")
            for k in range(1, len(x) + 1):
                lo, hi = self.run_ref(a[order], k - 1, tol)
                face = absym._classify(x, k)
                assert np.array_equal(face.above, order[:lo])
                assert np.array_equal(face.tied, order[lo:hi])
                assert np.array_equal(face.below, order[hi:])
                assert face.q == k - lo
                assert face.theta_zero == bool(a[order[lo]] <= tol)

    def test_signed_top_dirderiv_equals_cluster_blocks(self):
        import specvar.absym as absym
        from specvar.matrix_core import ZERO_TOL
        rng = np.random.default_rng(27)
        for u in self.chains():
            z = rng.standard_normal(len(u))
            scale = float(np.max(np.abs(u)))
            order = np.argsort(-u, kind="stable")
            for q in range(1, len(u)):
                lo, hi = self.run_ref(u[order], q - 1,
                                      ZERO_TOL * (1.0 + scale))
                ref = (float(np.sum(z[order[:lo]]))
                       + float(absym._sum_top(z[order[lo:hi]], q - lo)))
                assert absym._signed_top_dirderiv(u, z, q, scale) == ref
