import dataclasses
import itertools
import math

import numpy as np
import pytest

from specvar import matrix_core
from specvar.absym import (
    INF,
    SpectralFunctionSpec,
    kyfan_spec,
    l1_spec,
    linf_spec,
    scale_spec,
    spec_by_name,
)
from specvar.errors import (
    AssumptionViolated,
    FullRank,
    NoSimultaneousGauge,
    NotASubgradient,
    NotInRegularSubdiff,
    NotInSet,
    RankZero,
    ShapeError,
)
from specvar.matrix_core import (
    GAUGE_TOL,
    Tolerances,
    gauge_randomize,
    partition_of,
    svd_ordered,
)
from specvar.oimf import (
    F_critical_cone_contains,
    F_eval,
    F_parabolic_subderivative,
    F_second_subderivative,
    F_subderivative,
    F_subdiff_contains,
    F_subdiff_element,
    SpectralPoint,
    guided_offsets,
    invariant_set_distance,
    invariant_tangent_contains,
    nuclear_phi_second_diff,
    nuclear_psi_eval,
    nuclear_psi_second_epi,
    nuclear_psi_subderivative,
    nuclear_second_epi,
    set_by_name,
    simultaneous_gauge,
    spectral_ball_set,
    zero_set,
)
from specvar.sv_calculus import min_direction_construct, sigma_dir2

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
BUILTINS = [l1_spec(), linf_spec(), kyfan_spec(2)]


def random_with_spectrum(m, n, svals, rng):
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U[:, :n] @ np.diag(svals) @ V.T


class TestEval:
    def test_nuclear(self):
        assert F_eval(l1_spec(), np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_spectral(self):
        assert F_eval(linf_spec(), np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_kyfan(self):
        rng = np.random.default_rng(0)
        X = random_with_spectrum(4, 3, [5.0, 4.0, 1.0], rng)
        assert F_eval(kyfan_spec(2), X) == pytest.approx(9.0)


class TestEvalStack:
    """F_eval and nuclear_psi_eval map a (k, m, n) stack to (k,) values,
    entry i bitwise the call on X[i], which returns a float."""

    @staticmethod
    def _stack(m, n, seed):
        rng = np.random.default_rng(seed)
        spectra = ([3.0] + [1.0] * (n - 1), [2.0] * n,
                   [2.0] + [0.0] * (n - 1),
                   [1.0, 1.0 - 1e-9] + [0.5] * (n - 2))   # ties, zeros
        Xs = [random_with_spectrum(m, n, s, rng) for s in spectra]
        Xs += list(rng.standard_normal((4, m, n)))
        Xs.append(np.zeros((m, n)))
        return np.array(Xs)

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 3), (9, 8), (12, 12)])
    def test_entry_i_is_the_single_call(self, m, n):
        Xs = self._stack(m, n, m + n)
        evals = [lambda X, f=f: F_eval(f, X) for f in BUILTINS] + [
            nuclear_psi_eval,
            lambda X: nuclear_psi_eval(X, base_rank=1),
            lambda X: nuclear_psi_eval(X, base_rank=n),
            lambda X: nuclear_psi_eval(X, tols=Tolerances(cluster=1e-6))]
        for ev in evals:
            values = ev(Xs)
            assert values.shape == (len(Xs),)
            singles = [ev(X) for X in Xs]
            assert all(type(v) is float for v in singles)
            assert values.tolist() == singles

    def test_stack_of_one(self):
        X = np.diag([2.0, 1.0])
        assert F_eval(l1_spec(), X[None]).tolist() == [F_eval(l1_spec(), X)]
        assert nuclear_psi_eval(X[None]).tolist() == [nuclear_psi_eval(X)]


class TestSubderivative:
    def test_smooth_point_trace(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((2, 2))
        val = F_subderivative(l1_spec(), np.diag([2.0, 1.0]), H)
        assert val == pytest.approx(H[0, 0] + H[1, 1], abs=1e-12)

    def test_at_zero_nuclear_of_h(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((3, 3))
        val = F_subderivative(l1_spec(), np.zeros((3, 3)), H)
        assert val == pytest.approx(
            np.sum(np.linalg.svd(H, compute_uv=False)), abs=1e-12)

    def test_rank_deficient_flat_direction(self):
        assert F_subderivative(l1_spec(), np.diag([1.0, 0.0]),
                               SWAP) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule_oracle(self):
        rng = np.random.default_rng(3)
        t = 1e-6
        for i in range(60):
            f = BUILTINS[i % 3]
            X = rng.standard_normal((5, 4))
            H = rng.standard_normal((5, 4))
            dF = F_subderivative(f, X, H)
            q = (F_eval(f, X + t * H) - F_eval(f, X)) / t
            assert abs(dF - q) <= 3e-5

    def test_diag_crosscheck_with_f_level(self):
        rng = np.random.default_rng(4)
        for f in BUILTINS:
            for _ in range(20):
                X = rng.standard_normal((4, 3))
                z = rng.standard_normal(3)
                sx = np.linalg.svd(X, compute_uv=False)
                lhs = f.subderivative(sx, z)
                rhs = F_subderivative(f, np.diag(sx), np.diag(z))
                assert abs(lhs - rhs) <= 1e-9


class TestSubdifferential:
    def test_box_rule_diagonal(self):
        f = l1_spec()
        X = np.diag([1.0, 0.0])
        assert F_subdiff_contains(f, X, np.diag([1.0, 0.4]))
        assert not F_subdiff_contains(f, X, np.diag([1.0, 1.5]))

    def test_alignment_required(self):
        # sigma(Y) is admissible but Y is not aligned with X
        f = l1_spec()
        X = np.diag([1.0, 0.0])
        Y = np.diag([0.4, 1.0])
        assert not F_subdiff_contains(f, X, Y)

    def test_element(self):
        el = F_subdiff_element(l1_spec(), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(el, np.diag([1.0, 0.0]), atol=1e-12)

    def test_element_is_member(self):
        rng = np.random.default_rng(5)
        for f in BUILTINS:
            for svals in ([2.0, 2.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]):
                X = random_with_spectrum(5, 4, svals, rng)
                assert F_subdiff_contains(f, X, F_subdiff_element(f, X))


class TestSimultaneousGauge:
    def test_diagonalizes_both(self):
        rng = np.random.default_rng(6)
        X = random_with_spectrum(5, 4, [2.0, 2.0, 1.0, 0.0], rng)
        svdX = svd_ordered(X)
        v = np.array([1.0, 1.0, 1.0, 0.3])
        Y = svdX.U[:, :4] @ np.diag(v) @ svdX.V.T
        svd, part, sy = simultaneous_gauge(X, Y)
        np.testing.assert_allclose(svd.reconstruct(), X, atol=1e-10)
        np.testing.assert_allclose(
            svd.U[:, :4].T @ Y @ svd.V, np.diag(sy), atol=1e-8)
        assert np.all(np.diff(sy) <= 1e-8)

    def test_mixing_inside_blocks_allowed(self):
        rng = np.random.default_rng(7)
        X = random_with_spectrum(4, 4, [2.0, 2.0, 1.0, 1.0], rng)
        svdX = svd_ordered(X)
        part = partition_of(svdX)
        g = gauge_randomize(svdX, part, seed=3)
        v = np.array([0.9, 0.9, 0.5, 0.2])
        Y = g.U[:, :4] @ np.diag(v) @ g.V.T
        svd, _, sy = simultaneous_gauge(X, Y)
        np.testing.assert_allclose(sy, v, atol=1e-8)

    def test_rejects_unalignable(self):
        with pytest.raises(NoSimultaneousGauge):
            simultaneous_gauge(np.diag([1.0, 0.5]), SWAP)


class TestOffBlockMask:
    """The off-block energy of U^T Y V is read through one block-owner
    mask: alpha blocks own their squares, the zero block owns its
    columns and every row past n."""

    def instance(self, svals, m):
        rng = np.random.default_rng(41)
        X = random_with_spectrum(m, len(svals), svals, rng)
        return X, svd_ordered(X)

    @pytest.mark.parametrize("factor,raises", [(2.0, True), (0.5, False)])
    @pytest.mark.parametrize("row,col", [(0, 1), (3, 0), (5, 4)])
    def test_off_block_threshold(self, factor, raises, row, col):
        # distinct spectrum at full rank with m = 7 > n = 5: every entry
        # off the diagonal is off-block, row 5 (past n) included
        X, g = self.instance([3.0, 2.5, 2.0, 1.5, 1.0], 7)
        Y0 = g.U[:, :5] @ g.V.T
        eps = factor * GAUGE_TOL * np.linalg.norm(Y0)
        Y = Y0 + eps * np.outer(g.U[:, row], g.V[:, col])
        if raises:
            with pytest.raises(NoSimultaneousGauge, match="off-block"):
                simultaneous_gauge(X, Y)
        else:
            _, _, sy = simultaneous_gauge(X, Y)
            np.testing.assert_allclose(sy, 1.0, atol=1e-7)

    def test_zero_block_rows_past_n_allowed(self):
        X, g = self.instance([3.0, 2.0, 1.0, 0.5, 0.0], 7)
        Y = (g.U[:, :5] @ np.diag([1.0, 1.0, 1.0, 1.0, 0.0]) @ g.V.T
             + 0.3 * np.outer(g.U[:, 6], g.V[:, 4]))
        svd, _, sy = simultaneous_gauge(X, Y)
        np.testing.assert_allclose(sy, [1.0, 1.0, 1.0, 1.0, 0.3], atol=1e-12)
        np.testing.assert_allclose(svd.U[:, :5].T @ Y @ svd.V, np.diag(sy),
                                   atol=1e-12)

    def test_rotation_inside_cluster_accepted(self):
        rng = np.random.default_rng(42)
        X, g = self.instance([3.0, 2.0, 2.0, 2.0, 1.0], 6)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        B = np.diag([1.0, 0.0, 0.0, 0.0, 0.1])
        B[1:4, 1:4] = Q @ np.diag([0.9, 0.5, 0.2]) @ Q.T
        Y = g.U[:, :5] @ B @ g.V.T
        svd, _, sy = simultaneous_gauge(X, Y)
        np.testing.assert_allclose(sy, [1.0, 0.9, 0.5, 0.2, 0.1], atol=1e-12)
        aligned = np.zeros((6, 5))
        aligned[:5] = np.diag(sy)
        np.testing.assert_allclose(svd.U.T @ Y @ svd.V, aligned, atol=1e-12)
        np.testing.assert_allclose(svd.reconstruct(), X, atol=1e-12)


class TestFirstOrderNoGapWarning:
    """First-order outputs never divide by a spectral gap, so a 1e-7 gap
    warns in sigma_dir2 but not in sigma_dir1 (which builds the
    second-order blocks without reading their gap tables), the
    subderivative or the critical-cone test."""

    X = np.diag([1.0, 1.0 - 1e-7])

    def test_subderivative_and_cone(self):
        import warnings
        from specvar.errors import ConditioningWarning
        from specvar.sv_calculus import sigma_dir1, sigma_dir2
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            F_subderivative(l1_spec(), self.X, SWAP)
            for diagnostics in (False, True):
                F_critical_cone_contains(l1_spec(), self.X, np.eye(2), SWAP,
                                         diagnostics=diagnostics)
            sigma_dir1(self.X, SWAP)
        assert not [w for w in caught
                    if issubclass(w.category, ConditioningWarning)]
        with pytest.warns(ConditioningWarning):
            sigma_dir2(self.X, SWAP, np.zeros((2, 2)))


class TestCriticalCone:
    def test_worked_membership(self):
        f = l1_spec()
        X = np.diag([1.0, 0.0])
        Y = np.eye(2)
        assert F_critical_cone_contains(f, X, Y, SWAP)
        assert not F_critical_cone_contains(f, X, Y, np.diag([0.0, -1.0]))

    def test_smooth_point_everything_critical(self):
        rng = np.random.default_rng(8)
        f = l1_spec()
        X = np.diag([2.0, 1.0])
        Y = np.eye(2)
        for _ in range(10):
            assert F_critical_cone_contains(f, X, Y,
                                            rng.standard_normal((2, 2)))

    def test_requires_subgradient(self):
        with pytest.raises(NotASubgradient):
            F_critical_cone_contains(l1_spec(), np.diag([1.0, 0.0]),
                                     2 * np.eye(2), SWAP)

    def test_diagnostics(self):
        f = l1_spec()
        member, info = F_critical_cone_contains(
            f, np.diag([1.0, 0.0]), np.eye(2), SWAP, diagnostics=True)
        assert member and info["f_level_member"]
        assert abs(info["duality_gap"]) <= 1e-10
        assert all(abs(g) <= 1e-10 for g in info["fan_gaps"])
        assert abs(info["von_neumann_gap"]) <= 1e-10


class TestSecondSubderivative:
    def test_worked_nuclear_case(self):
        rep = F_second_subderivative(l1_spec(), np.diag([1.0, 0.0]),
                                     np.eye(2), SWAP)
        assert rep.critical
        assert rep.value == pytest.approx(0.0, abs=1e-10)
        assert rep.d2f_term == 0.0
        assert rep.alpha_term == pytest.approx(2.0, abs=1e-10)
        assert rep.beta_term == pytest.approx(-2.0, abs=1e-10)

    def test_not_critical_infinite(self):
        rep = F_second_subderivative(l1_spec(), np.diag([1.0, 0.0]),
                                     np.eye(2), np.diag([0.0, -1.0]))
        assert not rep.critical and rep.value == INF

    def test_smooth_point_zero(self):
        rep = F_second_subderivative(l1_spec(), np.diag([2.0, 1.0]),
                                     np.eye(2), np.eye(2))
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(9)
        X = random_with_spectrum(4, 3, [2.0, 1.0, 0.0], rng)
        svdX = svd_ordered(X)
        Y = svdX.U[:, :3] @ np.diag([1.0, 1.0, 0.5]) @ svdX.V.T
        H = svdX.U[:, :3] @ np.diag([0.3, -0.2, 0.0]) @ svdX.V.T
        base = F_second_subderivative(l1_spec(), X, Y, H)
        assert base.critical
        for c in (0.5, 2.0, 7.0):
            rep = F_second_subderivative(l1_spec(), X, Y, c * H)
            assert rep.value == pytest.approx(c * c * base.value,
                                              rel=1e-8, abs=1e-10)

    def test_lower_bound_vs_fixed_quotient(self):
        # analytic value never exceeds the fixed-direction quotient by
        # more than the stated slack, on the worked case
        f = l1_spec()
        X, Y, H = np.diag([1.0, 0.0]), np.eye(2), SWAP
        rep = F_second_subderivative(f, X, Y, H)
        t = 1e-3
        quot = (F_eval(f, X + t * H) - F_eval(f, X)
                - t * np.sum(Y * H)) / (0.5 * t * t)
        assert rep.value <= quot + 0.05

    def test_gauge_invariance(self):
        rng = np.random.default_rng(10)
        X = random_with_spectrum(5, 4, [2.0, 2.0, 1.0, 0.0], rng)
        svdX = svd_ordered(X)
        v = np.array([1.0, 1.0, 1.0, 0.4])
        Y = svdX.U[:, :4] @ np.diag(v) @ svdX.V.T
        H = svdX.U[:, :4] @ np.diag([0.5, 0.5, -1.0, 0.0]) @ svdX.V.T
        base = F_second_subderivative(l1_spec(), X, Y, H).value
        for seed in range(20):
            Qm = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            Qn = np.linalg.qr(rng.standard_normal((4, 4)))[0]
            rep = F_second_subderivative(l1_spec(), Qm @ X @ Qn.T,
                                         Qm @ Y @ Qn.T, Qm @ H @ Qn.T)
            assert rep.value == pytest.approx(base, abs=1e-8)


class TestParabolic:
    def test_straight_line_swap(self):
        # sigma'' = (2, 2) and both components enter the l1 expansion
        val = F_parabolic_subderivative(l1_spec(), np.diag([1.0, 0.0]),
                                        SWAP, np.zeros((2, 2)))
        assert val == pytest.approx(4.0, abs=1e-10)

    def test_locally_linear(self):
        val = F_parabolic_subderivative(l1_spec(), np.diag([2.0, 1.0]),
                                        np.eye(2), np.zeros((2, 2)))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_parabolic_quotient(self):
        rng = np.random.default_rng(11)
        f = l1_spec()
        for _ in range(10):
            X = random_with_spectrum(4, 3, [2.0, 1.0, 0.0], rng)
            H = rng.standard_normal((4, 3))
            W = rng.standard_normal((4, 3))
            val = F_parabolic_subderivative(f, X, H, W)
            t = 1e-5
            dF = F_subderivative(f, X, H)
            q = (F_eval(f, X + t * H + 0.5 * t * t * W) - F_eval(f, X)
                 - t * dF) / (0.5 * t * t)
            assert abs(val - q) <= 1e-3 * (1 + abs(val))

    def test_affine_in_second_direction(self):
        # for l1 at a strict interior pattern the value is affine in W
        f = l1_spec()
        X = np.diag([2.0, 1.0])
        H = np.eye(2)
        rng = np.random.default_rng(12)
        W1, W2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        v1 = F_parabolic_subderivative(f, X, H, W1)
        v2 = F_parabolic_subderivative(f, X, H, W2)
        vm = F_parabolic_subderivative(f, X, H, 0.5 * (W1 + W2))
        assert vm == pytest.approx(0.5 * (v1 + v2), abs=1e-10)

    def test_polyhedral_without_hook(self, monkeypatch):
        # a polyhedral f without its hook: refused before any decomposition
        from dataclasses import replace
        from specvar.errors import AssumptionViolated

        def forbidden(*args, **kwargs):
            raise AssertionError("X was decomposed")
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        f = replace(l1_spec(), parabolic_subderivative=None)
        with pytest.raises(AssumptionViolated, match="parabolic hook"):
            F_parabolic_subderivative(f, np.diag([2.0, 1.0]), np.eye(2),
                                      np.eye(2))


class TestParabolicRegularity:
    """Parabolic regularity of the nuclear norm as an identity, l1 half:
    on a critical H, d2F(X|Y)(H) is the minimum over W of d2F(X)(H|W) -
    <Y, W>, attained at W* = 2 (the last guided offset of H).  The left
    side reads ``SpectralPoint``'s tables, the right sigma'' through
    ``direction_blocks``, so this compares the two kernels with each
    other, for l1 and c l1 with ties, zeros, m > n and r = 0."""

    CASES = [(4, 4, [3, 2, 2, 1]), (6, 4, [3, 2, 0, 0]), (5, 3, [2, 2, 0]),
             (7, 3, [0, 0, 0]), (4, 3, [1, 1, 1]), (6, 5, [3, 3, 1, 0, 0]),
             (1, 1, [2]), (3, 1, [0]), (9, 2, [1, 0])]

    @staticmethod
    def instance(m, n, svals, c, boundary, rng):
        """X, Y in c d||X||_* and a critical H; with ``boundary`` sigma(Y)
        reaches c on the zero block, whose cone then holds H with a
        nonnegative entry there."""
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        r = np.count_nonzero(svals)
        z = np.sort(rng.uniform(0.0, 0.9, n - r))[::-1]
        G = rng.standard_normal((m, n))
        G[r:, r:] = 0.0
        if boundary and r < n:
            z[0] = 1.0
            G[r, r] = abs(rng.standard_normal())
        y = c * np.concatenate([np.ones(r), z])
        return (U[:, :n] @ np.diag(svals) @ V.T,
                U[:, :n] @ np.diag(y) @ V.T, U @ G @ V.T)

    @pytest.mark.parametrize("boundary", [False, True])
    @pytest.mark.parametrize("c", [1.0, 1e-3, 1e3])
    def test_min_over_W_is_attained_at_guided_offset(self, c, boundary):
        rng = np.random.default_rng(int(c * 1e3) + boundary)
        f = scale_spec(l1_spec(), c)
        for m, n, svals in self.CASES:
            X, Y, H = self.instance(m, n, np.array(svals, float), c,
                                    boundary, rng)
            rep = F_second_subderivative(f, X, Y, H)
            assert rep.critical
            W = 2.0 * guided_offsets(X, H)[-1]
            at_W = F_parabolic_subderivative(f, X, H, W) - np.sum(Y * W)
            assert at_W == pytest.approx(rep.value, rel=1e-12, abs=0.0)
            for _ in range(10):   # rounding: relative to both terms
                W = W + 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(
                    (m, n))
                par, yw = F_parabolic_subderivative(f, X, H, W), np.sum(Y * W)
                assert par - yw >= rep.value - 1e-12 * max(
                    abs(rep.value), abs(par) + abs(yw))

    # (m, n, sigma(X), sigma(Y)) per spec, Y in dF(X) aligned with X; H
    # is critical when the symmetric part of its block on the tie run
    # where Y's weights lie strictly between 0 and 1 is a multiple of I
    SPEC_CASES = {
        "linf": [(5, 4, [3, 2, 1, 0.5], [1, 0, 0, 0]),
                 (6, 4, [3, 3, 1, 0], [0.6, 0.4, 0, 0]),
                 (4, 4, [2, 2, 2, 2], [0.4, 0.3, 0.2, 0.1]),
                 (7, 3, [1, 0, 0], [1, 0, 0])],
        "kyfan:2": [(5, 4, [3, 2, 1, 0.5], [1, 1, 0, 0]),
                    (7, 5, [4, 3, 3, 3, 0], [1, 0.5, 0.3, 0.2, 0]),
                    (6, 4, [3, 3, 1, 0], [1, 1, 0, 0]),
                    (6, 5, [3, 2, 2, 1, 0], [1, 0.7, 0.3, 0, 0]),
                    (4, 4, [2, 2, 2, 2], [0.8, 0.5, 0.4, 0.3])],
        "l2": [(5, 4, [3, 2, 1, 0.5], None), (6, 4, [3, 3, 1, 0], None),
               (7, 3, [1, 0, 0], None), (4, 4, [2, 2, 2, 2], None)],
    }

    @staticmethod
    def spec(name):
        if name != "l2":
            return spec_by_name(name)

        def parabolic(x, w, z):   # grad f . z plus the Hessian form
            nx = np.linalg.norm(x)
            return z @ x / nx + (w @ w - (w @ x / nx) ** 2) / nx
        return dataclasses.replace(_norm2_spec(),
                                   parabolic_subderivative=parabolic)

    @staticmethod
    def spec_instance(m, n, svals, yvals, rng):
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = np.array(svals, float)
        y = s / np.linalg.norm(s) if yvals is None else np.array(yvals, float)
        G = rng.standard_normal((m, n))
        split = (y > 0) & (y < 1)
        if yvals is not None and split.any():
            run = np.flatnonzero(s == s[np.flatnonzero(split)[0]])
            A = rng.standard_normal((len(run), len(run)))
            G[np.ix_(run, run)] = rng.standard_normal() * np.eye(len(run)) \
                + A - A.T
        return (U[:, :n] @ (s[:, None] * V.T), U[:, :n] @ (y[:, None] * V.T),
                U @ G @ V.T)

    @pytest.mark.parametrize("name", ["linf", "kyfan:2", "l2"])
    def test_other_specs(self, name):
        # d2F(X|Y)(H) <= d2F(X)(H|W) - <Y, W> for every W, with equality
        # at the planted W* = min_direction_construct(X, H, 0): sigma'' is
        # 0 there, the minimum of the f-level parabolic problem for a
        # polyhedral f, and any target for a smooth one
        f = self.spec(name)
        rng = np.random.default_rng(len(name))
        for m, n, svals, yvals in self.SPEC_CASES[name]:
            for _ in range(3):
                X, Y, H = self.spec_instance(m, n, svals, yvals, rng)
                rep = F_second_subderivative(f, X, Y, H)
                assert rep.critical and math.isfinite(rep.value)
                W = min_direction_construct(X, H, np.zeros(n))
                par, yw = F_parabolic_subderivative(f, X, H, W), np.sum(Y * W)
                assert abs(par - yw - rep.value) <= 1e-12 * max(
                    abs(rep.value), abs(par) + abs(yw))
                for _ in range(10):
                    W = 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(
                        (m, n))
                    par = F_parabolic_subderivative(f, X, H, W)
                    yw = np.sum(Y * W)
                    assert par - yw >= rep.value - 1e-12 * max(
                        abs(rep.value), abs(par) + abs(yw))


class TestPsi:
    def test_eval_bottom_cluster(self):
        assert nuclear_psi_eval(np.diag([2.0, 1.0, 1.0])) \
            == pytest.approx(2.0)
        assert nuclear_psi_eval(np.diag([1.0, 0.0])) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_eval_rejects_invalid_cluster_tol(self, tol):
        # each used to return 0.0 for a bottom cluster summing to 2
        with pytest.raises(ShapeError):
            nuclear_psi_eval(np.diag([2.0, 1.0, 1.0]),
                             tols=Tolerances(cluster=tol))

    def test_eval_frozen_rank(self):
        # frozen at base rank 1 the function sums the two smallest values
        # even after a perturbation splits them
        M = np.diag([1.0, 0.3, 0.1])
        assert nuclear_psi_eval(M, base_rank=1) == pytest.approx(0.4)
        assert nuclear_psi_eval(M) == pytest.approx(0.1)
        assert nuclear_psi_eval(np.diag([1.0, 0.0, 0.0]), base_rank=1) == 0.0

    def test_subderivative_examples(self):
        X = np.diag([1.0, 0.0])
        assert nuclear_psi_subderivative(X, SWAP) == pytest.approx(0.0,
                                                                   abs=1e-12)
        assert nuclear_psi_subderivative(X, np.diag([0.0, -1.0])) \
            == pytest.approx(1.0)
        H = np.random.default_rng(13).standard_normal((3, 3))
        assert nuclear_psi_subderivative(np.zeros((3, 3)), H) \
            == pytest.approx(np.sum(np.linalg.svd(H, compute_uv=False)))

    @pytest.mark.parametrize("m, svals", [
        (6, [3.0, 2.0, 0.0, 0.0]), (5, [2.0, 2.0, 1.0, 1.0, 0.0]),
        (8, [1.5, 0.0, 0.0]), (4, [2.0, 1.0, 0.5, 0.0]), (3, [0.0]),
    ])
    def test_subderivative_is_the_zero_block_sum_of_sigma_dir1(self, m,
                                                               svals):
        # psi'(X; H) is bitwise the zero-block sum of the sigma' rows that
        # the cone pass of psi'' reads for a stack of directions
        from specvar.sv_calculus import _prepared, sigma_dir1_stack
        rng = np.random.default_rng(len(svals) * 10 + m)
        X = random_with_spectrum(m, len(svals), svals, rng)
        Hs = rng.standard_normal((40, m, len(svals)))
        svd, part, Hhat = _prepared(X, Hs, stack=True)
        beta_sums = [float(np.sum(d1[part.r:]))
                     for d1 in sigma_dir1_stack(Hhat, part)]
        assert [nuclear_psi_subderivative(X, H) for H in Hs] == beta_sums

    def test_full_rank_rejected(self):
        with pytest.raises(FullRank):
            nuclear_psi_subderivative(np.diag([2.0, 1.0]), SWAP)

    def test_second_epi_worked(self):
        X = np.diag([1.0, 0.0])
        Om = np.diag([0.0, 1.0])
        assert nuclear_psi_second_epi(X, Om, SWAP) == pytest.approx(-2.0,
                                                                    abs=1e-12)
        assert nuclear_psi_second_epi(X, Om, np.diag([0.0, -1.0])) == INF
        assert nuclear_psi_second_epi(X, np.zeros((2, 2)),
                                      np.diag([0.0, 1.0])) == INF

    def test_second_epi_rejects_bad_omega(self):
        X = np.diag([1.0, 0.0])
        with pytest.raises(NotInRegularSubdiff):
            nuclear_psi_second_epi(X, np.diag([0.0, 1.5]), SWAP)
        with pytest.raises(NotInRegularSubdiff):
            nuclear_psi_second_epi(X, np.diag([1.0, 0.5]), SWAP)

    def test_second_epi_overflowing_omega_has_no_test(self):
        # ||Omega||^2 overflows, so no tolerance can be formed: NonFinite,
        # not a ball test at an infinite tolerance that passes ||Z|| = 1e200
        from specvar.errors import NonFinite
        with pytest.raises(NonFinite):
            nuclear_psi_second_epi(np.diag([2.0, 0.0]),
                                   np.diag([0.0, 1e200]), SWAP)

    def test_second_epi_multidim_zero_block(self):
        # rank 1 in 4x3: the zero block is 3x2; check the analytic value
        # against the frozen-rank quotient along the epi-limit parabola
        rng = np.random.default_rng(23)
        X = random_with_spectrum(4, 3, [1.5, 0.0, 0.0], rng)
        svdX = svd_ordered(X)
        H = rng.standard_normal((4, 3))
        Ub, Vb = svdX.U[:, 1:], svdX.V[:, 1:]
        R = Ub.T @ H @ Vb
        QR, sR, QhR = np.linalg.svd(R, full_matrices=True)
        Z = QR[:, :2] @ QhR  # dual alignment: <Z, R> = ||R||_*
        Om = Ub @ Z @ Vb.T
        analytic = nuclear_psi_second_epi(X, Om, H)
        assert math.isfinite(analytic)
        from specvar.oracles import OracleConfig, quotient2_liminf
        g = lambda M: nuclear_psi_eval(M, base_rank=1)
        cfg = OracleConfig(tau_grid=(1e-3,), samples_per_tau=32, seed=0)
        est = quotient2_liminf(g, X, Om, H, cfg,
                               guided_directions=guided_offsets(X, H))
        assert est == pytest.approx(analytic, abs=0.05)
        # the fixed-direction quotient stays above the epi-derivative
        from specvar.oracles import quotient2_fixed
        fixed = quotient2_fixed(g, X, Om, H, cfg)[-1]
        assert analytic <= fixed + 0.05


class TestPhi:
    def test_worked_rank_deficient(self):
        assert nuclear_phi_second_diff(np.diag([1.0, 0.0]), SWAP) \
            == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_direction_flat(self):
        rng = np.random.default_rng(14)
        D = np.diag(rng.standard_normal(2))
        assert nuclear_phi_second_diff(np.diag([2.0, 1.0]), D) \
            == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_swap_cancels(self):
        assert nuclear_phi_second_diff(np.diag([2.0, 1.0]), SWAP) \
            == pytest.approx(0.0, abs=1e-12)

    def test_rank_zero_rejected(self):
        with pytest.raises(RankZero):
            nuclear_phi_second_diff(np.zeros((2, 2)), SWAP)

    def test_matches_sigma_dir2_sum(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            X = rng.standard_normal((4, 3))  # full rank a.s.
            H = rng.standard_normal((4, 3))
            d2 = sigma_dir2(X, H, np.zeros((4, 3)))
            assert nuclear_phi_second_diff(X, H) == pytest.approx(
                float(np.sum(d2)), abs=1e-9)

    @pytest.mark.parametrize("m, svals", [
        (4, [3.0, 2.0, 0.0]),
        (5, [2.0, 2.0, 1.0, 0.0]),
        (7, [3.0, 1.0, 1.0, 0.0, 0.0]),
    ])
    def test_matches_sigma_dir2_sum_rank_deficient(self, m, svals):
        # phi'' = sum over i < r of sigma''_i(X; H, 0), clusters included
        rng = np.random.default_rng(16)
        n, r = len(svals), int(np.count_nonzero(svals))
        for _ in range(5):
            X = random_with_spectrum(m, n, svals, rng)
            H = rng.standard_normal((m, n))
            d2 = sigma_dir2(X, H, np.zeros((m, n)))
            assert nuclear_phi_second_diff(X, H) == pytest.approx(
                float(np.sum(d2[:r])), rel=1e-12, abs=1e-12)


class TestNuclearSecondEpi:
    def test_worked_case(self):
        X = np.diag([1.0, 0.0])
        assert nuclear_second_epi(X, np.eye(2), SWAP) == pytest.approx(
            0.0, abs=1e-10)

    def test_cone_violation(self):
        X = np.diag([1.0, 0.0])
        assert nuclear_second_epi(X, np.eye(2), np.diag([0.0, -1.0])) == INF

    def test_full_rank_reduces_to_phi(self):
        rng = np.random.default_rng(16)
        X = np.diag([2.0, 1.0])
        H = rng.standard_normal((2, 2))
        assert nuclear_second_epi(X, np.eye(2), H) == pytest.approx(
            nuclear_phi_second_diff(X, H), abs=1e-12)

    def test_agrees_with_F_second_subderivative(self):
        rng = np.random.default_rng(17)
        for svals in ([2.0, 1.0, 0.0], [1.0, 1.0, 0.0]):
            X = random_with_spectrum(4, 3, svals, rng)
            svdX = svd_ordered(X)
            v = np.array([1.0, 1.0, 0.6])
            Om = svdX.U[:, :3] @ np.diag(v) @ svdX.V.T
            H = svdX.U[:, :3] @ np.diag([0.4, -0.3, 0.0]) @ svdX.V.T \
                + 0.1 * svdX.U[:, :3] @ SWAP3() @ svdX.V.T
            a = nuclear_second_epi(X, Om, H)
            b = F_second_subderivative(l1_spec(), X, Om, H).value
            assert a == pytest.approx(b, abs=1e-8)

    def test_bad_subgradient(self):
        with pytest.raises(NotASubgradient):
            nuclear_second_epi(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]),
                               SWAP)


class TestOneDecomposition:
    """Each call decomposes X once and builds its direction blocks once."""

    @staticmethod
    def _count(monkeypatch, X):
        import specvar.oimf as oimf
        import specvar.sv_calculus as svc
        calls = {"svd_X": 0, "partition_of": 0, "direction_blocks": 0}

        def counted(mod, name, key, test=lambda *a: True):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[key] += bool(test(*args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        for mod in (oimf, svc):
            counted(mod, "svd_ordered", "svd_X",
                    lambda A, *a: np.shape(A) == X.shape)
            counted(mod, "partition_of", "partition_of")
        counted(oimf, "direction_blocks", "direction_blocks")
        return calls

    @staticmethod
    def _instance():
        rng = np.random.default_rng(31)
        X = random_with_spectrum(6, 4, [2.0, 1.0, 0.0, 0.0], rng)
        svd = svd_ordered(X)
        Om = svd.U[:, :4] @ np.diag([1.0, 1.0, 0.5, 0.25]) @ svd.V.T
        matrix_core._LAST_SVD.entry = None   # the counts start from no SVD
        return X, Om, rng.standard_normal((6, 4))

    def test_nuclear_second_epi(self, monkeypatch):
        X, Om, H = self._instance()
        calls = self._count(monkeypatch, X)
        nuclear_second_epi(X, Om, H)
        assert calls == {"svd_X": 1, "partition_of": 1,
                         "direction_blocks": 0}

    def test_cone_diagnostics(self, monkeypatch):
        X, Om, H = self._instance()
        calls = self._count(monkeypatch, X)
        F_critical_cone_contains(l1_spec(), X, Om, H, diagnostics=True)
        assert calls == {"svd_X": 1, "partition_of": 1,
                         "direction_blocks": 0}

    @pytest.mark.parametrize("diagnostics", [False, True])
    def test_cone_one_svd_of_X(self, monkeypatch, diagnostics):
        # the subgradient check reads sigma(X) from the same decomposition,
        # so np.linalg.svd sees X once in all (directly or in svd_ordered)
        X, Om, H = self._instance()
        calls = self._count(monkeypatch, X)
        svd = np.linalg.svd
        seen = []

        def counted(A, *args, **kwargs):
            seen.append(np.shape(A) == X.shape and np.array_equal(A, X))
            return svd(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        F_critical_cone_contains(l1_spec(), X, Om, H, diagnostics=diagnostics)
        assert calls == {"svd_X": 1, "partition_of": 1,
                         "direction_blocks": 0}
        assert sum(seen) == 1

    def test_deriv_sweep_sequence_prepares_X_once(self, monkeypatch):
        # sigma', sigma'' twice, W-hat, d2F, the guided offsets and phi''
        # at one X share one SVD, one partition and one set of tables of
        # sigma(X), and one alpha-quadratic pass per (X, H) of the
        # direction blocks
        import specvar.sv_calculus as svc
        rng = np.random.default_rng(32)
        svd = svd_ordered(random_with_spectrum(7, 5, [3, 2, 2, 1, 0], rng))
        X, sigma = svd.reconstruct(), svd.sigma.copy()
        Y = svd.U[:, :5] @ np.diag([1.0, 1.0, 1.0, 1.0, 0.5]) @ svd.V.T
        H, W = rng.standard_normal((2, 7, 5))
        G = svd.U.T @ H @ svd.V
        G[4:, 4:] = 0.0
        Hc = svd.U @ G @ svd.V.T
        matrix_core._LAST_SVD.entry = None
        svc._LAST_BLOCKS.entry = None
        calls = dict.fromkeys(["svd", "partition", "tables", "quadratics"], 0)

        def counted(mod, name, key, test=lambda *a: True):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[key] += bool(test(*args))
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        counted(matrix_core, "_svd", "svd", lambda A: np.array_equal(A, X))
        counted(matrix_core, "partition_values", "partition",
                lambda v, *a: np.shape(v) == sigma.shape
                and np.allclose(v, sigma, rtol=1e-12, atol=1e-12))
        counted(matrix_core, "divided_differences", "tables")
        counted(svc, "_class_quadratics", "quadratics")
        svc.sigma_dir1(X, H)
        sigma_dir2(X, H, W)
        sigma_dir2(X, H, svc.min_direction_construct(X, H, np.ones(5)))
        F_second_subderivative(l1_spec(), X, Y, Hc)
        guided_offsets(X, H)
        nuclear_phi_second_diff(X, H)
        assert calls == {"svd": 1, "partition": 1, "tables": 1,
                         "quadratics": 1}

    def test_guided_offsets_after_d2F_one_svd_of_X(self, monkeypatch):
        # aligning the zero block leaves X's memo entry in place, so the
        # guided offsets at the same rank-deficient X reuse its SVD
        X, Om, H = self._instance()
        svd = np.linalg.svd
        seen = []

        def counted(A, *args, **kwargs):
            seen.append(np.shape(A) == X.shape and np.array_equal(A, X))
            return svd(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        F_second_subderivative(l1_spec(), X, Om, H)
        guided_offsets(X, H)
        assert sum(seen) == 1


class TestOmegaToleranceBoundary:
    """Omega with off-block energy k * GAUGE_TOL * max(1, ||Omega||) in
    X's gauge is accepted at k = 0.5 and rejected at k = 2.  The zero
    block of rank-1 X is 9 x 9 with Z = I, so ||Omega|| >= 3 and an
    unscaled tolerance would reject k = 0.5 as well."""

    N = 10

    @classmethod
    def _omega(cls, top, k, pos):
        from specvar.oimf import GAUGE_TOL
        rng = np.random.default_rng(37)
        X = random_with_spectrum(cls.N, cls.N, [1.5] + [0.0] * 9, rng)
        g = svd_ordered(X)
        M = np.eye(cls.N)
        M[0, 0] = float(top)
        c = k * GAUGE_TOL * max(1.0, np.linalg.norm(M))
        M[pos] += c
        G = rng.standard_normal((cls.N, cls.N))
        G[1:, 1:] = 0.0  # psi'(X; H) = 0 = <Omega, H>: H is critical
        return X, g.U @ M @ g.V.T, g.U @ G @ g.V.T

    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)])
    def test_psi_second_epi(self, pos):
        X, Om0, H = self._omega(False, 0.0, pos)
        ref = nuclear_psi_second_epi(X, Om0, H)
        X, Om, H = self._omega(False, 0.5, pos)
        assert nuclear_psi_second_epi(X, Om, H) == pytest.approx(
            ref, rel=1e-6)
        X, Om, H = self._omega(False, 2.0, pos)
        with pytest.raises(NotInRegularSubdiff):
            nuclear_psi_second_epi(X, Om, H)

    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)])
    def test_nuclear_second_epi(self, pos):
        X, Om0, H = self._omega(True, 0.0, pos)
        ref = nuclear_second_epi(X, Om0, H)
        X, Om, H = self._omega(True, 0.5, pos)
        assert nuclear_second_epi(X, Om, H) == pytest.approx(ref, rel=1e-6)
        X, Om, H = self._omega(True, 2.0, pos)
        with pytest.raises(NotASubgradient):
            nuclear_second_epi(X, Om, H)

    @pytest.mark.parametrize("pos", [(0, 0), (0, 1), (1, 0)])
    def test_second_subderivative(self, pos):
        # the f-level test of sigma(Y) reads the same GAUGE_TOL ||Y|| as
        # the block structure, on the diagonal (0, 0) as off it
        X, Om0, H = self._omega(True, 0.0, pos)
        ref = F_second_subderivative(l1_spec(), X, Om0, H).value
        X, Om, H = self._omega(True, 0.5, pos)
        assert F_second_subderivative(l1_spec(), X, Om, H).value == \
            pytest.approx(ref, rel=1e-6)
        X, Om, H = self._omega(True, 2.0, pos)
        with pytest.raises((NotASubgradient, NoSimultaneousGauge)):
            F_second_subderivative(l1_spec(), X, Om, H)


class TestMembershipScale:
    """``SpectralPoint`` and ``F_subdiff_contains`` decide Y for c f at c Y
    as for f at Y: a deviation of Y on the diagonal is measured against
    GAUGE_TOL ||Y||, not against an absolute threshold."""

    @pytest.mark.parametrize("dev, member", [
        (1e-11, True), (1e-9, True), (1e-7, False)])
    def test_same_decision_at_every_weight(self, dev, member):
        X = np.diag([2.0, 1.0, 0.0])
        Y = np.diag([1.0 + dev, 1.0, 0.3])
        decided = []
        for c in (1e-6, 1e-3, 1.0, 1e3):
            try:
                SpectralPoint(scale_spec(l1_spec(), c), X, c * Y)
                decided.append(True)
            except NotASubgradient:
                decided.append(False)
        assert decided == [member] * 4

    @pytest.mark.parametrize("dev, member", [
        (1e-11, True), (1e-9, True), (1e-7, False)])
    def test_subdiff_contains_decides_alike(self, dev, member):
        X = np.diag([2.0, 1.0, 0.0])
        Y = np.diag([1.0 + dev, 1.0, 0.3])
        assert [F_subdiff_contains(scale_spec(l1_spec(), c), X, c * Y)
                for c in (1e-6, 1e-3, 1.0, 1e3)] == [member] * 4


class TestNuclearSplit:
    """The paper's split of the nuclear norm near X, phi + psi: at
    Omega = U_a V_a^T + Omega_psi the second epi-derivative of ||.||_*
    (``SpectralPoint``'s alpha and beta contractions) is the top-r term
    plus the zero-cluster term (``nuclear_psi_second_epi``, checked on
    its own against a reference built from ``svd_ordered``)."""

    @staticmethod
    def _instance(m, n, top, rng):
        """X of rank r = len(top) with those top values, the two parts of
        a subgradient of ||.||_* at X (Z with ||Z||_2 <= 1 and k >= 1 unit
        values) and directions: critical ones, whose zero block lies on
        Z's unit singular pairs, and Gaussian ones."""
        r = len(top)
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U[:, :n] @ np.diag(list(top) + [0.0] * (n - r)) @ V.T
        P = np.linalg.qr(rng.standard_normal((m - r, m - r)))[0]
        Q = np.linalg.qr(rng.standard_normal((n - r, n - r)))[0]
        k = rng.integers(1, n - r + 1)
        z = np.concatenate([np.ones(k), rng.uniform(0.0, 0.9, n - r - k)])
        Om_psi = U[:, r:] @ P[:, :n - r] @ np.diag(z) @ Q.T @ V[:, r:].T
        Hs = []
        for _ in range(2):
            G = rng.standard_normal((m, n))
            G[r:, r:] = P[:, :k] @ np.diag(rng.uniform(0.0, 2.0, k)) \
                @ Q[:, :k].T
            Hs += [U @ G @ V.T, rng.standard_normal((m, n))]
        return X, U[:, :r] @ V[:, :r].T, Om_psi, Hs

    @classmethod
    def _cases(cls):
        rng = np.random.default_rng(2024)
        tops = {1: [[2.0], [0.7]], 2: [[2.0, 2.0], [3.0, 1.0]],
                3: [[2.0, 2.0, 2.0], [3.0, 1.5, 1.5], [1.0, 1.0, 0.4]],
                4: [[2.0, 2.0, 1.0, 1.0]]}
        for m, n in [(6, 4), (5, 5), (8, 3)]:
            for r in range(1, n):
                for top in tops[r]:
                    for _ in range(4):
                        yield cls._instance(m, n, top, rng)

    def test_split_identity(self):
        seen = {"finite": 0, "inf": 0}
        for X, Om_a, Om_psi, Hs in self._cases():
            for H in Hs:
                total = nuclear_second_epi(X, Om_a + Om_psi, H)
                phi = nuclear_phi_second_diff(X, H)
                psi = nuclear_psi_second_epi(X, Om_psi, H)
                if math.isinf(psi):
                    assert total == psi
                    seen["inf"] += 1
                    continue
                scale = max(1.0, abs(phi) + abs(psi))
                assert abs(total - (phi + psi)) <= 1e-12 * scale
                seen["finite"] += 1
        assert seen["finite"] >= 50 and seen["inf"] >= 50

    def test_psi_against_independent_reference(self):
        # psi'' from its own formula in svd_ordered's gauge: -2 <Z,
        # (Hhat_{:,a} Sigma_a^{-1} Hhat_{a,:})_bb> when ||Hhat_bb||_* =
        # <Z, Hhat_bb>, +inf otherwise; every gap is 0 to rounding or
        # far from it, so the two criticality tests cannot disagree
        rng = np.random.default_rng(2110)
        tops = {0: [[]], 1: [[2.0], [0.7]], 2: [[2.0, 2.0], [3.0, 1.0]],
                3: [[2.0, 2.0, 2.0], [3.0, 1.5, 1.5]],
                4: [[2.0, 2.0, 1.0, 1.0]]}
        seen = {"finite": 0, "inf": 0}
        for m, n in [(6, 4), (5, 5), (8, 3), (4, 4), (3, 1)]:
            for r in range(n):
                for top in tops[r]:
                    for zkind in ("zero", "unit", "random"):
                        X, Om, Hs = self._psi_instance(m, n, top, zkind, rng)
                        g = svd_ordered(X)
                        Z = g.U[:, r:].T @ Om @ g.V[:, r:]
                        for H in Hs:
                            Hh = g.U.T @ H @ g.V
                            Hbb = Hh[r:, r:]
                            gap = (np.sum(np.linalg.svd(Hbb, compute_uv=False))
                                   - np.sum(Z * Hbb))
                            assert gap < 1e-12 or gap > 1e-6
                            ref = INF if gap > 1e-6 else -2.0 * np.sum(
                                Z * ((Hh[r:, :r] / g.sigma[:r]) @ Hh[:r, r:]))
                            got = nuclear_psi_second_epi(X, Om, H)
                            if math.isinf(ref):
                                assert got == INF
                                seen["inf"] += 1
                                continue
                            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
                            seen["finite"] += 1
        assert seen["finite"] >= 100 and seen["inf"] >= 100

    @staticmethod
    def _psi_instance(m, n, top, zkind, rng):
        """X of rank len(top), Omega = U_bh Z V_b^T for a zero, a unit-top
        or a random Z with ||Z||_2 < 1, and directions: Hhat_bb on Z's
        unit pairs, zeroed, aligned with Z, and Gaussian."""
        r = len(top)
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U[:, :n] @ np.diag(list(top) + [0.0] * (n - r)) @ V.T
        p = n - r
        P = np.linalg.qr(rng.standard_normal((m - r, m - r)))[0][:, :p]
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        z = {"zero": np.zeros(p), "random": rng.uniform(0.0, 0.9, p),
             "unit": np.concatenate([[1.0], rng.uniform(0.0, 0.9, p - 1)])
             }[zkind]
        Z = P @ np.diag(z) @ Q.T
        k = int(np.sum(z == 1.0))
        blocks = [P[:, :k] @ np.diag(rng.uniform(0.5, 2.0, k)) @ Q[:, :k].T,
                  np.zeros((m - r, p)), rng.uniform(0.5, 2.0) * Z, None]
        Hs = []
        for Gbb in blocks:
            G = rng.standard_normal((m, n))
            if Gbb is not None:
                G[r:, r:] = Gbb
            Hs.append(U @ G @ V.T)
        return X, U[:, r:] @ Z @ V[:, r:].T, Hs


class TestNuclearShapeMismatch:
    # each used to end in a raw numpy ValueError from a matrix product
    @pytest.mark.parametrize("fn, args", [
        (nuclear_psi_subderivative, (np.diag([1.0, 0.0]), np.eye(3))),
        (nuclear_psi_second_epi, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                  np.eye(3))),
        (nuclear_psi_second_epi, (np.diag([1.0, 0.0]), np.eye(3), SWAP)),
        (nuclear_second_epi, (np.diag([1.0, 0.0]), np.eye(3), SWAP)),
        (nuclear_second_epi, (np.zeros((2, 2)), np.eye(2), np.eye(3))),
    ])
    def test_rejected(self, fn, args):
        with pytest.raises(ShapeError):
            fn(*args)


def SWAP3():
    M = np.zeros((3, 3))
    M[0, 1] = M[1, 0] = 1.0
    return M


class TestInvariantSets:
    def test_tangent_examples(self):
        ball = spectral_ball_set(1.0)
        X = np.diag([1.0, 0.0])
        assert invariant_tangent_contains(ball, X, np.diag([-1.0, 0.0]))
        assert not invariant_tangent_contains(ball, X, np.diag([1.0, 0.0]))
        assert invariant_tangent_contains(set_by_name("free"), X,
                                          np.diag([5.0, 5.0]))

    def test_second_order_tangent(self):
        ball = spectral_ball_set(1.0)
        X = np.diag([1.0, 0.0])
        # H flat on the active face: curvature must point inward
        H = np.diag([0.0, 0.5])
        assert invariant_tangent_contains(ball, X, H, order=2,
                                          W=np.diag([-1.0, 0.0]))
        assert not invariant_tangent_contains(ball, X, H, order=2,
                                              W=np.diag([1.0, 0.0]))

    def test_not_in_set(self):
        ball = spectral_ball_set(1.0)
        with pytest.raises(NotInSet):
            invariant_tangent_contains(ball, np.diag([3.0, 0.0]), np.eye(2))

    def test_distance_clip(self):
        ball = spectral_ball_set(1.0)
        d, nearest = invariant_set_distance(ball, np.diag([3.0, 0.5]))
        assert d == pytest.approx(2.0)
        np.testing.assert_allclose(nearest, np.diag([1.0, 0.5]), atol=1e-12)

    def test_distance_zero_inside(self):
        ball = spectral_ball_set(1.0)
        X = np.diag([0.5, 0.2])
        d, nearest = invariant_set_distance(ball, X)
        assert d == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(nearest, X, atol=1e-12)

    def test_distance_to_zero_set(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((3, 3))
        d, nearest = invariant_set_distance(zero_set(), X)
        assert d == pytest.approx(np.linalg.norm(X))
        np.testing.assert_allclose(nearest, 0.0, atol=1e-12)

    def test_distance_attained_by_matrix(self):
        rng = np.random.default_rng(19)
        ball = spectral_ball_set(1.0)
        for _ in range(10):
            X = 2.0 * rng.standard_normal((4, 3))
            d, nearest = invariant_set_distance(ball, X)
            assert abs(np.linalg.norm(X - nearest) - d) <= 1e-9
            assert ball.contains(np.linalg.svd(nearest, compute_uv=False))

    def test_distance_beats_sampling(self):
        # brute-force sampled points of the invariant set never get closer
        rng = np.random.default_rng(20)
        ball = spectral_ball_set(1.0)
        X = rng.standard_normal((2, 2))
        d, _ = invariant_set_distance(ball, X)
        best = np.inf
        for _ in range(10_000):
            s = np.sort(rng.uniform(0, 1, 2))[::-1]
            Qm = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            Qn = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            Yc = Qm @ np.diag(s) @ Qn.T
            best = min(best, np.linalg.norm(X - Yc))
        assert d <= best + 1e-6


class TestGuidedOffsets:
    def test_shapes_and_zero_target(self):
        offs = guided_offsets(np.diag([1.0, 0.0]), SWAP)
        assert all(D.shape == (2, 2) for D in offs)
        # the half-cancelling parabola drives sigma'' to zero
        What = 2.0 * offs[-1]
        d2 = sigma_dir2(np.diag([1.0, 0.0]), SWAP, What)
        np.testing.assert_allclose(d2, 0.0, atol=1e-10)

    def test_no_columns(self):
        X = np.zeros((3, 0))
        assert [D.shape for D in guided_offsets(X, X)] == [(3, 0)]

    @pytest.mark.parametrize("m, n, svals", [
        (4, 3, [0.0, 0.0, 0.0]),            # r = 0
        (5, 5, [3.0, 2.0, 1.5, 1.0, 0.5]),  # r = n
        (3, 0, []),                         # n = 0
        (6, 4, [2.0, 2.0, 2.0, 0.0]),       # tied tops and a zero block
        (9, 4, [3.0, 2.0, 2.0, 1.0]),       # m > n, full rank
        (8, 5, [2.0, 1.0, 1.0, 0.0, 0.0]),
    ])
    def test_stack_is_the_per_H_chain(self, m, n, svals):
        # one (k, m, n) stack: the offsets of each H in turn, bitwise
        rng = np.random.default_rng(m * 10 + n)
        X = random_with_spectrum(m, n, svals, rng) if n else np.zeros((m, 0))
        Hs = rng.standard_normal((6, m, n))
        chain = [D for H in Hs for D in guided_offsets(X, H)]
        stacked = guided_offsets(X, Hs)
        assert len(stacked) == len(chain) == 6 * (1 + (max(svals,
                                                            default=0) > 0))
        assert all(np.array_equal(a, b) for a, b in zip(stacked, chain))
        assert guided_offsets(X, Hs[:0]) == []

    def test_stack_shape_checked(self):
        from specvar.errors import NonFinite
        X = np.diag([1.0, 0.0])
        with pytest.raises(ShapeError):
            guided_offsets(X, np.zeros((3, 2, 3)))
        for bad in (np.zeros(2), np.zeros((1, 3, 2, 2))):
            with pytest.raises(ShapeError, match="differ"):
                guided_offsets(X, bad)
        with pytest.raises(NonFinite):
            guided_offsets(X, np.stack([SWAP, np.full((2, 2), np.nan)]))


class TestSetSymmetry:
    def test_builtin_sets_absolutely_symmetric(self):
        from signed_perm import apply, random_signed_permutation
        rng = np.random.default_rng(21)
        sets = [spectral_ball_set(1.0), zero_set(), set_by_name("free")]
        for delta in sets:
            for _ in range(50):
                x = rng.standard_normal(4)
                Q = random_signed_permutation(4, rng)
                assert delta.contains(apply(Q, x)) == delta.contains(x)

    def test_projection_unavailable(self):
        from specvar.errors import ProjectionUnavailable
        from specvar.oimf import InvariantSetSpec
        bare = InvariantSetSpec(name="bare", contains=lambda x: True,
                                tangent_contains=lambda x, w: True,
                                tangent2_contains=lambda x, w, u: True)
        with pytest.raises(ProjectionUnavailable):
            invariant_set_distance(bare, np.eye(2))


def _rel_close(A, B, rtol=1e-12):
    assert np.linalg.norm(A - B) <= rtol * max(1.0, np.linalg.norm(B))


class TestHatCrossTerm:
    """The cross term H V_a Sigma_a^{-1} U_a^T H read from Hhat = U^T H V
    against the original-space product, in two gauges of X."""

    CASES = [(7, 5, [3.0, 2.0, 2.0, 0.0, 0.0]),
             (6, 6, [2.5, 1.0, 1.0, 1.0, 0.0, 0.0]),
             (5, 3, [1.0, 1.0, 0.0])]

    @staticmethod
    def _gauges(X):
        svd = svd_ordered(X)
        part = partition_of(svd)
        return part, [svd, gauge_randomize(svd, part, seed=3)]

    @staticmethod
    def _original(H, gauge, r):
        Ua, Va = gauge.U[:, :r], gauge.V[:, :r]
        return H @ Va @ np.diag(1.0 / gauge.sigma[:r]) @ Ua.T @ H

    @pytest.mark.parametrize("m, n, svals", CASES)
    def test_helper_in_two_gauges(self, m, n, svals):
        from specvar.sv_calculus import cross_term_hat
        rng = np.random.default_rng(m * n)
        X = random_with_spectrum(m, n, svals, rng)
        H = rng.standard_normal((m, n))
        part, gauges = self._gauges(X)
        r = part.r
        ref = self._original(H, gauges[0], r)
        for g in gauges:
            _rel_close(self._original(H, g, r), ref)
            Hhat = g.U.T @ H @ g.V
            _rel_close(g.U @ cross_term_hat(Hhat, g.sigma[:r]) @ g.V.T, ref)

    @pytest.mark.parametrize("m, n, svals", CASES)
    def test_guided_offsets(self, m, n, svals):
        from specvar.sv_calculus import min_direction_construct
        rng = np.random.default_rng(m + n)
        X = random_with_spectrum(m, n, svals, rng)
        H = rng.standard_normal((m, n))
        part, gauges = self._gauges(X)
        offs = guided_offsets(X, H)
        assert len(offs) == 2
        for g in gauges:
            _rel_close(offs[0], self._original(H, g, part.r))
        _rel_close(offs[1], 0.5 * min_direction_construct(X, H,
                                                          np.zeros(n)))

    @pytest.mark.parametrize("m, n, svals", CASES)
    def test_nuclear_psi_second_epi(self, m, n, svals):
        rng = np.random.default_rng(10 * m + n)
        X = random_with_spectrum(m, n, svals, rng)
        H = rng.standard_normal((m, n))
        part, gauges = self._gauges(X)
        for g in gauges:
            # Omega = U_bh Z V_b^T with Z the polar factor of the reduced
            # block of H: psi'(X; H) = <Omega, H> holds
            Ub, Vb = g.U[:, part.betahat], g.V[:, part.beta]
            P, _, Qt = np.linalg.svd(Ub.T @ H @ Vb, full_matrices=False)
            Omega = Ub @ (P @ Qt) @ Vb.T
            val = nuclear_psi_second_epi(X, Omega, H)
            for g2 in gauges:
                ref = -2.0 * float(np.sum(
                    Omega * self._original(H, g2, part.r)))
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


class TestSpectralPoint:
    """One prepared (X, Y) evaluated along many directions."""

    @staticmethod
    def _instance():
        rng = np.random.default_rng(4)
        X = random_with_spectrum(6, 5, [3.0, 2.0, 2.0, 0.0, 0.0], rng)
        svd = svd_ordered(X)
        # Y = U diag(1, 1, 1, 0.5, 0.2) V^T is in the nuclear-norm
        # subdifferential with a strict zero block
        y = np.array([1.0, 1.0, 1.0, 0.5, 0.2])
        Y = svd.U[:, :5] @ np.diag(y) @ svd.V.T
        return X, Y, svd, rng

    def test_matches_fresh_evaluation(self):
        from specvar.oimf import SpectralPoint
        X, Y, svd, rng = self._instance()
        point = SpectralPoint(l1_spec(), X, Y)
        critical = 0
        for k in range(12):
            G = rng.standard_normal((6, 5))
            if k % 2:
                G[3:, 3:] = 0.0
            H = svd.U @ G @ svd.V.T
            a = point.second_subderivative(H)
            b = F_second_subderivative(l1_spec(), X, Y, H)
            assert a == b
            critical += a.critical
        assert 0 < critical < 12

    def test_no_gauge_or_partition_per_direction(self, monkeypatch):
        import specvar.oimf as oimf
        import specvar.sv_calculus as svc
        X, Y, svd, rng = self._instance()
        point = oimf.SpectralPoint(l1_spec(), X, Y)
        calls = []

        def forbid(name):
            def fn(*args, **kwargs):
                calls.append(name)
                raise AssertionError(name)
            return fn

        monkeypatch.setattr(oimf, "simultaneous_gauge",
                            forbid("simultaneous_gauge"))
        monkeypatch.setattr(svc, "partition_of", forbid("partition_of"))
        for _ in range(5):
            point.second_subderivative(rng.standard_normal((6, 5)))
        assert calls == []

    def test_construction_errors(self):
        from dataclasses import replace
        from specvar.errors import AssumptionViolated
        from specvar.oimf import SpectralPoint
        X, Y, _, _ = self._instance()
        with pytest.raises(NotASubgradient):
            SpectralPoint(l1_spec(), X, 3.0 * Y)
        with pytest.raises(NoSimultaneousGauge):
            SpectralPoint(l1_spec(), np.diag([1.0, 0.5]), SWAP)
        with pytest.raises(AssumptionViolated,
                           match="a second-subderivative hook is required"):
            SpectralPoint(replace(l1_spec(), second_subderivative=None),
                          X, Y)


def _prepared(m, n, svals, fname, seed, randomize=False):
    """A SpectralPoint of f at X = U diag(svals) V^T for an aligned
    subgradient Y (f's representative; interior on the zero block for l1)
    and a stack of directions in X's gauge, half of them zero on the zero
    block, one of them zero."""
    from specvar.absym import spec_by_name
    from specvar.oimf import SpectralPoint
    rng = np.random.default_rng(seed)
    X = random_with_spectrum(m, n, np.asarray(svals, float), rng)
    if randomize:
        svd = svd_ordered(X)
        g = gauge_randomize(svd, partition_of(svd), seed=seed)
        X = g.U[:, :n] @ np.diag(g.sigma) @ g.V.T
    svd = svd_ordered(X)
    r = partition_of(svd).r
    f = spec_by_name(fname)
    y = np.asarray(f.subdiff_representative(svd.sigma), float)
    if fname == "l1":
        y[r:] = np.sort(rng.uniform(0.1, 0.9, n - r))[::-1]
    Y = svd.U[:, :n] @ np.diag(y) @ svd.V.T
    Gs = rng.standard_normal((6, m, n))
    Gs[1::2, r:, r:] = 0.0
    Gs[4] = 0.0
    return SpectralPoint(f, X, Y), svd.U @ Gs @ svd.V.T


def _reference_report(point, H):
    """d2F(X|Y)(H) from the reduced blocks of (X, H), one direction at a
    time: sigma' from the blocks, the alpha term from the per-block
    resolvent quadratics and the beta term from the cross term."""
    from specvar.matrix_core import CONE_TOL
    from specvar.sv_calculus import direction_blocks, sigma_dir1_stack
    f, s, sy, part = point.f, point.gauge.sigma, point.sy, point.part
    blocks = direction_blocks(point.X, H, point.gauge)
    d1 = sigma_dir1_stack(blocks.Hhat[None], blocks.part)[0]
    gap = f.subderivative(s, d1) - float(np.sum(point.Y * H))
    tol = CONE_TOL * (1.0 + np.linalg.norm(point.Y) * np.linalg.norm(H))
    if abs(gap) > tol:
        return False, INF, 0.0, 0.0
    alpha = sum(2.0 * float(sy[ix] @ np.diag(G))
                for (idx, _), Gs in zip(blocks.classes, blocks.quadratics)
                for ix, G in zip(idx, Gs))
    r, Hhat = part.r, blocks.Hhat
    cross = -2.0 * (Hhat[r:, :r] / s[:r]) @ Hhat[:r, r:part.n]
    beta = float(sy[part.beta] @ np.diag(cross))
    d2f = f.second_subderivative(s, sy, d1, tol)
    return True, d2f + alpha + beta, alpha, beta


def _close(a, b, rtol=1e-12):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _assert_stacked_matches(point, Hs):
    stacked = point.second_subderivatives(Hs)
    assert len(stacked) == len(Hs)
    for H, a in zip(Hs, stacked):
        b = point.second_subderivative(H)
        assert a.critical == b.critical
        assert a.warnings == b.warnings
        for field in ("value", "d2f_term", "alpha_term", "beta_term",
                      "duality_gap"):
            assert _close(getattr(a, field), getattr(b, field)), field
        crit, value, alpha, beta = _reference_report(point, H)
        assert a.critical == crit
        assert _close(a.value, value)
        assert _close(a.alpha_term, alpha) and _close(a.beta_term, beta)
    return stacked


class TestBatchedDirections:
    """A (k, m, n) stack gives the reports of k separate calls, and both
    agree with the per-direction reduced-block formula."""

    CASES = {
        "zero": (3, 2, [0.0, 0.0]),
        "full-rank": (4, 3, [3.0, 2.0, 1.0]),
        "n=1": (3, 1, [2.0]),
        "n=1-zero": (1, 1, [0.0]),
        "square": (4, 4, [3.0, 2.0, 2.0, 0.0]),
        "tall-40x4": (40, 4, [2.5, 1.5, 0.0, 0.0]),
        "clusters": (7, 6, [3.0, 3.0, 2.0, 2.0, 2.0, 0.0]),
    }

    @pytest.mark.parametrize("randomize", [False, True])
    @pytest.mark.parametrize("case, fname", [
        (case, fname) for case, (_, n, _) in CASES.items()
        for fname in ("l1", "linf", "kyfan:2")
        if n >= 2 or fname != "kyfan:2"])
    def test_stack_matches_single_calls(self, case, fname, randomize):
        m, n, svals = self.CASES[case]
        point, Hs = _prepared(m, n, svals, fname, seed=m * n,
                              randomize=randomize)
        _assert_stacked_matches(point, Hs)

    def test_mixed_critical_rows(self):
        point, Hs = _prepared(6, 5, [3.0, 2.0, 2.0, 0.0, 0.0], "l1", seed=4)
        crit = [rep.critical for rep in _assert_stacked_matches(point, Hs)]
        assert crit == [False, True, False, True, True, True]

    def test_bad_rows_raise_like_single_calls(self):
        from specvar.errors import NonFinite
        point, Hs = _prepared(4, 3, [3.0, 2.0, 0.0], "l1", seed=1)
        Hs[2, 0, 0] = np.nan
        with pytest.raises(NonFinite):
            point.second_subderivatives(Hs)
        with pytest.raises(NonFinite):
            point.second_subderivative(Hs[2])
        with pytest.raises(ShapeError):
            point.second_subderivatives(Hs[:, :, :2])
        with pytest.raises(ShapeError):
            point.second_subderivative(Hs[0, :, :2])
        assert point.second_subderivatives(Hs[:0]) == []

    @pytest.mark.parametrize("hook", ["subderivative",
                                      "second_subderivative"])
    def test_hook_must_return_one_value_per_row(self, hook):
        from dataclasses import replace
        point, Hs = _prepared(4, 3, [3.0, 2.0, 0.0], "l1", seed=1)
        good = getattr(point.f, hook)
        point.f = replace(point.f, **{hook: lambda x, *a: float(
            np.ravel(good(x, *a))[0])})   # a scalar for a stack
        with pytest.raises(ShapeError, match=rf"^f\.{hook} returned shape "
                                             r"\(\) for a stack of \d+$"):
            point.second_subderivatives(Hs)

    @pytest.mark.parametrize("svals, fires", [
        ([1.0 + 5e-7, 1.0, 0.0], 1),      # neighbouring blocks: both warn
        ([2.0, 1.0, 0.0], 0),
    ])
    def test_conditioning_warning_per_call(self, svals, fires):
        import warnings
        from specvar.errors import ConditioningWarning
        from specvar.sv_calculus import (direction_blocks,
                                         sigma_dir2_from_blocks)
        point, Hs = _prepared(4, 3, svals, "l1", seed=2)

        def fired(fn):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fn()
            return out, [str(w.message) for w in caught
                         if issubclass(w.category, ConditioningWarning)]

        blocks = direction_blocks(point.X, Hs[0])
        per_block = fired(lambda: sigma_dir2_from_blocks(
            blocks, np.zeros(point.X.shape)))[1]
        assert len(per_block) == 2 * fires
        assert fired(lambda: point.second_subderivative(Hs[0]))[1] \
            == per_block
        assert fired(lambda: F_second_subderivative(
            point.f, point.X, point.Y, Hs[0]))[1] == per_block
        reports, caught = fired(lambda: point.second_subderivatives(Hs))
        assert caught == per_block
        assert all(len(rep.warnings) == (2 * fires if rep.critical else 0)
                   for rep in reports)

    @pytest.mark.parametrize("fname", ["l1", "linf", "kyfan:2"])
    def test_stack_property(self, fname):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=40)
        @hypothesis.given(n=st.integers(1, 5), extra=st.integers(0, 3),
                          rank=st.integers(0, 5), cluster=st.booleans(),
                          randomize=st.booleans(),
                          seed=st.integers(0, 2**16))
        def prop(n, extra, rank, cluster, randomize, seed):
            hypothesis.assume(fname != "kyfan:2" or n >= 2)
            r = min(rank, n)
            svals = np.zeros(n)
            svals[:r] = np.linspace(3.0, 0.5, r)
            if cluster and r >= 2:
                svals[1] = svals[0]
            point, Hs = _prepared(n + extra, n, svals, fname, seed,
                                  randomize=randomize)
            _assert_stacked_matches(point, Hs)

        prop()


class TestTwoViewsOfD2F:
    """``second_subderivatives`` reads its reports off the arrays of the
    kernel ``SpectralPoint._terms``: every field of every row bitwise,
    the warning texts on the critical rows only."""

    @pytest.mark.parametrize("svals, warns", [
        ([3.0, 2.0, 2.0, 0.0, 0.0], False),
        ([1.0 + 5e-7, 1.0, 0.5, 0.0, 0.0], True),
    ], ids=["gapped", "near-tie"])
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_reports_equal_the_kernel_arrays(self, svals, warns, k):
        import warnings
        from specvar.errors import ConditioningWarning
        point, Hs = _prepared(6, 5, svals, "l1", seed=4)
        Hs = np.concatenate([Hs, 2.0 * Hs[1:2]])[:k]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            reports = point.second_subderivatives(Hs)
            gaps, crit, d2f, alpha, beta = point._terms(Hs)
        with np.errstate(over="ignore", invalid="ignore"):   # as certify
            value = np.where(np.isfinite(d2f), d2f + alpha + beta, INF)
        assert len(reports) == k
        if k == 7:
            assert 0 < crit.sum() < k
        assert [rep.critical for rep in reports] == crit.tolist()
        for field, arr in (("duality_gap", gaps), ("value", value),
                           ("d2f_term", d2f), ("alpha_term", alpha),
                           ("beta_term", beta)):
            got = np.array([getattr(rep, field) for rep in reports], float)
            assert got.tobytes() == arr.tobytes(), field
        texts = point._report_warns
        assert bool(texts) == warns
        assert [rep.warnings for rep in reports] == [
            texts if c else () for c in crit.tolist()]


class _LinearPsi:
    """psi(X) = -<Y, X>: -grad psi is Y itself, bit for bit."""

    def __init__(self, Y):
        self.Y = Y

    def value(self, X):
        return -float(np.sum(self.Y * X))

    def gradient(self, X):
        return -self.Y

    def hessian_apply(self, X, H):
        return np.zeros_like(H)


class TestOneSubgradientDecision:
    """Every entry point decides Y in dF(X) by one test: the aligned
    residual of Y and the f-level violation of its aligned values, both
    within GAUGE_TOL ||Y||.  F_subdiff_contains, SpectralPoint,
    stationarity_check and F_critical_cone_contains agree on every Y."""

    SPECS = {"l1": l1_spec(), "linf": linf_spec(), "kyfan:2": kyfan_spec(2),
             "0.5*l1": scale_spec(l1_spec(), 0.5),
             "1e3*l1": scale_spec(l1_spec(), 1e3)}
    SHAPES = [(4, 3), (5, 5), (6, 4), (3, 1), (8, 6)]
    MAGS = [1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6]

    @staticmethod
    def _decisions(f, X, Y, H):
        from specvar.certify import ProblemSpec, stationarity_check
        member = F_subdiff_contains(f, X, Y)
        try:
            SpectralPoint(f, X, Y)
            point = True
        except (NotASubgradient, NoSimultaneousGauge):
            point = False
        _, stationary = stationarity_check(
            ProblemSpec(psi=_LinearPsi(Y), f=f), X)
        try:
            F_critical_cone_contains(f, X, Y, H)
            cone = True
        except NotASubgradient:
            cone = False
        return member, point, stationary, cone

    @pytest.mark.parametrize("fname", list(SPECS))
    def test_agreement_sweep(self, fname):
        # exact subgradients U diag(v) V^T, v sampled from df(sigma(X)),
        # moved by 1e-12 .. 1e-6 relative along the gauge's diagonal and
        # along a Gaussian direction, on distinct, clustered and
        # rank-deficient spectra
        f = self.SPECS[fname]
        seen = set()
        for m, n in self.SHAPES:
            if fname == "kyfan:2" and n < 2:
                continue
            for kind in range(3):
                rng = np.random.default_rng([m, n, kind])
                s = np.sort(rng.uniform(0.5, 3.0, n))[::-1]
                if kind == 1:
                    s = np.repeat(s[::2], 2)[:n]
                elif kind == 2:
                    s[n - max(1, n // 2):] = 0.0
                U = np.linalg.qr(rng.standard_normal((m, m)))[0]
                V = np.linalg.qr(rng.standard_normal((n, n)))[0]
                X = U[:, :n] @ (s[:, None] * V.T)
                Y0 = U[:, :n] @ (f.subdiff_sample(s, rng)[:, None] * V.T)
                H = rng.standard_normal((m, n))
                for D in (U[:, :n] @ (rng.standard_normal(n)[:, None] * V.T),
                          rng.standard_normal((m, n))):
                    D *= np.linalg.norm(Y0) / np.linalg.norm(D)
                    for mag in self.MAGS:
                        got = set(self._decisions(f, X, Y0 + mag * D, H))
                        assert len(got) == 1, (m, n, kind, mag)
                        seen |= got
        assert seen == {True, False}   # members and non-members both met

    def test_cone_agrees_with_second_subderivative(self):
        # a top value of Y off by 5e-10 is a subgradient at GAUGE_TOL ||Y||,
        # and the swap in the top block is critical for both entry points
        X = np.zeros((4, 3))
        X[:3] = np.diag([2.0, 1.0, 0.0])
        Y = np.zeros((4, 3))
        Y[:3] = np.diag([1.0 + 5e-10, 1.0, 0.5])
        H = np.zeros((4, 3))
        H[:2, :2] = SWAP
        rep = F_second_subderivative(l1_spec(), X, Y, H)
        assert rep.critical
        assert F_critical_cone_contains(l1_spec(), X, Y, H) is True
        assert F_subdiff_contains(l1_spec(), X, Y) is True

    def test_predicates_return_python_bool(self):
        from specvar.certify import soft_threshold_fixture, stationarity_check
        from specvar.cli import dumps_17g
        import json
        X, Y, H = np.diag([1.0, 0.0]), np.diag([1.0, 0.5]), SWAP
        member, info = F_critical_cone_contains(l1_spec(), X, Y, H,
                                                diagnostics=True)
        _, ok = stationarity_check(*soft_threshold_fixture())
        values = {"subdiff": F_subdiff_contains(l1_spec(), X, Y),
                  "cone": F_critical_cone_contains(l1_spec(), X, Y, H),
                  "cone_diagnostics": member, "info_member": info["member"],
                  "stationary": ok}
        assert all(type(v) is bool for v in values.values())
        assert json.loads(dumps_17g(values)) == values


class TestConeAgreement:
    """``F_critical_cone_contains`` and ``SpectralPoint`` decide H in the
    critical cone in one duality-gap pass, so they agree on every
    direction, including those whose gap straddles the threshold; a
    direction whose ||H||^2 overflows has no decision in either."""

    SPECS = {"l1": l1_spec, "linf": linf_spec, "kyfan:2": lambda: kyfan_spec(2),
             "0.5*l1": lambda: scale_spec(l1_spec(), 0.5),
             "1e3*l1": lambda: scale_spec(l1_spec(), 1e3)}
    SPECTRA = (lambda n: 3.0 - 0.37 * np.arange(n),
               lambda n: np.repeat([3.0, 1.5, 0.8], n)[:n],
               lambda n: np.where(np.arange(n) <= n // 2,
                                  3.0 - 0.5 * np.arange(n), 0.0))

    @pytest.mark.parametrize("fname", list(SPECS))
    def test_decisions_agree(self, fname):
        from specvar.errors import NonFinite
        f = self.SPECS[fname]()
        decided = set()
        for (m, n), (i, spectrum) in itertools.product(
                ((4, 3), (6, 4), (5, 5), (8, 6)), enumerate(self.SPECTRA)):
            rng = np.random.default_rng([m, n, i])
            U = np.linalg.qr(rng.standard_normal((m, m)))[0]
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            s = spectrum(n)
            X = U[:, :n] @ (s[:, None] * V.T)
            Y = U[:, :n] @ (f.subdiff_sample(s, rng)[:, None] * V.T)
            point = SpectralPoint(f, X, Y)
            Hs = np.array([
                scale * (X / np.linalg.norm(X) + eps * G)
                for G in rng.standard_normal((2, m, n))
                for eps in (0.0, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7)
                for scale in (1e-3, 1.0, 1e3)])
            crit = [rep.critical for rep in point.second_subderivatives(Hs)]
            assert [F_critical_cone_contains(f, X, Y, H) for H in Hs] == crit
            decided.update(crit)
            big = 1e308 * (X / np.linalg.norm(X))
            for decide in (lambda: F_critical_cone_contains(f, X, Y, big),
                           lambda: F_critical_cone_contains(
                               f, X, Y, big, diagnostics=True),
                           lambda: point.second_subderivative(big)):
                with pytest.raises(NonFinite):
                    decide()
        assert decided == {False, True}

    def test_overflowing_Y_raises(self):
        # ||Y||^2 overflows: no subgradient test, no warning
        from specvar.errors import NonFinite
        f = scale_spec(l1_spec(), 1e200)
        X, Y = np.diag([2.0, 1.0]), 1e200 * np.eye(2)
        H = 1e150 * np.diag([1.0, 2.0])
        with pytest.raises(NonFinite):
            F_critical_cone_contains(f, X, Y, H)
        with pytest.raises(NonFinite):
            F_second_subderivative(f, X, Y, H)

    def test_large_H_without_overflow_is_decided(self):
        # ||Y|| ||H|| = 3.2e300 is finite: the gap and d2F are exact
        f = scale_spec(l1_spec(), 1e150)
        X, Y = np.diag([2.0, 1.0]), 1e150 * np.eye(2)
        H = 1e150 * np.diag([1.0, 2.0])
        assert F_critical_cone_contains(f, X, Y, H)
        rep = F_second_subderivative(f, X, Y, H)
        assert rep.critical and rep.value == 0.0


def _norm2_spec():
    """f = ||x||_2, so F = ||X||_F: C2 away from 0, with d2f(x|v)(w) the
    Hessian form (||w||^2 - <x, w>^2 / ||x||^2) / ||x|| on a critical
    cone that is all of R^n.  Only the three required hooks and a
    row-wise second subderivative; no stub for any other hook."""
    def subderivative(x, w):
        n = np.linalg.norm(x)
        return w @ x / n if n > 0 else np.linalg.norm(w, axis=-1)

    def violation(x, v):
        n = np.linalg.norm(x)
        return float(np.linalg.norm(v - x / n) if n > 0
                     else max(np.linalg.norm(v) - 1.0, 0.0))

    def second(x, v, w, tol):
        n = np.linalg.norm(x)
        return (np.sum(w * w, axis=-1) - (w @ x / n) ** 2) / n

    return SpectralFunctionSpec(
        name="l2", convex=True, lsc=True, lipschitz_on_domain=True,
        eval=lambda x: np.linalg.norm(x, axis=-1),
        subderivative=subderivative, subdiff_violation=violation,
        second_subderivative=second)


class TestSmoothSpec:
    """A smooth spec needs only the required hooks, and its nonzero d2f
    slot gives the closed form of d2||.||_F through SpectralPoint."""

    @pytest.mark.parametrize("m, n", [(6, 4), (5, 5), (8, 3)])
    def test_frobenius_norm_closed_form(self, m, n):
        f = _norm2_spec()
        rng = np.random.default_rng(m * n)
        for _ in range(20):
            # full rank, relative gaps 1e-3, 1e-2 or 1e-1 of sigma_1
            gaps = rng.choice([1e-3, 1e-2, 1e-1], n - 1)
            s = rng.uniform(0.5, 2.0) * np.concatenate(
                [[1.0], 1.0 - np.cumsum(gaps)])
            U, V = (np.linalg.qr(rng.standard_normal((k, k)))[0]
                    for k in (m, n))
            X = U[:, :n] @ (s[:, None] * V.T)
            Hs = rng.standard_normal((8, m, n))
            reps = SpectralPoint(f, X, X / np.linalg.norm(X)) \
                .second_subderivatives(Hs)
            nx = np.linalg.norm(X)
            for H, rep in zip(Hs, reps):
                ref = (np.sum(H * H) - np.sum(X * H) ** 2 / nx ** 2) / nx
                assert rep.critical and rep.d2f_term != 0.0
                assert abs(rep.value - ref) <= 1e-12 * abs(ref)

    def test_subgradient_element_needs_its_hook(self):
        with pytest.raises(AssumptionViolated,
                           match="subdiff_representative"):
            F_subdiff_element(_norm2_spec(), np.diag([2.0, 1.0]))
