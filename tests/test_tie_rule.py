"""One tie rule: f's faces, ``nuclear_psi_eval``'s bottom group and the
matrix-level decisions follow the blocks of ``partition_values``.  The
entry points hand f's hooks sigma(X) snapped to their partition, and a
direct hook call draws at the default ``Tolerances``."""
import warnings

import numpy as np
import pytest

from specvar.absym import _classify, kyfan_spec, l1_spec, linf_spec
from specvar.errors import (ConditioningWarning, NoSimultaneousGauge,
                            NotASubgradient)
from specvar.matrix_core import (CLUSTER_TOL, RANK_TOL, Tolerances,
                                 partition_of, partition_values, svd_ordered)
from specvar.oimf import (F_critical_cone_contains, F_second_subderivative,
                          F_subdiff_contains, SpectralPoint, _singular_values,
                          nuclear_psi_eval)
from face_sample import subdiff_sample

SPECS = {"l1": l1_spec(), "linf": linf_spec(), "kyfan:2": kyfan_spec(2),
         "kyfan:3": kyfan_spec(3)}


def diag(m, n, d):
    X = np.zeros((m, n))
    X[range(len(d)), range(len(d))] = d
    return X


class TestBands:
    """Values in the bands where a tie window of 1e-12 (1 + max|x|) and
    the partition's thresholds disagree: membership, d2F and psi follow
    the partition."""

    @pytest.mark.parametrize("f, Xd, Yd", [
        (kyfan_spec(2), lambda g: (3.0, 1.0 + g, 1.0), (1.0, 0.5, 0.5)),
        (linf_spec(), lambda g: (1.0 + g, 1.0, 0.5), (0.5, 0.5, 0.0))],
        ids=["kyfan:2", "linf"])
    def test_near_tie_is_a_tie(self, f, Xd, Yd):
        Y = diag(4, 3, Yd)
        got = [F_subdiff_contains(f, diag(4, 3, Xd(g)), Y)
               for g in (0.0, 1e-13, 1e-11, 1e-9, 1e-7)]
        assert got == [True, True, True, True, False]

    def test_near_zero_follows_rank_floor(self):
        # 1.5e-12 lies above the rank floor 1e-12, so sigma_2 is no zero
        # and Y's 0.5 on it is no subgradient; 1e-13 is a zero
        f, Y = l1_spec(), diag(3, 2, (1.0, 0.5))
        H = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        for delta, zero in ((1.5e-12, False), (1e-13, True)):
            part = partition_values(np.array([1.0, delta]))
            face = _classify(np.array([1.0, delta]), 2)
            assert np.sum(face.signs == 0) == part.n - part.r == zero
            X = diag(3, 2, (1.0, delta))
            assert F_subdiff_contains(f, X, Y) == zero
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConditioningWarning)
                if zero:
                    assert F_second_subderivative(f, X, Y, H).value == \
                        1.0000000000002003
                else:
                    with pytest.raises(NotASubgradient):
                        F_second_subderivative(f, X, Y, H)

    @pytest.mark.parametrize("g", [1e-6, 1e-5])
    def test_coarse_tolerances_reach_the_face(self, g):
        X, Y = diag(4, 3, (3.0, 1.0 + g, 1.0)), diag(4, 3, (1.0, 0.5, 0.5))
        point = SpectralPoint(kyfan_spec(2), X, Y, Tolerances(cluster=1e-4))
        assert point.part.sizes.tolist() == [1, 2]
        with pytest.raises(NotASubgradient):
            SpectralPoint(kyfan_spec(2), X, Y)

    def test_psi_sums_the_last_block(self):
        assert nuclear_psi_eval(np.diag([1.0, 5e-9, 0.0])) == 0.0
        assert nuclear_psi_eval(np.diag([2.0, 1e-9, 1e-13])) == 1e-13

    @pytest.mark.parametrize("shape, want", [((3, 0), 0.0),
                                             ((2, 3, 0), [0.0, 0.0])])
    def test_psi_of_no_columns_is_the_empty_sum(self, shape, want):
        X = np.zeros(shape)
        got = nuclear_psi_eval(X)
        assert np.asarray(got).tolist() == want
        assert np.asarray(nuclear_psi_eval(X, base_rank=0)).tolist() == want


def _spectra():
    """sigma_1 in {0.5, 1, 1e3}, then steps of 0.4, 0.6 and 1.5 times
    cluster max(1, sigma_1) at the default cluster or at 1e-4 (chained
    near-ties), clear gaps, values at 0.1 and 10 times the rank floor and
    exact zeros, sorted nonincreasingly."""
    st = pytest.importorskip("hypothesis").strategies
    kinds = st.sampled_from(["0.4", "0.6", "1.5", "gap", "0.1r", "10r",
                             "zero"])

    @st.composite
    def spectrum(draw):
        top = draw(st.sampled_from([0.5, 1.0, 1e3]))
        cluster = draw(st.sampled_from([CLUSTER_TOL, 1e-4]))
        scale = max(1.0, top)
        out = [top]
        for kind in draw(st.lists(kinds, max_size=5)):
            if kind in ("0.1r", "10r", "zero"):
                out.append({"0.1r": 0.1, "10r": 10.0, "zero": 0.0}[kind]
                           * RANK_TOL * scale)
            elif kind == "gap":
                out.append(0.6 * out[-1])
            else:
                out.append(out[-1] - float(kind) * cluster * scale)
        return np.sort(np.maximum(out, 0.0))[::-1]

    return spectrum()


def test_one_rule_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"member": set(), "decided": set()}

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=60)
    @hypothesis.given(s=_spectra(), seed=st.integers(0, 2 ** 16))
    def check(s, seed):
        n, rng = len(s), np.random.default_rng(seed)
        part = partition_values(s)
        bounds = part.starts.tolist() + [part.r, n]
        for k in range(1, n + 1):     # a face is a union of blocks
            face = _classify(s, k)
            lo, hi = len(face.above), len(face.above) + len(face.tied)
            assert lo in bounds and hi in bounds
            assert not any(lo < b < hi for b in bounds)
            assert np.array_equal(face.tied, np.arange(lo, hi))
            assert np.flatnonzero(face.signs == 0).tolist() == list(
                range(part.r, n))
        sv = _singular_values(np.diag(s))     # psi's own sigma
        last = partition_values(sv)
        last = last.r if last.r < n else last.starts[-1]
        assert nuclear_psi_eval(np.diag(s)) == float(np.sum(sv[last:]))
        tols = Tolerances(cluster=1e-4)
        m = n + 1
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        svd = svd_ordered(U[:, :n] @ (s[:, None] * V.T))
        snapped = partition_of(svd, tols).snapped
        for name, f in SPECS.items():
            if name.startswith("kyfan") and int(name[-1]) > n:
                continue
            # a subgradient of f or of another spec, at sigma or snapped
            g = SPECS[name if rng.random() < 0.5 else "l1"]
            v = subdiff_sample(g, (s, snapped)[seed % 2], rng)
            Y = svd.U[:, :n] @ (v[:, None] * svd.V.T)
            X = svd.U[:, :n] @ (s[:, None] * svd.V.T)
            Xs = svd.U[:, :n] @ (snapped[:, None] * svd.V.T)
            decided = []
            for Z in (X, Xs):
                try:
                    SpectralPoint(f, Z, Y, tols)
                    decided.append("accepted")
                except (NotASubgradient, NoSimultaneousGauge) as e:
                    decided.append(type(e).__name__)
            assert decided[0] == decided[1]
            seen["decided"].add(decided[0])
            if decided[0] != "accepted":
                continue
            top = np.zeros(n)
            top[:partition_of(svd, tols).sizes[0]] = rng.standard_normal()
            for H in (rng.standard_normal((m, n)), Xs,
                      svd.U[:, :n] @ (top[:, None] * svd.V.T)):
                got = F_critical_cone_contains(f, X, Y, H, tols=tols)
                assert got == F_critical_cone_contains(f, Xs, Y, H,
                                                       tols=tols)
                seen["member"].add(got)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        check()
    assert seen["member"] == {True, False}
    assert {"accepted", "NotASubgradient"} <= seen["decided"]
