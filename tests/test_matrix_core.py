import numpy as np
import pytest

from specvar.errors import (
    InconsistentPartition,
    NonFinite,
    NotSorted,
    ShapeError,
)
from specvar.matrix_core import (
    Tolerances,
    _run_starts,
    cluster_ranks,
    gauge_randomize,
    partition_of,
    partition_values,
    read_matrix_csv,
    svd_ordered,
    sym_eig_ordered,
    write_matrix_csv,
)
from symmetric_lift import lift, lift_eigenbasis
from tie_runs import reference_runs


def random_with_spectrum(m, n, svals, rng):
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U[:, :n] @ np.diag(svals) @ V.T


class TestSvdOrdered:
    def test_diagonal_ordered(self):
        d = svd_ordered(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(d.sigma, [2.0, 1.0])
        np.testing.assert_allclose(d.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(d.V, np.eye(2), atol=1e-14)

    def test_diagonal_needs_reorder(self):
        d = svd_ordered(np.diag([1.0, 3.0]))
        np.testing.assert_allclose(d.sigma, [3.0, 1.0])
        # permutation matrices: exactly one unit entry per row/column
        for M in (d.U, d.V):
            np.testing.assert_allclose(np.abs(M).sum(axis=0), 1, atol=1e-14)
            np.testing.assert_allclose(np.abs(M).max(axis=0), 1, atol=1e-14)
        np.testing.assert_allclose(d.reconstruct(), np.diag([1.0, 3.0]),
                                   atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.standard_normal((5, 4))
            d = svd_ordered(X)
            d.validate(X)
            resid = np.linalg.norm(X - d.reconstruct())
            assert resid <= 1e-10 * max(1.0, np.linalg.norm(X))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        a, b = svd_ordered(X), svd_ordered(X.copy())
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.V, b.V)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((5, 5))
        d = svd_ordered(X)
        for k in range(5):
            i = np.argmax(np.abs(d.U[:, k]))
            assert d.U[i, k] > 0

    def test_rejects_wide(self):
        with pytest.raises(ShapeError):
            svd_ordered(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(NonFinite):
            svd_ordered(X)


class TestSymEig:
    def test_diagonal(self):
        d = sym_eig_ordered(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(d.lam, [3.0, -1.0])

    def test_exchange(self):
        d = sym_eig_ordered(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(d.lam, [1.0, -1.0])

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        A = 0.5 * (A + A.T)
        d = sym_eig_ordered(A)
        off = d.Q.T @ A @ d.Q - np.diag(d.lam)
        assert np.linalg.norm(off) <= 1e-10 * max(1.0, np.linalg.norm(A))

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            sym_eig_ordered(np.zeros((3, 2)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_stack_matches_one_by_one(self, k):
        # one call on a (b, k, k) stack: the same bits as b calls
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, k, k))
        A[0] = np.eye(k)                  # ties: the sign rule's argmax
        stacked = sym_eig_ordered(A)
        for i in range(len(A)):
            one = sym_eig_ordered(A[i])
            assert np.array_equal(stacked.Q[i], one.Q)
            assert np.array_equal(stacked.lam[i], one.lam)
        assert np.linalg.norm(stacked.reconstruct()
                              - 0.5 * (A + A.mT)) <= 1e-12 * k


class TestClusterRanks:
    def test_matches_cluster_blocks_per_row(self):
        # chains of steps below tol split where the drift from the run's
        # first entry exceeds it, exactly as in the one-vector rule (the
        # test keeps the name of its former list form, cluster_blocks)
        rng = np.random.default_rng(9)
        V = -np.cumsum(rng.choice([0.0, 0.4e-8, 0.7e-8, 0.3],
                                  size=(200, 7)), axis=1)
        tol = rng.choice([1e-8, 2e-8], size=200)
        ranks = cluster_ranks(V, tol)
        for v, t, rk in zip(V, tol, ranks):
            expect = np.zeros(len(v), dtype=int)
            for blk in reference_runs(v, t):
                expect[blk] = np.arange(1, len(blk) + 1)
            assert rk.tolist() == expect.tolist()


class TestLift:
    def test_block_structure(self):
        X = np.diag([2.0, 1.0])
        B = lift(X)
        np.testing.assert_allclose(B[:2, 2:], X)
        np.testing.assert_allclose(B[2:, :2], X.T)
        np.testing.assert_allclose(B[:2, :2], 0)
        np.testing.assert_allclose(sym_eig_ordered(B).lam, [2, 1, -1, -2])

    def test_zero(self):
        B = lift(np.zeros((3, 2)))
        assert B.shape == (5, 5)
        np.testing.assert_allclose(B, 0)

    def test_spectrum_matches_sigma(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            X = rng.standard_normal((4, 3))
            s = svd_ordered(X).sigma
            lam = sym_eig_ordered(lift(X)).lam
            expect = np.concatenate([s, np.zeros(1), -s[::-1]])
            np.testing.assert_allclose(lam, expect, atol=1e-10)

    def test_eigenbasis_exact(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 3))
        svd = svd_ordered(X)
        P, d = lift_eigenbasis(svd)
        B = lift(X)
        np.testing.assert_allclose(P.T @ P, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(B @ P, P * d[None, :], atol=1e-12)


class TestPartition:
    def test_worked_example(self):
        p = partition_values(np.array([3.0, 3.0, 1.0, 0.0, 0.0]))
        assert p.t == 2 and p.r == 3
        assert p.alpha_blocks == [[0, 1], [2]]
        assert p.beta == [3, 4]
        # 1-based counters: l_2 = 2 (second entry of first block),
        # j_1 = 1, r_1 = 2
        assert p.l[1] == 2 and p.j[0] == 1 and p.r_s[0] == 2
        assert p.l[3] == 1 and p.j[3] == 1 and p.r_s[3] == 2

    def test_all_equal(self):
        p = partition_values(np.array([1.0, 1.0, 1.0]))
        assert p.t == 1 and p.alpha_blocks == [[0, 1, 2]] and p.beta == []

    def test_tolerance_boundary(self):
        v = np.array([1.0 + 5e-9, 1.0])
        p = partition_values(v, Tolerances(cluster=1e-8))
        assert p.t == 1 and p.alpha_blocks == [[0, 1]]
        p = partition_values(np.array([1.0 + 5e-8, 1.0]),
                             Tolerances(cluster=1e-8))
        assert p.t == 2

    def test_rejects_unsorted(self):
        with pytest.raises(NotSorted):
            partition_values(np.array([1.0, 2.0]))

    def test_values_are_a_read_only_copy(self):
        # the tables are built from the values on first use, so a later
        # edit of the caller's vector reaches neither, built or not
        v = np.array([3.0, 3.0, 1.0, 0.0])
        lazy, built = partition_values(v), partition_values(v)
        D = built.tables.D.copy()
        v[:] = [5.0, 4.0, 2.0, 1.0]
        for part in (lazy, built):
            assert part.values.tolist() == [3.0, 3.0, 1.0, 0.0]
            assert np.array_equal(part.tables.D, D)
            with pytest.raises(ValueError):
                part.values[0] = 1.0


class TestArrayPartition:
    """The partition's arrays reproduce the runs of the entry-by-entry
    rule, with mu, l, j, r_s, owners and size classes, on a seeded sweep
    of chained near-ties (steps of 0.4, 0.6, 1 and 1.5 cluster tolerances)
    plus gaps, zeros, n = 1 and X = 0, each at m - n in {0, 2, 40}."""

    TOL = 1e-8 * 3.0      # the cluster tolerance at sigma_1 = 3

    @classmethod
    def spectra(cls):
        rng = np.random.default_rng(12)
        out = [[3.0, 1.0] + [1.0 - i * step * cls.TOL for i in range(1, 6)]
               + [0.5] for step in (0.4, 0.6, 1.0, 1.5)]
        for _ in range(20):   # random walks over the same steps and gaps
            steps = rng.choice([0.0, 0.4, 0.6, 1.0, 1.5, 1e6], size=11)
            out.append(list(3.0 - cls.TOL * np.cumsum(steps)))
        return out + [[3.0, 1.0 + 5e-7, 1.0, 1.0 - 3e-7, 0.5, 0.5],
                      [3.0, 1.0, 1.0, 1e-13, 0.0, 0.0], [1.5], [0.0] * 3]

    @staticmethod
    def expect(part, v, tols):
        n, m = len(v), part.m
        scale = max(1.0, v[0]) if n else 1.0
        r = int(np.sum(v > tols.rank * scale))
        runs = reference_runs(v[:r].tolist(), tols.cluster * scale)
        assert _run_starts(v[:r], tols.cluster * scale) == [b[0] for b in runs]
        blocks = runs + ([list(range(r, n))] if r < n else [])
        assert part.alpha_blocks == runs and part.t == len(runs)
        assert part.beta == list(range(r, n))
        assert part.beta0 == list(range(n, m)) and part.r == r
        assert np.array_equal(part.values, v)
        assert part.starts.tolist() == [b[0] for b in runs]
        assert part.sizes.tolist() == [len(b) for b in runs]
        assert np.array_equal(part.mu, np.array([v[b[0]] for b in runs]))
        assert part.l.tolist() == [i - b[0] + 1 for b in blocks for i in b]
        assert part.r_s.tolist() == [len(b) for b in blocks for _ in b]
        assert part.j.tolist() == [b[-1] - i for b in blocks for i in b]
        assert part.owner.tolist() == [k for k, b in enumerate(blocks)
                                       for _ in b]
        sizes = sorted({len(b) for b in runs})
        assert [c.tolist() for c in part.classes] == [
            [b for b in runs if len(b) == k] for k in sizes]

    @pytest.mark.parametrize("extra", [0, 2, 40])
    def test_sweep_matches_the_entry_by_entry_rule(self, extra):
        rng = np.random.default_rng(13 + extra)
        for svals in self.spectra():
            v = np.array(svals)
            n = len(v)
            for tols in (Tolerances(), Tolerances(cluster=2e-8)):
                self.expect(partition_values(v, tols, m=n + extra), v, tols)
                svd = svd_ordered(random_with_spectrum(n + extra, n, v, rng))
                self.expect(partition_of(svd, tols), svd.sigma, tols)

    def test_empty(self):
        part = partition_values(np.zeros(0), m=3)
        assert part.t == part.r == 0 and part.classes == ()
        assert part.starts.size == part.owner.size == 0
        assert part.beta0 == [0, 1, 2] and part.alpha_blocks == []


class TestGaugeRandomize:
    def test_identity_any_seed(self):
        svd = svd_ordered(np.eye(2))
        part = partition_of(svd)
        g = gauge_randomize(svd, part, seed=7)
        np.testing.assert_allclose(g.reconstruct(), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(g.U, g.V, atol=1e-12)

    def test_distinct_sigma_sign_flips_only(self):
        svd = svd_ordered(np.diag([2.0, 1.0]))
        part = partition_of(svd)
        g = gauge_randomize(svd, part, seed=0)
        np.testing.assert_allclose(np.abs(g.U), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(g.reconstruct(), np.diag([2.0, 1.0]),
                                   atol=1e-12)

    def test_repeated_and_zero_blocks(self):
        rng = np.random.default_rng(8)
        X = random_with_spectrum(4, 3, [3.0, 3.0, 0.0], rng)
        svd = svd_ordered(X)
        part = partition_of(svd)
        for seed in range(1, 11):
            g = gauge_randomize(svd, part, seed)
            assert np.linalg.norm(g.reconstruct() - X) <= 1e-10 * max(
                1.0, np.linalg.norm(X))
            # actually a different decomposition
            assert not np.allclose(g.U, svd.U)

    def test_inconsistent_partition(self):
        svd = svd_ordered(np.diag([2.0, 1.0]))
        other = partition_of(svd_ordered(np.diag([1.0, 1.0, 0.0])))
        with pytest.raises(InconsistentPartition):
            gauge_randomize(svd, other, seed=0)


class TestInequalities:
    """Trace inequalities that every decomposition must satisfy."""

    N_PAIRS = 1000

    def test_fan(self):
        rng = np.random.default_rng(9)
        for _ in range(self.N_PAIRS):
            A = rng.standard_normal((3, 3))
            A = 0.5 * (A + A.T)
            B = rng.standard_normal((3, 3))
            B = 0.5 * (B + B.T)
            la, lb = sym_eig_ordered(A).lam, sym_eig_ordered(B).lam
            assert np.sum(A * B) <= la @ lb + 1e-10

    def test_von_neumann_and_equality(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_PAIRS):
            X = rng.standard_normal((3, 3))
            Y = rng.standard_normal((3, 3))
            sx, sy = svd_ordered(X).sigma, svd_ordered(Y).sigma
            assert np.sum(X * Y) <= sx @ sy + 1e-10
        # equality at a simultaneous ordered decomposition
        for k in range(50):
            X = rng.standard_normal((4, 3))
            d = svd_ordered(X)
            s = np.sort(rng.uniform(0, 2, 3))[::-1]
            Y = d.U[:, :3] @ np.diag(s) @ d.V.T
            assert abs(np.sum(X * Y) - d.sigma @ s) <= 1e-10 * (
                1 + np.linalg.norm(X) * np.linalg.norm(Y))

    def test_sigma_lipschitz(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_PAIRS):
            X = rng.standard_normal((4, 3))
            Y = rng.standard_normal((4, 3))
            dx = np.linalg.norm(svd_ordered(X).sigma - svd_ordered(Y).sigma)
            assert dx <= np.linalg.norm(X - Y) + 1e-10


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((3, 4))
        p = tmp_path / "x.csv"
        write_matrix_csv(p, X)
        np.testing.assert_array_equal(read_matrix_csv(p), X)

    def test_header_skip(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1.0,2.0\n")
        np.testing.assert_array_equal(read_matrix_csv(p, header=True),
                                      [[1.0, 2.0]])

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ShapeError):
            read_matrix_csv(p)

    def test_bad_token_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,abc\n")
        with pytest.raises(ShapeError):
            read_matrix_csv(p)
