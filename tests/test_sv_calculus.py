import warnings
from collections import Counter

import numpy as np
import pytest

from specvar import matrix_core, oimf, sv_calculus
from specvar.absym import l1_spec

from specvar.errors import (
    AsymmetricInput,
    ConditioningWarning,
    NotBlockSorted,
    ShapeError,
)
from specvar.matrix_core import (
    GAP_WARN,
    TOLERANCES,
    SvdDecomposition,
    Tolerances,
    _level_starts,
    gauge_randomize,
    partition_of,
    partition_values,
    svd_ordered,
)
from specvar.sv_calculus import (
    direction_blocks,
    eig_expand2,
    expansion_residual,
    min_direction_construct,
    sigma_dir1,
    sigma_dir1_stack,
    sigma_dir2,
    sigma_dir2_from_blocks,
)
from symmetric_lift import lift, lift_eigenbasis
from tie_runs import reference_runs

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_with_spectrum(m, n, svals, rng):
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U[:, :n] @ np.diag(svals) @ V.T


def corpus(rng, count, degenerate_every=2):
    """Mix of generic and repeated/rank-deficient instances."""
    out = []
    for i in range(count):
        if i % degenerate_every == 0:
            svals = rng.choice([[2.0, 2.0, 1.0, 0.0], [3.0, 1.0, 1.0, 1.0],
                                [1.0, 1.0, 0.0, 0.0]], axis=0)
            X = random_with_spectrum(5, 4, svals, rng)
        else:
            X = rng.standard_normal((5, 4))
        out.append((X, rng.standard_normal((5, 4)),
                    rng.standard_normal((5, 4))))
    return out


def reduced(blocks, blk):
    """The symmetrized reduced block of Hhat on the indices blk."""
    A = blocks.Hhat[np.ix_(blk, blk)]
    return 0.5 * (A + A.T)


def d1_of(blocks):
    """sigma'(X; H) in the gauge of ``blocks``: the one sigma' code on its
    Hhat."""
    return sigma_dir1_stack(blocks.Hhat[None], blocks.part)[0]


def groups_of(ltilde):
    """The second-level groups of a run of 1-based ranks, local to the
    run: each group starts where the rank is 1."""
    return [g.tolist() for g in np.split(np.arange(len(ltilde)),
                                         np.flatnonzero(ltilde == 1)[1:])
            if len(g)]


def beta_groups(blocks):
    """The positive second-level groups of sigma(R) and its zero group,
    local to the zero block: sigma(R) ~ 0 comes last."""
    r, n = blocks.part.r, blocks.part.n
    p = n - r - blocks.beta.zeros
    return groups_of(blocks.ltilde[r:r + p]), list(range(p, n - r))


def in_block_order(blocks, per_class):
    """One row per alpha block, in block order, of stacks kept per size
    class (as ``classes`` and ``quadratics`` are): each class lists its
    blocks in order, so sorting on a block's first index merges them."""
    rows = [(ix[0], row) for (idx, _), stack in zip(blocks.classes, per_class)
            for ix, row in zip(idx, stack)]
    return [row for _, row in sorted(rows, key=lambda item: item[0])]


class TestDirectionBlocks:
    def test_distinct_diagonal(self):
        b = direction_blocks(np.diag([2.0, 1.0]), np.eye(2))
        assert b.part.t == 2 and b.beta is None
        np.testing.assert_allclose(reduced(b, [0]), [[1.0]])
        np.testing.assert_allclose(reduced(b, [1]), [[1.0]])

    def test_repeated_block_splits(self):
        b = direction_blocks(np.eye(2), np.diag([3.0, -1.0]))
        assert b.part.t == 1
        np.testing.assert_allclose(reduced(b, [0, 1]), np.diag([3.0, -1.0]))
        np.testing.assert_allclose(d1_of(b), [3.0, -1.0])
        assert groups_of(b.ltilde) == [[0], [1]]

    def test_rank_deficient_blocks(self):
        b = direction_blocks(np.diag([1.0, 0.0]), SWAP)
        assert b.part.alpha_blocks == [[0]]
        np.testing.assert_allclose(reduced(b, [0]), [[0.0]])
        assert b.part.beta == [1]
        np.testing.assert_allclose(b.Hhat[1:, 1:], [[0.0]])
        assert beta_groups(b) == ([], [0]) and b.beta.zeros == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            direction_blocks(np.zeros((2, 2)), np.zeros((3, 2)))


class TestSigmaDir1:
    def test_identity_direction(self):
        np.testing.assert_allclose(sigma_dir1(np.diag([2.0, 1.0]), np.eye(2)),
                                   [1.0, 1.0])

    def test_at_zero_equals_sigma_of_h(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((2, 2))
        np.testing.assert_allclose(sigma_dir1(np.zeros((2, 2)), H),
                                   svd_ordered(H).sigma, atol=1e-12)

    def test_swap_direction_flat(self):
        np.testing.assert_allclose(sigma_dir1(np.diag([2.0, 1.0]), SWAP),
                                   [0.0, 0.0], atol=1e-14)

    def test_positive_homogeneity_exact(self):
        rng = np.random.default_rng(1)
        for X, H, _ in corpus(rng, 10):
            d = sigma_dir1(X, H)
            np.testing.assert_allclose(sigma_dir1(X, 3.0 * H), 3.0 * d,
                                       atol=1e-12)

    def test_block_ordering(self):
        rng = np.random.default_rng(2)
        for X, H, _ in corpus(rng, 10):
            b = direction_blocks(X, H)
            d = d1_of(b)
            for blk in b.part.alpha_blocks:
                assert np.all(np.diff(d[blk]) <= 1e-12)

    def test_forward_quotient_linear_decay(self):
        rng = np.random.default_rng(3)
        errs = {1e-3: 0.0, 1e-4: 0.0}
        for X, H, _ in corpus(rng, 20):
            d = sigma_dir1(X, H)
            s0 = svd_ordered(X).sigma
            for t in errs:
                st = svd_ordered(X + t * H).sigma
                errs[t] = max(errs[t], np.max(np.abs((st - s0) / t - d)))
        ratio = errs[1e-3] / errs[1e-4]
        assert 5.0 <= ratio <= 20.0

    def test_one_code_bitwise_the_cone_pass(self):
        # one sigma' code: the public sigma_dir1 is bitwise the sigma' rows
        # of d2F's cone pass (a stack of three) on alpha blocks of sizes 1
        # to 6, zero blocks, m - n in {0, 2} and rank 0
        rng = np.random.default_rng(28)
        f, seen = l1_spec(), Counter()
        for _ in range(400):
            n = int(rng.integers(1, 7))
            m, rank = n + int(rng.choice([0, 2])), int(rng.integers(0, n + 1))
            top = np.sort(rng.uniform(0.5, 3.0, rank))[::-1]
            tie = int(rng.integers(1, rank + 1)) if rank else 0
            top[:tie] = top[:1]
            X = random_with_spectrum(m, n, np.concatenate(
                [top, np.zeros(n - rank)]), rng)
            Hs = rng.standard_normal((3, m, n))
            svd = svd_ordered(X)
            part = partition_of(svd)
            rows = oimf._duality_gaps(f, svd, part, np.zeros((m, n)), Hs)[1]
            for H, row in zip(Hs, rows):
                assert np.array_equal(sigma_dir1(X, H), row)
            seen.update(f"size {k}" for k in part.sizes.tolist())
            seen.update({"zero block": part.r < n, "rank 0": part.r == 0,
                         f"m - n = {m - n}": True})
        assert all(seen[f"size {k}"] for k in range(1, 7))
        assert min(seen[key] for key in ("zero block", "rank 0",
                                         "m - n = 0", "m - n = 2")) > 5


class TestToleranceValidation:
    # a NaN cluster_tol used to split diag(2, 1) wrongly (sigma' = [1, -1])
    # and a NaN rank_tol counted every value as zero (sigma' = [1, 1])
    @pytest.mark.parametrize("H, tols", [
        (SWAP, {"cluster": np.nan}),
        (-np.eye(2), {"rank": np.nan}),
        (SWAP, {"cluster": -1e-8}),
        (SWAP, {"rank": np.inf}),
    ])
    def test_sigma_dir1_rejects(self, H, tols):
        with pytest.raises(ShapeError):
            sigma_dir1(np.diag([2.0, 1.0]), H, Tolerances(**tols))

    def test_eig_expand2_rejects_nan(self):
        with pytest.raises(ShapeError):
            eig_expand2(np.diag([2.0, 1.0]), SWAP, Tolerances(cluster=np.nan))

    def test_zero_tolerances_allowed(self):
        np.testing.assert_allclose(
            sigma_dir1(np.diag([2.0, 1.0]), SWAP, Tolerances(0.0, 0.0)),
            [0.0, 0.0], atol=1e-14)


class TestSigmaDir2:
    def test_worked_swap(self):
        np.testing.assert_allclose(
            sigma_dir2(np.diag([2.0, 1.0]), SWAP, np.zeros((2, 2))),
            [2.0, -2.0], atol=1e-12)

    def test_worked_rank_deficient(self):
        d2 = sigma_dir2(np.diag([1.0, 0.0]), SWAP, np.zeros((2, 2)))
        np.testing.assert_allclose(d2[1], 2.0, atol=1e-12)

    def test_h_zero_reduces_to_first_order_in_w(self):
        rng = np.random.default_rng(4)
        W = rng.standard_normal((2, 2))
        d2 = sigma_dir2(np.diag([2.0, 1.0]), np.zeros((2, 2)), W)
        np.testing.assert_allclose(d2, np.diag(W), atol=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(5)
        for X, H, W in corpus(rng, 12):
            d1 = sigma_dir1(X, H)
            d2 = sigma_dir2(X, H, W)
            s0 = svd_ordered(X).sigma
            t = 1e-4
            st = svd_ordered(X + t * H + 0.5 * t * t * W).sigma
            quot = (st - s0 - t * d1) / (0.5 * t * t)
            np.testing.assert_allclose(quot, d2, rtol=5e-3, atol=2e-2)

    def test_conditioning_warning(self):
        X = np.diag([1.0 + 1e-7, 1.0])
        with pytest.warns(ConditioningWarning):
            sigma_dir2(X, SWAP, np.zeros((2, 2)))

    def test_no_overflow_near_float_max(self):
        # mu + sigma_j = 2e308 overflows; the gap and the 1/(mu + sigma_j)
        # weight are formed without it
        X = np.diag([1e308, 1e308])
        H = np.array([[1.0, 2.0], [-1.0, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d2 = sigma_dir2(X, H, np.eye(2))
        np.testing.assert_allclose(d2, [1.0, 1.0], rtol=1e-12)


class TestGaugeInvariance:
    def test_dir1_dir2_over_seeds(self):
        rng = np.random.default_rng(6)
        cases = [
            (random_with_spectrum(5, 4, [2.0, 2.0, 1.0, 0.0], rng),),
            (random_with_spectrum(4, 4, [3.0, 3.0, 3.0, 1.0], rng),),
            (np.zeros((4, 3)),),
        ]
        for (X,) in cases:
            H = rng.standard_normal(X.shape)
            W = rng.standard_normal(X.shape)
            svd = svd_ordered(X)
            part = partition_of(svd)
            base1 = sigma_dir1(X, H)
            base2 = sigma_dir2(X, H, W)
            for seed in range(50):
                g = gauge_randomize(svd, part, seed)
                b = direction_blocks(X, H, gauge=g)
                np.testing.assert_allclose(d1_of(b), base1, atol=1e-8)
                np.testing.assert_allclose(sigma_dir2_from_blocks(b, W),
                                           base2, atol=1e-8)

    def test_orthogonal_conjugation(self):
        rng = np.random.default_rng(7)
        X = random_with_spectrum(5, 4, [2.0, 2.0, 1.0, 0.0], rng)
        H = rng.standard_normal((5, 4))
        W = rng.standard_normal((5, 4))
        Qm = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        Qn = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        np.testing.assert_allclose(
            sigma_dir1(Qm @ X @ Qn.T, Qm @ H @ Qn.T), sigma_dir1(X, H),
            atol=1e-9)
        np.testing.assert_allclose(
            sigma_dir2(Qm @ X @ Qn.T, Qm @ H @ Qn.T, Qm @ W @ Qn.T),
            sigma_dir2(X, H, W), atol=1e-9)


class TestEigExpand2:
    def test_swap_perturbation(self):
        first, second = eig_expand2(np.diag([2.0, 1.0]), SWAP)
        np.testing.assert_allclose(first, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(second, [2.0, -2.0], atol=1e-12)

    def test_zero_base(self):
        first, second = eig_expand2(np.zeros((2, 2)), np.diag([1.0, -1.0]))
        np.testing.assert_allclose(first, [1.0, -1.0])
        np.testing.assert_allclose(second, [0.0, 0.0], atol=1e-14)

    def test_commuting_diagonal(self):
        first, second = eig_expand2(np.eye(2), np.diag([3.0, -1.0]))
        np.testing.assert_allclose(first, [3.0, -1.0])
        np.testing.assert_allclose(second, [0.0, 0.0], atol=1e-14)

    def test_expansion_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            A = rng.standard_normal((5, 5))
            A = 0.5 * (A + A.T)
            E = rng.standard_normal((5, 5))
            E = 0.5 * (E + E.T)
            first, second = eig_expand2(A, E)
            lam0 = np.linalg.eigvalsh(A)[::-1]
            tau = 1e-4
            lam = np.linalg.eigvalsh(A + tau * E)[::-1]
            pred = lam0 + tau * first + 0.5 * tau * tau * second
            np.testing.assert_allclose(lam, pred, atol=5e-11)

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            eig_expand2(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_asymmetry_near_float_max_rejected(self):
        # ||E|| and ||E - E^T|| overflow; read on E / max|E| they do not
        E = np.array([[0.0, 1e160], [-1e160, 0.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(AsymmetricInput, match="2.828e\\+160"):
                eig_expand2(np.diag([1e200, 0.0]), E)
        assert not caught


class TestExpansionResidual:
    def test_zero_directions(self):
        X = np.diag([2.0, 1.0])
        r = expansion_residual(X, np.zeros((2, 2)), np.zeros((2, 2)), 1e-3)
        np.testing.assert_array_equal(r, 0.0)

    def test_quartic_remainder_2x2(self):
        r = expansion_residual(np.diag([2.0, 1.0]), SWAP, np.zeros((2, 2)),
                               1e-3)
        assert np.max(np.abs(r)) <= 1e-9

    def test_monotone_decay(self):
        rng = np.random.default_rng(9)
        for X, H, W in corpus(rng, 10):
            prev = None
            for t in (1e-2, 1e-3, 1e-4):
                cur = np.max(np.abs(expansion_residual(X, H, W, t))) / t**2
                if prev is not None:
                    assert cur < prev
                prev = cur


class TestMinDirectionConstruct:
    def test_h_zero_diagonal_target(self):
        X = np.diag([2.0, 1.0])
        What = min_direction_construct(X, np.zeros((2, 2)),
                                       np.array([5.0, 3.0]))
        np.testing.assert_allclose(
            sigma_dir2(X, np.zeros((2, 2)), What), [5.0, 3.0], atol=1e-10)
        np.testing.assert_allclose(np.diag(What), [5.0, 3.0], atol=1e-10)

    def test_rank_deficient_target(self):
        X = np.diag([1.0, 0.0])
        What = min_direction_construct(X, SWAP, np.array([0.0, 2.0]))
        np.testing.assert_allclose(sigma_dir2(X, SWAP, What), [0.0, 2.0],
                                   atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for X, H, W0 in corpus(rng, 15):
            zbar = sigma_dir2(X, H, W0)
            What = min_direction_construct(X, H, zbar)
            np.testing.assert_allclose(sigma_dir2(X, H, What), zbar,
                                       atol=1e-8)

    def test_unsorted_target_rejected(self):
        X = np.eye(2)  # one block, one second-level group of size 2
        with pytest.raises(NotBlockSorted):
            min_direction_construct(X, np.zeros((2, 2)),
                                    np.array([1.0, 2.0]))

    def test_negative_zero_group_rejected(self):
        X = np.diag([1.0, 0.0])
        with pytest.raises(NotBlockSorted):
            min_direction_construct(X, SWAP, np.array([0.0, -1.0]))

    def test_no_columns(self):
        X = np.zeros((3, 0))
        assert min_direction_construct(X, X, np.zeros(0)).shape == (3, 0)

    @pytest.mark.parametrize("h,zbar,level", [
        ([1, 1, 1, 1, 0], [0, 1, 1, 1, 0], "an alpha-level"),
        ([1, 1, 1, 1, 0], [1, 1, 0, 1, 0], "a beta-level"),
        ([1, 1, 1, 0, 0], [1, 1, 1, 0, 1], "the zero-value"),
    ])
    def test_rise_names_its_level(self, h, zbar, level):
        # one tied alpha block, then R = diag(h[2:]): a tied beta group
        # (h = 1, 1, 1, 1, 0) or a zero group of two (h = 1, 1, 1, 0, 0)
        X = np.diag([2.0, 2.0, 0.0, 0.0, 0.0])
        with pytest.raises(NotBlockSorted, match=f"inside {level} group"):
            min_direction_construct(X, np.diag(np.array(h, float)),
                                    np.array(zbar, float))


class TestBlockInvariants:
    """Structural invariants of the direction blocks."""

    def test_group_unions_and_ranks(self):
        rng = np.random.default_rng(11)
        for X, H, _ in corpus(rng, 12):
            b = direction_blocks(X, H)
            for blk in b.part.alpha_blocks:
                groups, eta = groups_of(b.ltilde[blk]), d1_of(b)[blk]
                covered = sorted(loc for grp in groups for loc in grp)
                assert covered == list(range(len(blk)))
                for grp in groups:
                    vals = eta[grp]
                    assert np.max(vals) - np.min(vals) <= 1e-7 * max(
                        1.0, np.max(np.abs(eta)))
            if b.beta is not None:
                nb = len(b.part.beta)
                groups, zero_group = beta_groups(b)
                covered = sorted(loc for grp in groups for loc in grp)
                covered += sorted(zero_group)
                assert sorted(covered) == list(range(nb))
            for s in range(b.part.n):
                assert 1 <= b.ltilde[s] <= b.part.r_s[s]

    def test_first_order_equals_group_values(self):
        rng = np.random.default_rng(12)
        for X, H, _ in corpus(rng, 8):
            b = direction_blocks(X, H)
            d1 = d1_of(b)
            for blk in b.part.alpha_blocks:
                for grp in groups_of(b.ltilde[blk]):
                    vals = d1[[blk[loc] for loc in grp]]
                    assert np.max(vals) - np.min(vals) <= 1e-7 * max(
                        1.0, np.max(np.abs(d1)))


class TestEigExpandTies:
    def test_inner_tie_flat(self):
        first, second = eig_expand2(np.eye(2), np.eye(2))
        np.testing.assert_allclose(first, [1.0, 1.0])
        np.testing.assert_allclose(second, [0.0, 0.0], atol=1e-14)

    def test_inner_tie_with_resolvent(self):
        # A has a 2-block at 1 and a singleton at 0; E acts as identity on
        # the block so the inner eigenvalues tie, and couples to the rest
        A = np.diag([1.0, 1.0, 0.0])
        E = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        first, second = eig_expand2(A, E)
        np.testing.assert_allclose(first, [1.0, 1.0, 0.0], atol=1e-14)
        tau = 1e-5
        lam0 = np.linalg.eigvalsh(A)[::-1]
        lam = np.linalg.eigvalsh(A + tau * E)[::-1]
        pred = lam0 + tau * first + 0.5 * tau * tau * second
        np.testing.assert_allclose(lam, pred, atol=1e-12)

    # the eigenvalues 0.5 and 0.5 - 5e-5 are one block when the clustering
    # tolerance scales with max|lambda| = 1e4, and two blocks at scale 1
    SWAP3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_cluster_scale_is_max_abs_eigenvalue(self):
        first, second = eig_expand2(np.diag([0.5, 0.5 - 5e-5, -1e4]),
                                    self.SWAP3)
        np.testing.assert_allclose(first, [1.0, -1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(second, [0.0, 0.0, 0.0], atol=1e-14)

    def test_cluster_scale_floor_is_one(self):
        first, second = eig_expand2(np.diag([0.5, 0.5 - 5e-5, -1.0]),
                                    self.SWAP3)
        np.testing.assert_allclose(first, [0.0, 0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(second, [4e4, -4e4, 0.0], rtol=1e-9,
                                   atol=1e-14)


class TestSecondLevelTies:
    """Directions engineered so the reduced block decompositions also
    carry repeated values, exercising the deepest index selection."""

    def make_instance(self, rng):
        m, n, r = 5, 4, 2
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U[:, :n] @ np.diag([2.0, 2.0, 0.0, 0.0]) @ V.T
        M = np.zeros((m, n))
        M[:r, :r] = np.diag([3.0, 3.0])          # tied block eigenvalues
        M[2, 2], M[3, 3] = 1.0, 1.0              # tied reduced singulars
        M[:r, r:] = rng.standard_normal((r, n - r))
        M[r:, :r] = rng.standard_normal((m - r, r))
        H = U @ M @ V.T
        return X, H

    def test_expansion_decay_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            X, H = self.make_instance(rng)
            W = rng.standard_normal(X.shape)
            prev = None
            for t in (1e-2, 1e-3, 1e-4):
                cur = np.max(np.abs(expansion_residual(X, H, W, t))) / t**2
                if prev is not None:
                    assert cur < 0.5 * prev
                prev = cur

    def test_round_trip_with_ties(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            X, H = self.make_instance(rng)
            zbar = sigma_dir2(X, H, rng.standard_normal(X.shape))
            What = min_direction_construct(X, H, zbar)
            np.testing.assert_allclose(sigma_dir2(X, H, What), zbar,
                                       atol=1e-8)

    def test_gauge_invariance_with_ties(self):
        rng = np.random.default_rng(15)
        X, H = self.make_instance(rng)
        W = rng.standard_normal(X.shape)
        base = sigma_dir2(X, H, W)
        svd = svd_ordered(X)
        part = partition_of(svd)
        for seed in range(20):
            g = gauge_randomize(svd, part, seed)
            b = direction_blocks(X, H, gauge=g)
            np.testing.assert_allclose(sigma_dir2_from_blocks(b, W),
                                       base, atol=1e-8)


def lift_reference(blocks, H, W, zbar):
    """Per-block quadratics, gaps, sigma'' and W-hat from the resolvent of
    the symmetric lift [[0, X], [X^T, 0]], in the gauge of ``blocks``."""
    svd, part = blocks.gauge, blocks.part
    m, n = blocks.shape
    U, s, V = svd.U, svd.sigma, svd.V
    P, d = lift_eigenbasis(svd)
    BH, BW = lift(H), lift(W)
    quads, gaps = [], []
    d2 = np.zeros(n)
    Wred = np.zeros((m, n))
    Qs = in_block_order(blocks, [Q for _, Q in blocks.classes])
    for blk, mu, Q in zip(part.alpha_blocks, part.mu, Qs):
        comp = np.setdiff1d(np.arange(m + n), blk)
        Pb = P[:, blk]
        K = P[:, comp].T @ BH @ Pb
        G = K.T @ (K / (mu - d[comp])[:, None])
        quads.append(G)
        gaps.append(float(np.min(np.abs(mu - d[comp]))))
        M = Pb.T @ BW @ Pb + 2.0 * G
        for grp in groups_of(blocks.ltilde[blk]):
            Qj = Q[:, grp]
            idx = [blk[loc] for loc in grp]
            d2[idx] = np.linalg.eigvalsh(Qj.T @ M @ Qj)[::-1]
        Wred[np.ix_(blk, blk)] = Q @ (zbar[blk][:, None] * Q.T) - 2.0 * G
    bb = blocks.beta
    if bb is not None:
        r = part.r
        Ub, Vb = U[:, part.betahat], V[:, part.beta]
        cross = -2.0 * (Ub.T @ H @ V[:, :r] / s[:r]) @ (U[:, :r].T @ H @ Vb)
        C = Ub.T @ W @ Vb + cross
        groups, zero_group = beta_groups(blocks)
        for grp in groups:
            D = bb.Q[:, grp].T @ C @ bb.Qhat[:, grp]
            d2[[r + loc for loc in grp]] = np.linalg.eigvalsh(
                0.5 * (D + D.T))[::-1]
        if zero_group:
            # its own complement of the positive groups: a full SVD of R
            Qfull = np.linalg.svd(blocks.Hhat[r:, r:])[0]
            cols = zero_group + list(range(n - r, m - r))
            Dz = Qfull[:, cols].T @ C @ bb.Qhat[:, zero_group]
            d2[[r + loc for loc in zero_group]] = np.linalg.svd(
                Dz, compute_uv=False)
        Dz = np.zeros((n - r, n - r))
        np.fill_diagonal(Dz, zbar[r:])
        Wred[r:, r:] = bb.Q @ Dz @ bb.Qhat.T - cross
    return quads, gaps, d2, U @ Wred @ V.T


def ltilde_reference(blocks):
    """Second-level ranks from one partition per block: the eigenvalues of
    each reduced alpha block, then the singular values of R."""
    part, Hhat = blocks.part, blocks.Hhat
    n, r = part.n, part.r
    Sym = 0.5 * (Hhat[:n] + Hhat[:n].T)
    lt = np.zeros(n, dtype=int)
    for blk in part.alpha_blocks:
        lam = np.linalg.eigvalsh(Sym[np.ix_(blk, blk)])[::-1]
        tol = TOLERANCES.cluster * max(1.0, np.max(np.abs(lam), initial=0.0))
        for grp in reference_runs(lam, tol):
            lt[np.array(blk)[grp]] = np.arange(1, len(grp) + 1)
    if r < n:
        lt[r:] = partition_values(
            np.linalg.svd(Hhat[r:, r:], compute_uv=False)).l
    return lt


def assert_rel(new, ref, rtol=1e-12):
    new, ref = np.asarray(new), np.asarray(ref)
    assert np.max(np.abs(new - ref), initial=0.0) <= rtol * max(
        1.0, np.max(np.abs(ref), initial=0.0))


class TestLiftReference:
    """The SVD-basis divided differences reproduce the lift resolvent."""

    SPECTRA = {
        "distinct": lambda n: np.linspace(3.0, 1.0, n),
        "clustered": lambda n: np.repeat([3.0, 2.0, 1.0], n)[:n],
        "rankdef": lambda n: np.concatenate(
            [np.linspace(3.0, 1.0, n - n // 2), np.zeros(n // 2)]),
    }

    @pytest.mark.parametrize("m,n", [(9, 6), (6, 6), (40, 4), (3, 1),
                                     (1, 1)])
    @pytest.mark.parametrize("kind", ["distinct", "clustered", "rankdef"])
    def test_matches_lift_resolvent(self, m, n, kind):
        rng = np.random.default_rng(31)
        X = random_with_spectrum(m, n, self.SPECTRA[kind](n), rng)
        H = rng.standard_normal((m, n))
        W = rng.standard_normal((m, n))
        svd = svd_ordered(X)
        # a sigma'' vector is sorted inside every second-level group
        zbar = sigma_dir2(X, H, rng.standard_normal((m, n)))
        for gauge in (svd, gauge_randomize(svd, partition_of(svd), 3)):
            b = direction_blocks(X, H, gauge=gauge)
            quads, gaps, d2, _ = lift_reference(b, H, W, zbar)
            for G, Gref in zip(in_block_order(b, b.quadratics), quads):
                assert_rel(G, Gref)
            assert [gap for _, gap, _ in b.part.tables.gaps] == gaps
            assert_rel(sigma_dir2_from_blocks(b, W), d2)
        What = lift_reference(direction_blocks(X, H), H, W, zbar)[3]
        assert_rel(min_direction_construct(X, H, zbar), What)

    def test_tall_rank_two_zero_group(self):
        # 1500 x 4 at rank 2 with a rank-one zero block of Hhat: the thin
        # beta factor has a nonempty zero group and no complement columns
        rng = np.random.default_rng(37)
        m, n = 1500, 4
        U = np.linalg.qr(rng.standard_normal((m, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U @ np.diag([3.0, 1.0, 0.0, 0.0]) @ V.T
        g = svd_ordered(X)
        Hhat = rng.standard_normal((m, n))
        Hhat[2:, 2:] = np.outer(rng.standard_normal(m - 2),
                                rng.standard_normal(2))
        H = g.U @ Hhat @ g.V.T
        W = rng.standard_normal((m, n))
        zbar = sigma_dir2(X, H, rng.standard_normal((m, n)))
        b = direction_blocks(X, H)
        assert b.beta.Q.shape == (m - 2, n - 2) and b.beta.zeros == 1
        assert beta_groups(b)[1] == [1]
        _, _, d2, What = lift_reference(b, H, W, zbar)
        assert_rel(sigma_dir2_from_blocks(b, W), d2)
        assert_rel(min_direction_construct(X, H, zbar), What)

    @pytest.mark.parametrize("factor,warns", [(0.5, True), (2.0, False)])
    def test_warning_threshold(self, factor, warns):
        g = factor * GAP_WARN
        cases = [
            np.diag([1.0 + g, 1.0]),                  # neighbouring block
            np.diag([1.0, 0.5 * g]),                  # mu + sigma_n
            np.array([[1.0, 0.0], [0.0, g], [0.0, 0.0]]),  # mu, m > n
        ]
        for X in cases:
            H = np.ones(X.shape)
            b = direction_blocks(X, H)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sigma_dir2_from_blocks(b, np.zeros(X.shape))
            fired = [w for w in caught
                     if issubclass(w.category, ConditioningWarning)]
            assert bool(fired) == warns
            _, gaps, _, _ = lift_reference(b, H, np.zeros(X.shape),
                                           np.zeros(2))
            assert [gap for _, gap, _ in b.part.tables.gaps] == gaps
            assert min(gaps) == pytest.approx(g, rel=1e-6)

    def check_against_lift(self, X, H, W, zbar, gauge):
        b = direction_blocks(X, H, gauge=gauge)
        quads, _, d2, What = lift_reference(b, H, W, zbar)
        with warnings.catch_warnings():   # the readers of the gap tables
            warnings.simplefilter("ignore", ConditioningWarning)
            for G, Gref in zip(in_block_order(b, b.quadratics), quads):
                assert_rel(G, Gref)
            assert_rel(sigma_dir2_from_blocks(b, W), d2)
            with pytest.MonkeyPatch.context() as mp:
                # W-hat of the record in b's gauge: the public call reads
                # its record through direction_blocks
                mp.setattr(sv_calculus, "direction_blocks", lambda *_: b)
                assert_rel(min_direction_construct(X, H, zbar), What)
        np.testing.assert_array_equal(b.ltilde, ltilde_reference(b))
        return b

    def test_mixed_size_classes(self):
        # singletons, clusters of 2, 3 and 4, a pair at a 1e-7 relative
        # gap (two singletons, warns) and a zero block
        rng = np.random.default_rng(43)
        s = np.array([3.0, 2.6, 2.6, 2.6, 2.6, 2.2, 2.2, 2.2, 1.8,
                      1.8 * (1.0 - 1e-7), 1.4, 1.4, 0.0])
        m, n = 15, len(s)
        X = random_with_spectrum(m, n, s, rng)
        H, W = rng.standard_normal((m, n)), rng.standard_normal((m, n))
        zbar = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        svd = svd_ordered(X)
        part = partition_of(svd)
        assert [len(blk) for blk in part.alpha_blocks] == [1, 4, 3, 1, 1, 2]
        assert part.beta == [12]
        for gauge in (svd, gauge_randomize(svd, part, 5)):
            self.check_against_lift(X, H, W, zbar, gauge)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            What = min_direction_construct(X, H, zbar)
        assert_rel(What, lift_reference(
            self.check_against_lift(X, H, W, zbar, svd), H, W, zbar)[3])

    def test_same_size_clusters_split_per_block(self):
        # two clusters of three: the first reduced block has a tied pair
        # of eigenvalues, the second none
        rng = np.random.default_rng(44)
        m, n = 8, 7
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U[:, :n] @ np.diag([3.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0]) @ V.T
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A = rng.standard_normal((3, 3))
        Hhat = rng.standard_normal((m, n))
        Hhat[:3, :3] = Q @ np.diag([1.0, 1.0, -1.0]) @ Q.T + A - A.T
        Hhat[3:6, 3:6] = np.diag([0.5, -0.2, -0.9]) + A - A.T
        H = U @ Hhat @ V.T
        W = rng.standard_normal((m, n))
        zbar = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        svd = svd_ordered(X)
        for gauge in (svd, gauge_randomize(svd, partition_of(svd), 6)):
            b = self.check_against_lift(X, H, W, zbar, gauge)
            assert [groups_of(b.ltilde[blk])
                    for blk in b.part.alpha_blocks] == [
                [[0, 1], [2]], [[0], [1], [2]], [[0]]]
            assert b.ltilde.tolist() == [1, 2, 1, 1, 1, 1, 1]


class TestSizeClassCost:
    """Point preparation makes one eigen call per block size, whatever the
    number of blocks: the count at n = 32 equals the count at n = 128."""

    @staticmethod
    def instance(n):
        rng = np.random.default_rng(45)
        q = n // 8                  # q clusters of 4, n - 4q singletons
        s = np.concatenate([np.repeat(np.linspace(3.0, 2.0, q), 4),
                            np.linspace(1.9, 1.0, n - 4 * q)])
        X = random_with_spectrum(n + 2, n, s, rng)
        return X, rng.standard_normal(X.shape)

    def test_eigen_calls_independent_of_block_count(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh",
                            counted("eigh", np.linalg.eigh))
        sym_eig = counted("sym_eig_ordered", matrix_core.sym_eig_ordered)
        for module in (sv_calculus, oimf):
            monkeypatch.setattr(module, "sym_eig_ordered", sym_eig)
        counts = {}
        for n in (32, 128):
            X, H = self.instance(n)
            calls.clear()
            blocks = direction_blocks(X, H)
            built = dict(calls)
            blocks.classes   # the levels, on first sigma'' or W-hat use
            levels = dict(calls)
            g = svd_ordered(X)
            calls.clear()
            oimf.SpectralPoint(l1_spec(), X, g.U[:, :n] @ g.V.T)
            counts[n] = (built, levels, dict(calls))
        assert counts[32] == counts[128]
        # building forms Hhat only; then two block sizes (1 and 4): one
        # stacked call each, and eigh only for size 4 (a 1 x 1 block is
        # its own eigenvalue, eigenvector 1)
        assert counts[32] == ({},) + ({"eigh": 1, "sym_eig_ordered": 2},) * 2

    def test_one_point_builds_its_size_classes_once(self, monkeypatch):
        # sigma', sigma'' twice, W-hat and d2F at one X: the size classes
        # are built with the partition, once, and no eigensolver sees a
        # size-1 class (block sizes 1, 2, 1, 3, 1)
        rng = np.random.default_rng(46)
        s = np.array([3.0, 2.0, 2.0, 1.5, 1.0, 1.0, 1.0, 0.5])
        U = np.linalg.qr(rng.standard_normal((10, 10)))[0]
        V = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        X = U[:, :8] @ np.diag(s) @ V.T
        Y = U[:, :8] @ V.T
        H, W = rng.standard_normal((2, 10, 8))
        matrix_core._LAST_SVD.entry = None
        sv_calculus._LAST_BLOCKS.entry = None
        built, solved = [], []

        def counted(name, fn, log):
            def wrapper(*args, **kwargs):
                log.append(np.shape(args[0]))
                return fn(*args, **kwargs)
            monkeypatch.setattr(*name, wrapper)

        counted((matrix_core, "size_classes"), matrix_core.size_classes,
                built)
        for name in ("eigh", "eigvalsh"):
            counted((np.linalg, name), getattr(np.linalg, name), solved)
        sigma_dir1(X, H)
        sigma_dir2(X, H, W)
        sigma_dir2(X, H, min_direction_construct(X, H, np.ones(8)))
        oimf.F_second_subderivative(l1_spec(), X, Y, H)
        assert built == [(5,)]
        assert solved and all(shape[-1] > 1 for shape in solved)


class TestLazyLevels:
    """The record builds its levels (the reduced eigenvectors, ltilde and
    the zero block's SVD with vectors) on first sigma'' or W-hat use:
    sigma' alone runs neither, and deriv-sweep's calls at one (X, H) run
    them once."""

    @staticmethod
    def instance():
        # block sizes 1, 2 and 3, a zero block of two and m - n = 2
        rng = np.random.default_rng(49)
        s = np.array([3.0, 2.0, 2.0, 1.5, 1.0, 1.0, 1.0, 0.0, 0.0])
        return (random_with_spectrum(11, 9, s, rng),
                *rng.standard_normal((2, 11, 9)))

    @staticmethod
    def count(monkeypatch, X):
        """The shapes of every eigh call and of every SVD with vectors of
        anything but X."""
        eighs, svds = [], []
        eigh, svd = np.linalg.eigh, np.linalg.svd

        def counted_eigh(A, *args, **kwargs):
            eighs.append(np.shape(A))
            return eigh(A, *args, **kwargs)

        def counted_svd(A, *args, **kwargs):
            if kwargs.get("compute_uv", True) and not (
                    np.shape(A) == X.shape and np.array_equal(A, X)):
                svds.append(np.shape(A))
            return svd(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        return eighs, svds

    def test_sigma_dir1_runs_no_eigh_and_no_vectors(self, monkeypatch):
        X, H, _ = self.instance()
        eighs, svds = self.count(monkeypatch, X)
        sigma_dir1(X, H)
        assert eighs == [] and svds == []
        assert "_levels" not in vars(direction_blocks(X, H))

    def test_deriv_sweep_calls_build_the_levels_once(self, monkeypatch):
        X, H, W = self.instance()
        eighs, svds = self.count(monkeypatch, X)
        sigma_dir1(X, H)
        sigma_dir2(X, H, W)
        sigma_dir2(X, H, min_direction_construct(X, H, np.ones(9)))
        # one stacked eigh per block size > 1, one SVD of R with vectors
        assert eighs == [(1, 2, 2), (1, 3, 3)] and svds == [(4, 2)]

    def test_one_sigma_dir1_row_per_record(self, monkeypatch):
        # sigma', the levels' zero-block groups and the expansion residual
        # read the record's one sigma' row: one values-only SVD of R; the
        # public sigma' is a fresh writable copy of it
        X, H, W = self.instance()
        stacks = []
        svd = np.linalg.svd

        def counted_svd(A, *args, **kwargs):
            if np.ndim(A) == 3:
                stacks.append(np.shape(A))
            return svd(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        d1 = sigma_dir1(X, H)
        sigma_dir2(X, H, W)
        expansion_residual(X, H, W, 1e-3)
        assert stacks == [(1, 4, 2)]
        kept = direction_blocks(X, H).d1
        assert np.array_equal(d1, kept) and not kept.flags.writeable
        assert d1.flags.writeable
        d1[:] = np.nan
        assert np.array_equal(sigma_dir1(X, H), kept)
        assert np.isfinite(kept).all()


class TestLastCallMemo:
    """svd_ordered and direction_blocks keep their last result, keyed on
    the exact bits of their inputs: one SVD of X serves every public call
    at one point, and anything else is a miss."""

    @staticmethod
    def instance():
        # a cluster and a zero block; Y in dF(X) for l1 and Hc critical
        rng = np.random.default_rng(47)
        m, n, r = 7, 5, 4
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        X = U[:, :n] @ np.diag([3.0, 2.0, 2.0, 1.0, 0.0]) @ V.T
        Y = U[:, :n] @ np.diag([1.0, 1.0, 1.0, 1.0, 0.5]) @ V.T
        H, W = rng.standard_normal((2, m, n))
        G = U.T @ H @ V
        G[r:, r:] = 0.0
        zbar = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        return X, H, W, Y, U @ G @ V.T, zbar

    @staticmethod
    def outputs(X, H, W, Y, Hc, zbar):
        What = min_direction_construct(X, H, zbar)
        return (sigma_dir1(X, H), sigma_dir2(X, H, W), What,
                sigma_dir2(X, H, What),
                oimf.F_second_subderivative(l1_spec(), X, Y, Hc))

    @staticmethod
    def clear():
        matrix_core._LAST_SVD.entry = None
        sv_calculus._LAST_BLOCKS.entry = None

    def test_one_svd_of_X_per_point(self, monkeypatch):
        X, H, W, Y, Hc, zbar = self.instance()
        svd = np.linalg.svd
        seen = []

        def counted(A, *args, **kwargs):
            seen.append(np.shape(A) == X.shape and np.array_equal(A, X))
            return svd(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        self.outputs(X, H, W, Y, Hc, zbar)
        assert sum(seen) == 1

    def test_hit_bitwise_equals_rebuild(self):
        data = self.instance()
        self.outputs(*data)
        hit = self.outputs(*data)
        self.clear()
        rebuilt = self.outputs(*data)
        for a, b in zip(hit[:4], rebuilt[:4]):
            assert np.array_equal(a, b)
        assert hit[4] == rebuilt[4]

    def test_in_place_edit_is_a_miss(self):
        X, H = self.instance()[:2]
        svd, blocks = svd_ordered(X), direction_blocks(X, H)
        assert svd_ordered(X) is svd and direction_blocks(X, H) is blocks
        X[0, 0] = np.nextafter(X[0, 0], np.inf)
        assert svd_ordered(X) is not svd
        assert direction_blocks(X, H) is not blocks
        H[0, 0] += 1.0
        fresh = direction_blocks(X, H)
        self.clear()
        assert np.array_equal(fresh.Hhat, direction_blocks(X, H).Hhat)

    def test_blocks_hit_decomposes_nothing(self, monkeypatch):
        X, H = self.instance()[:2]
        blocks = direction_blocks(X, H)

        def refused(X):
            raise AssertionError("a blocks memo hit read svd_ordered")
        monkeypatch.setattr(sv_calculus, "svd_ordered", refused)
        assert direction_blocks(X, H) is blocks

    def test_negative_zero_is_a_miss(self):
        X = np.diag([2.0, 1.0, 0.0])
        svd = svd_ordered(X)
        assert svd_ordered(np.where(X == 0.0, -0.0, X)) is not svd

    def test_other_tolerances_are_a_miss(self):
        X, H = self.instance()[:2]
        blocks = direction_blocks(X, H)
        other = direction_blocks(X, H, tols=Tolerances(cluster=1e-6))
        assert other is not blocks
        assert direction_blocks(X, H, tols=Tolerances(cluster=1e-6)) is other

    def test_gauge_bypasses_the_memo(self):
        X, H = self.instance()[:2]
        blocks = direction_blocks(X, H)
        g = gauge_randomize(blocks.gauge, blocks.part, seed=3)
        given = direction_blocks(X, H, gauge=g)
        assert given is not blocks and given.gauge is g
        assert given.part is not blocks.part
        assert given.part.tables is not blocks.part.tables
        assert given.Hhat.flags.writeable     # not stored, not frozen
        assert direction_blocks(X, H) is blocks

    def test_stored_arrays_are_read_only(self):
        X, H = self.instance()[:2]
        svd, blocks = svd_ordered(X), direction_blocks(X, H)
        U, Hhat = svd.U.copy(), blocks.Hhat.copy()
        with pytest.raises(ValueError):
            svd.U[0, 0] = 1.0
        with pytest.raises(ValueError):
            direction_blocks(X, H).Hhat[0, 0] = 1.0
        with pytest.raises(ValueError):
            direction_blocks(X, H).classes[-1][1][0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            direction_blocks(X, H).beta.Q[0, 0] = 1.0
        assert np.array_equal(svd_ordered(X).U, U)
        assert np.array_equal(direction_blocks(X, H).Hhat, Hhat)

    def test_point_is_shared_and_read_only(self):
        # the blocks of sigma' and the point of d2F read one partition and
        # one set of tables of sigma(X), none of it writable
        X, H, W, Y, Hc, zbar = self.instance()
        blocks = direction_blocks(X, H)
        point = oimf.SpectralPoint(l1_spec(), X, Y)
        assert blocks.gauge is svd_ordered(X)
        assert blocks.part is partition_of(svd_ordered(X)) is point.part
        part, dd = blocks.part, blocks.part.tables
        for A in (dd.D, dd.E, dd.C, part.mu, part.l, part.j, part.r_s):
            with pytest.raises(ValueError):
                A[0] = 1.0

    def test_tables_are_built_on_first_use_only(self, monkeypatch):
        # sigma', dF and the cone test read no gap table, so the point's
        # partition builds none; the first second-order output builds
        # them, once and read-only, and so does a partition of its own
        X, H, W, Y, Hc, _ = self.instance()
        built, build = [], matrix_core.divided_differences

        def counted(part):
            built.append(part)
            return build(part)
        monkeypatch.setattr(matrix_core, "divided_differences", counted)
        sigma_dir1(X, H)
        oimf.F_subderivative(l1_spec(), X, H)
        oimf.F_critical_cone_contains(l1_spec(), X, Y, Hc)
        part = partition_of(svd_ordered(X))
        assert built == [] and "tables" not in vars(part)
        sigma_dir2(X, H, W)
        oimf.F_second_subderivative(l1_spec(), X, Y, Hc)
        assert len(built) == 1 and built[0] is part
        own = partition_values(np.array([2.0, 1.0, 0.0]))
        assert own.tables is own.tables and len(built) == 2
        for dd in (part.tables, own.tables):
            for A in (dd.D, dd.E, dd.C):
                with pytest.raises(ValueError):
                    A[0] = 1.0
            with pytest.raises(TypeError):
                dd.gaps.append((1.0, 0.0, ""))

    def test_caller_edits_leave_the_next_call_unchanged(self):
        data = self.instance()
        before = self.outputs(*data)
        part = partition_of(svd_ordered(data[0]))
        gaps = direction_blocks(*data[:2]).part.tables.gaps
        edits = [lambda: part.alpha_blocks.append([9]),
                 lambda: part.alpha_blocks[0].append(9),
                 lambda: part.alpha_blocks[1].__setitem__(0, 9),
                 lambda: part.alpha_blocks.pop(),
                 lambda: part.beta.extend([9]),
                 lambda: part.beta.clear(),
                 lambda: part.beta0.insert(0, 9),
                 lambda: part.beta.__iadd__([9]),
                 lambda: part.alpha_blocks[1].sort(reverse=True),
                 lambda: gaps.append((1.0, 0.0, "edited")),
                 lambda: gaps.__delitem__(0)]
        for edit in edits:
            with pytest.raises(TypeError):
                edit()
        after = self.outputs(*data)
        for a, b in zip(before[:4], after[:4]):
            assert np.array_equal(a, b)
        assert before[4] == after[4]

    def test_read_only_lists_copy_as_lists(self):
        import copy
        import pickle
        part = partition_values(np.array([2.0, 1.0, 1.0, 0.0]))
        for clone in (copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
            assert clone.alpha_blocks == [[0], [1, 2]] == part.alpha_blocks
            assert clone.beta == [3] and clone.beta + clone.beta0 == [3]
            with pytest.raises(TypeError):
                clone.beta.append(4)

    def test_one_ulp_and_other_tolerances_miss_the_point(self):
        X = self.instance()[0]
        svd = svd_ordered(X)
        part = partition_of(svd)
        dd = part.tables
        assert partition_of(svd) is part
        assert partition_of(svd).tables is dd
        other = Tolerances(cluster=1e-6)
        wide = partition_of(svd, other)
        assert wide is not part and wide.tols == other
        assert partition_of(svd, other) is wide
        assert wide.tables is not dd
        assert partition_of(svd) is not part
        Xu = X.copy()
        Xu[0, 0] = np.nextafter(Xu[0, 0], np.inf)
        svd_u = svd_ordered(Xu)
        assert svd_u is not svd and partition_of(svd_u) is not part
        assert partition_of(svd) is not part   # svd is not the entry's
        assert partition_of(svd).alpha_blocks == part.alpha_blocks

    def test_near_tie_warnings_match_every_call(self):
        # relative gap 1e-7 between two singleton blocks: each public call
        # warns on its own, with the one text twice (the gap is read from
        # both blocks; ROADMAP item 5 lists each gap once)
        rng = np.random.default_rng(7)
        U = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        X = U[:, :3] @ np.diag([2.0, 1.0, 1.0 - 1e-7]) @ V.T
        H, W = rng.standard_normal((2, 4, 3))
        Y = U[:, :3] @ V.T
        text = ("spectral gap 1.000e-07 at block value 1 below 2.0e-06; "
                "second-order output ill-conditioned")
        calls = [lambda: sigma_dir2(X, H, W), lambda: sigma_dir2(X, H, W),
                 lambda: min_direction_construct(X, H, np.zeros(3)),
                 lambda: expansion_residual(X, H, W, 1e-3),
                 lambda: oimf.F_second_subderivative(l1_spec(), X, Y, H)]
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [(w.category, str(w.message)) for w in caught] \
                == [(ConditioningWarning, text)] * 2

    def test_hit_warns_again(self):
        X, W = np.diag([1.0 + 1e-7, 1.0]), np.zeros((2, 2))
        seen = []
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sigma_dir2(X, SWAP, W)
            seen.append([(str(w.message), w.category, w.filename, w.lineno)
                         for w in caught])
        assert seen[0] and seen[0] == seen[1]
        assert all(c is ConditioningWarning for _, c, _, _ in seen[0])

    def test_warnings_name_the_callers_line(self):
        # relative gap 1e-7: every public second-order call warns at the
        # line that called it, so filters on the caller's module apply
        rng = np.random.default_rng(8)
        U = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        X = U[:, :3] @ np.diag([2.0, 1.0, 1.0 - 1e-7]) @ V.T
        H, W = rng.standard_normal((2, 5, 3))
        Y = U[:, :3] @ V.T
        point = oimf.SpectralPoint(l1_spec(), X, Y)
        calls = {
            "sigma_dir2": lambda: sigma_dir2(X, H, W),
            "min_direction_construct":
                lambda: min_direction_construct(X, H, np.zeros(3)),
            "expansion_residual": lambda: expansion_residual(X, H, W, 1e-3),
            "F_second_subderivative":
                lambda: oimf.F_second_subderivative(l1_spec(), X, Y, H),
            "second_subderivatives":
                lambda: point.second_subderivatives(np.stack([H, W])),
            "guided_offsets": lambda: oimf.guided_offsets(X, H),
        }
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert len(caught) == 2, name
            assert {(w.filename, w.lineno) for w in caught} == {
                (__file__, call.__code__.co_firstlineno)}, name


class TestNonFinite:
    """A second-order output that squares an H near float max has no
    value: NonFinite, never an all-NaN matrix, +-inf or a RuntimeWarning.
    The first-order outputs of the same H stay finite."""

    BIG = np.full((2, 2), 1e200)

    @pytest.mark.parametrize("call", [
        lambda B: min_direction_construct(np.diag([2.0, 1.0]), B,
                                          np.zeros(2)),
        lambda B: oimf.guided_offsets(np.diag([2.0, 0.0]), B),
        lambda B: eig_expand2(np.diag([2.0, 1.0]), B),
        lambda B: expansion_residual(np.diag([2.0, 1.0]), B, np.eye(2),
                                     1e-3),
        lambda B: sigma_dir2(np.diag([2.0, 0.0]), B, np.eye(2)),
        lambda B: oimf.F_parabolic_subderivative(
            l1_spec(), np.diag([2.0, 1.0]), B, np.eye(2)),
        # at 1.2e154 ones G = 1.44e308 is finite; What + 2 G and Wred - 2 G
        # are not
        lambda B: sigma_dir2(np.diag([2.0, 1.0]), np.full((2, 2), 1.2e154),
                             np.eye(2)),
        lambda B: min_direction_construct(
            np.diag([2.0, 1.0]), np.full((2, 2), 1.2e154), np.zeros(2)),
    ], ids=["min_direction_construct", "guided_offsets", "eig_expand2",
            "expansion_residual", "sigma_dir2", "F_parabolic_subderivative",
            "sigma_dir2-twice-G", "min_direction_construct-twice-G"])
    def test_raises(self, call):
        from specvar.errors import NonFinite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite, match="overflows"):
                call(self.BIG)
        assert not caught

    def test_zero_block_overflow_raises(self):
        # sigma(R) of a zero block of 1.7e308 entries is inf: sigma' has
        # no value there, and sigma'' stops at that same sigma'
        from specvar.errors import NonFinite
        X, H = np.diag([2.0, 0.0, 0.0]), np.full((3, 3), 1.7e308)
        for call in (lambda: sigma_dir1(X, H),
                     lambda: sigma_dir2(X, H, np.zeros((3, 3)))):
            with pytest.raises(NonFinite, match="sigma' of H .* overflows"):
                call()

    TIED = np.diag([2.0, 2.0, 1.0])            # Hhat = H: a tied top pair
    ZERO = np.diag([1.0, 0.0, 0.0])            # and a 2 x 2 zero block
    NEAR_MAX = np.full((3, 3), 1.7e308)

    @pytest.mark.parametrize("call, text", [
        (lambda H: sigma_dir1(TestNonFinite.TIED, H), "sigma' of H"),
        (lambda H: sigma_dir2(TestNonFinite.TIED, H, np.zeros((3, 3))),
         "sigma' of H"),
        (lambda H: oimf.F_subderivative(l1_spec(), TestNonFinite.TIED, H),
         "sigma' of H"),
        (lambda H: oimf.F_critical_cone_contains(
            l1_spec(), TestNonFinite.TIED, np.eye(3), H), "sigma' of H"),
        (lambda H: oimf.nuclear_psi_subderivative(
            TestNonFinite.ZERO, np.where(TestNonFinite.ZERO, 0.0, H)),
         "sigma' of H"),
        (lambda H: eig_expand2(np.eye(2), H[:2, :2]),
         "first-order term of E"),
    ], ids=["sigma_dir1", "sigma_dir2", "F_subderivative", "cone",
            "nuclear_psi_subderivative", "eig_expand2"])
    def test_first_order_overflow_raises(self, call, text):
        # a finite block whose eigenvalue or singular value overflows:
        # sigma' has no value there, as on the zero block above
        from specvar.errors import NonFinite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFinite, match=f"{text}.* overflows"):
                call(self.NEAR_MAX)
        assert not caught

    def test_first_order_stays_finite(self):
        for X in (np.diag([2.0, 1.0]), np.diag([2.0, 0.0])):
            assert np.all(np.isfinite(sigma_dir1(X, self.BIG)))
        assert np.all(np.isfinite(
            eig_expand2(np.diag([2.0, 1.0]), np.diag([1e200, -1e200]))[0]))


class TestZeroBlockRanks:
    """The zero block's second-level ranks and zero count follow the
    partition rule of sigma(R), read as sigma'(X; H)[r:]: on chained
    near-ties inside R (steps of 0.4, 0.6 and 1.5 cluster tolerances) and
    on values either side of ``tols.rank * max(1, sigma_1(R))``,
    ``ltilde[r:]`` and ``beta.zeros`` equal
    ``partition_values(sigma(R))``'s ``l`` and zero count."""

    @staticmethod
    def sigma_R(tols, rng):
        top = float(rng.choice([0.5, 1.0, 3.0]))
        scale = max(1.0, top)
        steps = rng.choice([0.0, 0.4, 0.6, 1.5, 1e5], size=4)
        chain = top - tols.cluster * scale * np.cumsum(np.r_[0.0, steps])
        zeros = tols.rank * scale * rng.choice([0.0, 0.5, 2.0], size=2)
        return np.r_[chain, zeros]

    def test_ranks_and_zeros_are_the_partition_of_sigma_R(self):
        rng = np.random.default_rng(29)
        seen = Counter()
        for tols in (TOLERANCES, Tolerances(cluster=2e-8, rank=1e-10)):
            for _ in range(40):
                s_R = self.sigma_R(tols, rng)
                k, r = len(s_R), 2
                m, n = r + k + 2, r + k
                sigma = np.r_[3.0, 2.0, np.zeros(k)]
                X = np.eye(m, n) * sigma
                gauge = SvdDecomposition(U=np.eye(m), sigma=sigma,
                                         V=np.eye(n))
                H = rng.standard_normal((m, n))
                Qa = np.linalg.qr(rng.standard_normal((m - r, m - r)))[0]
                Qb = np.linalg.qr(rng.standard_normal((k, k)))[0]
                H[r:, r:] = Qa[:, :k] @ np.diag(s_R) @ Qb.T
                b = direction_blocks(X, H, gauge, tols)
                # the values the levels cluster: sigma'(X; H)[r:]
                s_R = d1_of(b)[r:]
                ref = partition_values(s_R, tols)
                assert b.ltilde[r:].tolist() == ref.l.tolist()
                assert b.beta.zeros == ref.n - ref.r
                seen["zero group"] += b.beta.zeros > 0
                seen["kept above rank tol"] += ref.r > np.count_nonzero(
                    s_R > 1e-6)
                seen["near-ties merged"] += ref.t < len(set(s_R[s_R > 1e-6]))
                seen["chained group"] += ref.l[:ref.r].max() > 2
                # a run cut between two values closer than the tolerance
                step = -np.diff(s_R[:ref.r])
                seen["chain cut"] += np.any((ref.l[1:ref.r] == 1) & (
                    step < tols.cluster * max(1.0, s_R[0])))
        assert min(seen.values()) > 5 and len(seen) == 5


class TestAlphaBlockRanks:
    """Every second-level group of an alpha block is a run of its sigma'
    values at the block's level scale (the ``_level_starts`` rule the
    parabolic hooks apply to the same sigma'): on chained near-ties
    (steps of 0.4, 0.6, 1.5 and 1e5 cluster tolerances) in a randomly
    rotated tied block of X = diag(2, 2, 2, 2, 2, 1), ``ltilde`` over the
    block equals the runs of ``d1`` there, a target sorted inside those
    runs is reached, and sigma'' is nonincreasing inside them."""

    SIGMA = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 1.0])
    K = 5

    @classmethod
    def directions(cls, rng, count):
        """(tols, X, H) with sigma' chained on the tied block."""
        m, n, k = 8, len(cls.SIGMA), cls.K
        X = np.eye(m, n) * cls.SIGMA
        for tols in (TOLERANCES, Tolerances(cluster=2e-8, rank=1e-10)):
            for _ in range(count):
                top = float(rng.choice([-3.0, 0.5, 1.0, 3.0]))
                steps = rng.choice([0.0, 0.4, 0.6, 1.5, 1e5], size=k - 1)
                eta = top - tols.cluster * max(1.0, abs(top)) * np.cumsum(
                    np.r_[0.0, steps])
                Q = np.linalg.qr(rng.standard_normal((k, k)))[0]
                H = rng.standard_normal((m, n))
                H[:k, :k] = Q @ np.diag(eta) @ Q.T
                yield tols, X, H

    @staticmethod
    def runs(b, k):
        d1 = b.d1[:k]
        return reference_runs(d1, b.part.tols.cluster * max(
            1.0, np.max(np.abs(d1))))

    def test_ranks_are_the_level_runs_of_sigma_prime(self):
        rng = np.random.default_rng(40)
        seen = Counter()
        for tols, X, H in self.directions(rng, 200):
            b = direction_blocks(X, H, None, tols)
            runs = self.runs(b, self.K)
            ranks = [i - run[0] + 1 for run in runs for i in run]
            assert b.ltilde[:self.K].tolist() == ranks
            seen["chained group"] += max(map(len, runs)) > 2
            d1 = b.d1[:self.K]
            seen["chain cut"] += np.any((np.array(ranks[1:]) == 1) & (
                -np.diff(d1) < tols.cluster * max(1.0, np.max(np.abs(d1)))))
        assert min(seen.values()) > 5 and len(seen) == 2

    def test_target_sorted_inside_the_runs_round_trips(self):
        # flat inside each run, rising across runs: only a group cut on
        # sigma' accepts it
        rng = np.random.default_rng(41)
        for tols, X, H in self.directions(rng, 100):
            b = direction_blocks(X, H, None, tols)
            zbar = np.r_[np.concatenate([np.full(len(run), float(j))
                                         for j, run in enumerate(
                                             self.runs(b, self.K))]), -1.0]
            What = min_direction_construct(X, H, zbar, tols)
            np.testing.assert_allclose(sigma_dir2(X, H, What, tols), zbar,
                                       atol=1e-8)

    def test_sigma2_nonincreasing_inside_level_runs(self):
        # what F_parabolic_subderivative hands the hook: sigma'' sorted
        # inside every _level_starts run of sigma' in each block
        rng = np.random.default_rng(42)
        for tols, X, H in self.directions(rng, 100):
            W = rng.standard_normal(X.shape)
            b = direction_blocks(X, H, None, tols)
            d2 = sigma_dir2(X, H, W, tols)
            for blk in b.part.alpha_blocks:
                v = b.d1[blk]
                bounds = _level_starts(v, tols) + [len(v)]
                for lo, hi in zip(bounds, bounds[1:]):
                    assert np.all(np.diff(d2[blk][lo:hi]) <= 0.0)


class TestOnePartitionPerPoint:
    """sigma', sigma'' and W-hat along two directions at a rank-deficient
    X partition sigma(X) once in total: the zero block's sigma(R) is read
    by the partition rule alone, not by ``partition_values``."""

    def test_two_directions_call_partition_values_once(self, monkeypatch):
        rng = np.random.default_rng(48)
        X = random_with_spectrum(7, 5, [3.0, 2.0, 2.0, 0.0, 0.0], rng)
        calls = []
        real = matrix_core.partition_values

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        for module in (matrix_core, sv_calculus, oimf):   # any binding
            monkeypatch.setattr(module, "partition_values", counted,
                                raising=False)
        for H in rng.standard_normal((2, 7, 5)):
            sigma_dir1(X, H)
            sigma_dir2(X, H, np.eye(7, 5))
            sigma_dir2(X, H, min_direction_construct(X, H, np.zeros(5)))
        assert len(calls) == 1
