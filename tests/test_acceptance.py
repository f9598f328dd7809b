"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value below is either hand-derived (the 2x2 worked cases
have closed forms), produced by an independent difference-quotient
oracle, or a stated inequality checked on a fixed deterministic corpus.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np
import pytest

from specvar.absym import kyfan_spec, l1_spec, linf_spec
from specvar.certify import (
    SamplingConfig,
    certify,
    curvature,
    objective,
    quadratic_growth_probe,
    saddle_fixture,
    soft_threshold_fixture,
    stationarity_check,
)
from specvar.matrix_core import (
    gauge_randomize,
    partition_of,
    svd_ordered,
    sym_eig_ordered,
)
from specvar.oimf import (
    F_critical_cone_contains,
    F_eval,
    F_second_subderivative,
    F_subderivative,
    guided_offsets,
    nuclear_phi_second_diff,
    nuclear_psi_eval,
    nuclear_psi_second_epi,
    nuclear_second_epi,
)
from specvar.oracles import OracleConfig, quotient2_fixed, quotient2_liminf
from specvar.sv_calculus import (
    direction_blocks,
    expansion_residual,
    min_direction_construct,
    sigma_dir1,
    sigma_dir1_stack,
    sigma_dir2,
    sigma_dir2_from_blocks,
)
from face_sample import subdiff_sample
from signed_perm import apply, stabilizer_sample

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
BUILTINS = [l1_spec(), linf_spec(), kyfan_spec(2)]


def ok(line):
    print(f"[PASS] {line}")


def random_with_spectrum(m, n, svals, rng):
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return U[:, :n] @ np.diag(svals) @ V.T


def corpus_250(rng):
    """200 standard normal 5x4 instances plus 50 with repeated sigma."""
    out = [(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
           for _ in range(200)]
    patterns = [[2.0, 2.0, 1.0, 0.0], [3.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0],
                [4.0, 2.0, 2.0, 0.0]]
    for i in range(50):
        X = random_with_spectrum(5, 4, patterns[i % len(patterns)], rng)
        out.append((X, rng.standard_normal((5, 4))))
    return out


def test_criterion_1_first_order_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    errs = {1e-4: 0.0, 1e-5: 0.0}
    for X, H in corpus_250(rng):
        d1 = sigma_dir1(X, H)
        s0 = np.linalg.svd(X, compute_uv=False)
        hnorm = np.linalg.norm(H)
        for t in errs:
            st = np.linalg.svd(X + t * H, compute_uv=False)
            err = np.max(np.abs((st - s0) / t - d1))
            if t == 1e-4:
                assert err <= 1e-2 * hnorm
            errs[t] = max(errs[t], err)
    ratio = errs[1e-4] / errs[1e-5]
    assert 5.0 <= ratio <= 20.0
    elapsed = time.time() - start
    assert elapsed < 10.0
    ok(f"criterion 1: first-order quotient within 1e-2*||H|| at t=1e-4 on "
       f"250 instances; error ratio {ratio:.2f} in [5,20]; {elapsed:.2f}s")


def test_criterion_2_second_order_expansion():
    start = time.time()
    rng = np.random.default_rng(102)
    worst = {1e-2: 0.0, 1e-3: 0.0}
    for X, H in corpus_250(rng):
        W = rng.standard_normal((5, 4))
        for t in worst:
            r = np.max(np.abs(expansion_residual(X, H, W, t))) / (t * t)
            worst[t] = max(worst[t], r)
    ratio = worst[1e-2] / worst[1e-3]
    assert ratio >= 5.0
    elapsed = time.time() - start
    assert elapsed < 10.0
    ok(f"criterion 2: max expansion residual / t^2 shrinks {ratio:.1f}x "
       f"from t=1e-2 to t=1e-3 (>= 5x); {elapsed:.2f}s")


def test_criterion_3_psi_worked_case():
    X = np.diag([1.0, 0.0])
    Om = np.diag([0.0, 1.0])
    analytic = nuclear_psi_second_epi(X, Om, SWAP)
    assert analytic == -2.0
    cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=64, seed=3)
    psi = lambda M: nuclear_psi_eval(M, base_rank=1)
    fixed = quotient2_fixed(psi, X, Om, SWAP, cfg)[-1]
    assert fixed == pytest.approx(2.0, abs=0.05)
    guided = quotient2_liminf(psi, X, Om, SWAP, cfg,
                              guided_directions=guided_offsets(X, SWAP))
    assert guided == pytest.approx(-2.0, abs=0.05)
    ok(f"criterion 3: zero-cluster epi-derivative -2 exactly; fixed "
       f"quotient {fixed:.4f} ~ 2; guided liminf {guided:.4f} ~ -2")


def test_criterion_4_nuclear_worked_case():
    X = np.diag([1.0, 0.0])
    Om = np.eye(2)
    phi = nuclear_phi_second_diff(X, SWAP)
    assert phi == pytest.approx(2.0, abs=1e-9)
    psi = nuclear_psi_second_epi(X, np.diag([0.0, 1.0]), SWAP)
    total = nuclear_second_epi(X, Om, SWAP)
    assert psi == pytest.approx(-2.0, abs=1e-10)
    assert total == pytest.approx(0.0, abs=1e-10)
    assert total == pytest.approx(phi + 0.0 + psi, abs=1e-10)
    g = lambda M: F_eval(l1_spec(), M)
    cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=64, seed=4)
    est = quotient2_liminf(g, X, Om, SWAP, cfg,
                           guided_directions=guided_offsets(X, SWAP))
    assert est == pytest.approx(0.0, abs=0.05)
    ok(f"criterion 4: nuclear epi-derivative 0 with breakdown "
       f"({phi:.2f}, 0, {psi:.2f}); liminf oracle {est:.4f} within 0.05")


def test_criterion_5_chain_rule():
    rng = np.random.default_rng(20260809)
    t = 1e-6
    worst = 0.0
    for i in range(200):
        f = BUILTINS[i % 3]
        X = rng.standard_normal((5, 4))
        H = rng.standard_normal((5, 4))
        dF = F_subderivative(f, X, H)
        q = (F_eval(f, X + t * H) - F_eval(f, X)) / t
        worst = max(worst, abs(dF - q))
        assert abs(dF - q) <= 3e-5
    ok(f"criterion 5: chain rule vs forward quotient at t=1e-6 within "
       f"3e-5 on 200 instances (worst {worst:.2e})")


def _critical_triples(rng, count):
    """Random (f, X, Y, H) with Y a constructed subgradient and H a
    verified critical direction."""
    triples = []
    patterns = [
        [3.0, 2.0, 1.0],        # full rank, distinct
        [2.0, 2.0, 1.0],        # repeated top block
        [2.0, 1.0, 0.0],        # rank deficient
        [1.0, 1.0, 0.0],        # repeated + deficient
    ]
    attempts = 0
    while len(triples) < count and attempts < 50 * count:
        attempts += 1
        f = BUILTINS[attempts % 3]
        X = random_with_spectrum(4, 3, patterns[attempts % 4], rng)
        svd = svd_ordered(X)
        v = subdiff_sample(f, svd.sigma, rng)
        Y = svd.U[:, :3] @ (v[:, None] * svd.V.T)
        H = None
        for trial in range(30):
            G = rng.standard_normal((4, 3))
            if trial % 3 == 0:
                G = np.diag(rng.standard_normal(3))
                G = np.vstack([G, np.zeros((1, 3))])
            elif trial % 3 == 1:
                r = int(np.sum(svd.sigma > 1e-9))
                G[r:, r:] = 0.0
            cand = svd.U @ G @ svd.V.T
            nrm = np.linalg.norm(cand)
            if nrm == 0:
                continue
            cand /= nrm
            try:
                if F_critical_cone_contains(f, X, Y, cand):
                    H = cand
                    break
            except Exception:
                break
        if H is not None:
            triples.append((f, X, Y, H))
    return triples


def test_criterion_6_polyhedral_second_subderivative():
    rng = np.random.default_rng(106)
    triples = _critical_triples(rng, 50)
    assert len(triples) >= 50
    cfg = OracleConfig(tau_grid=(1e-2, 1e-3), samples_per_tau=64, seed=6)
    worst_upper = -np.inf
    worst_lower = np.inf
    for f, X, Y, H in triples:
        rep = F_second_subderivative(f, X, Y, H)
        assert rep.critical
        assert rep.value >= -1e-9  # convex F at a subgradient
        g = lambda M: F_eval(f, M)
        fixed = quotient2_fixed(g, X, Y, H, cfg)
        for q in fixed:
            assert rep.value <= q + 0.05
            worst_upper = max(worst_upper, rep.value - q)
        est = quotient2_liminf(g, X, Y, H, cfg,
                               guided_directions=guided_offsets(X, H))
        assert rep.value >= est - 0.05
        worst_lower = min(worst_lower, rep.value - est)
    ok(f"criterion 6: on {len(triples)} critical triples the analytic "
       f"value sits below all fixed quotients (max excess "
       f"{worst_upper:.3e}) and above the guided liminf - 0.05 "
       f"(min margin {worst_lower:.3e})")


def test_criterion_7_gauge_and_symmetry_invariance():
    rng = np.random.default_rng(107)
    X = random_with_spectrum(5, 4, [2.0, 2.0, 1.0, 0.0], rng)
    H = rng.standard_normal((5, 4))
    W = rng.standard_normal((5, 4))
    svd = svd_ordered(X)
    part = partition_of(svd)
    v = np.array([1.0, 1.0, 1.0, 0.5])
    Y = svd.U[:, :4] @ (v[:, None] * svd.V.T)
    f = l1_spec()
    base1 = sigma_dir1(X, H)
    base2 = sigma_dir2(X, H, W)
    base_dF = F_subderivative(f, X, H)
    base_d2F = F_second_subderivative(f, X, Y, H).value
    for seed in range(50):
        g = gauge_randomize(svd, part, seed)
        blocks = direction_blocks(X, H, gauge=g)
        d1 = sigma_dir1_stack(blocks.Hhat[None], blocks.part)[0]
        np.testing.assert_allclose(d1, base1, atol=1e-8)
        np.testing.assert_allclose(sigma_dir2_from_blocks(blocks, W),
                                   base2, atol=1e-8)
        dF = f.subderivative(g.sigma, d1)
        assert dF == pytest.approx(base_dF, abs=1e-8)

    def signed_perm(k, seed):
        r = np.random.default_rng(seed)
        P = np.zeros((k, k))
        for i, j in enumerate(r.permutation(k)):
            P[i, j] = r.choice([-1.0, 1.0])
        return P

    for seed in range(50):
        Qm = signed_perm(5, 2 * seed)
        Qn = signed_perm(4, 2 * seed + 1)
        Xp, Yp, Hp, Wp = (Qm @ M @ Qn.T for M in (X, Y, H, W))
        np.testing.assert_allclose(sigma_dir1(Xp, Hp), base1, atol=1e-8)
        np.testing.assert_allclose(sigma_dir2(Xp, Hp, Wp), base2, atol=1e-8)
        assert F_subderivative(f, Xp, Hp) == pytest.approx(base_dF,
                                                           abs=1e-8)
        assert F_second_subderivative(f, Xp, Yp, Hp).value == pytest.approx(
            base_d2F, abs=1e-8)
    # f-level symmetry under stabilizing signed permutations
    sx = svd.sigma
    for _ in range(50):
        Q = stabilizer_sample(sx, rng)
        w = rng.standard_normal(4)
        assert f.subderivative(sx, apply(Q, w)) == pytest.approx(
            f.subderivative(sx, w), abs=1e-12)
    ok("criterion 7: sigma', sigma'', dF, d2F invariant (1e-8) over 50 "
       "gauge seeds and 50 signed-permutation relabelings")


def test_criterion_8_inequality_suite():
    rng = np.random.default_rng(108)
    for _ in range(1000):
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A + A.T)
        B = rng.standard_normal((4, 4))
        B = 0.5 * (B + B.T)
        la, lb = sym_eig_ordered(A).lam, sym_eig_ordered(B).lam
        assert la @ lb - np.sum(A * B) >= -1e-10
    for _ in range(1000):
        X = rng.standard_normal((4, 3))
        Y = rng.standard_normal((4, 3))
        sx = np.linalg.svd(X, compute_uv=False)
        sy = np.linalg.svd(Y, compute_uv=False)
        assert sx @ sy - np.sum(X * Y) >= -1e-10
        assert np.linalg.norm(X - Y) - np.linalg.norm(sx - sy) >= -1e-10
    ok("criterion 8: Fan, von Neumann and sigma-Lipschitz inequalities "
       "hold with slack >= -1e-10 on 1000 random pairs each")


def test_criterion_9_min_direction_round_trip():
    rng = np.random.default_rng(109)
    count = 0
    worst = 0.0
    while count < 100:
        if count % 2 == 0:
            X = random_with_spectrum(
                5, 4, [[2.0, 2.0, 1.0, 0.0], [3.0, 1.0, 1.0, 0.0],
                       [1.0, 1.0, 1.0, 1.0]][count % 3], rng)
        else:
            X = rng.standard_normal((5, 4))
        H = rng.standard_normal((5, 4))
        zbar = sigma_dir2(X, H, rng.standard_normal((5, 4)))
        What = min_direction_construct(X, H, zbar)
        err = np.max(np.abs(sigma_dir2(X, H, What) - zbar))
        worst = max(worst, err)
        assert err <= 1e-8
        count += 1
    ok(f"criterion 9: sigma''(X,H, constructed W) hits 100 blockwise-"
       f"sorted targets within 1e-8 (worst {worst:.2e})")


def test_criterion_10_end_to_end_certificates():
    p, X0 = soft_threshold_fixture()
    residual, stationary = stationarity_check(p, X0)
    assert stationary and residual <= 1e-9
    cert = certify(p, X0, SamplingConfig(n_samples=120, min_samples=100,
                                         seed=10))
    assert cert.verdict == "sufficient-evidence"
    assert len(cert.samples) >= 100
    assert cert.min_curvature >= 0.9
    growth = quadratic_growth_probe(p, X0, 1e-2, 10_000, seed=10)
    assert growth >= 0.25

    ps, Xs = saddle_fixture()
    cert_s = certify(ps, Xs, SamplingConfig(n_samples=60, min_samples=20,
                                            seed=10))
    assert cert_s.verdict == "necessary-violated"
    Hc = cert_s.counterexample
    assert Hc is not None
    q = curvature(ps, Xs, Hc)
    base = objective(ps, Xs)
    assert any(objective(ps, Xs + t * Hc) < base + 0.25 * t * t * q
               for t in (1e-2, 1e-3))
    ok(f"criterion 10: soft-threshold fixture certified "
       f"(residual {residual:.1e}, min curvature {cert.min_curvature:.3f} "
       f">= 0.9 over {len(cert.samples)} samples, growth {growth:.3f} >= "
       f"0.25); saddle fixture refuted with validated descent direction")
