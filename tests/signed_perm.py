"""Signed permutations as plain (perm, signs) arrays, applied as
signs * x[perm]; no specvar path uses them, only the symmetry tests."""
import numpy as np

from specvar.matrix_core import ZERO_TOL
from tie_runs import reference_runs


def apply(Q, x):
    return Q[1] * np.asarray(x, dtype=float)[Q[0]]


def random_signed_permutation(n, rng):
    return rng.permutation(n), rng.choice([-1, 1], size=n)


def stabilizer_sample(x, rng):
    """(perm, signs) fixing x: shuffles tol-equal groups, flips zeros."""
    tol = ZERO_TOL * (1.0 + np.max(np.abs(x), initial=0.0))
    perm, signs = np.arange(len(x)), np.ones(len(x), dtype=int)
    order = np.argsort(-x, kind="stable")
    for grp in (order[blk] for blk in reference_runs(x[order], tol)):
        perm[grp] = rng.permutation(grp)
        if abs(x[grp[0]]) <= tol:
            signs[grp] = [rng.choice([-1, 1]) for _ in grp]
    return perm, signs
