"""Signed permutations as plain (perm, signs) arrays, applied as
signs * x[perm]; no specvar path uses them, only the symmetry tests."""
import numpy as np

from specvar.matrix_core import CLUSTER_TOL, RANK_TOL
from tie_runs import reference_runs


def apply(Q, x):
    return Q[1] * np.asarray(x, dtype=float)[Q[0]]


def random_signed_permutation(n, rng):
    return rng.permutation(n), rng.choice([-1, 1], size=n)


def stabilizer_sample(x, rng):
    """(perm, signs) fixing a nonnegative x under the partition rule: its
    zeros (at or below RANK_TOL max(1, max x)) are shuffled and flipped,
    and each CLUSTER_TOL max(1, max x) run of the rest is shuffled."""
    scale = max(1.0, np.max(x, initial=0.0))
    perm, signs = np.arange(len(x)), np.ones(len(x), dtype=int)
    order = np.argsort(-x, kind="stable")
    r = int(np.sum(x > RANK_TOL * scale))
    blocks = reference_runs(x[order[:r]], CLUSTER_TOL * scale)
    if r < len(x):
        blocks.append(list(range(r, len(x))))
    for grp in (order[blk] for blk in blocks):
        perm[grp] = rng.permutation(grp)
    signs[order[r:]] = [rng.choice([-1, 1]) for _ in range(len(x) - r)]
    return perm, signs
