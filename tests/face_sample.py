"""Random subgradients of the built-in polyhedral f, and of c f, drawn on
the face that ``absym._classify`` gives: the Y that tests build from
df(sigma(X)).  No specvar path draws them."""
import numpy as np

from specvar.absym import _classify


def subdiff_sample(spec, x, rng):
    """A random v in df(x) for spec l1, linf, kyfan:k or c*one of them
    (c read from ``scale_spec``'s name, which prints it with ``:g``, so
    exact for the c the tests use): above the tie cluster the signs, on a nonzero
    cluster a Dirichlet split of the budget q with each share <= 1 (the
    even split after 50 tries), on a zero cluster uniform values scaled
    into the budget."""
    c, _, name = spec.name.rpartition("*")
    x = np.asarray(x, dtype=float)
    k = {"l1": len(x), "linf": 1}.get(name) or int(name.split(":")[1])
    f = _classify(x, k)
    v = np.zeros(len(x))
    v[f.above] = f.signs[f.above]
    T = len(f.tied)
    if T and not f.theta_zero:
        for _ in range(50):
            t = rng.dirichlet(np.ones(T)) * f.q
            if np.all(t <= 1.0):
                break
        else:
            t = np.full(T, f.q / T)
        v[f.tied] = f.signs[f.tied] * t
    elif T:
        raw = rng.uniform(-1.0, 1.0, T)
        budget = float(np.sum(np.abs(raw)))
        if budget > f.q:
            raw *= (f.q / budget) * rng.uniform(0.2, 1.0)
        v[f.tied] = raw
    return float(c) * v if c else v
