"""The benchmark's three workloads.

Each workload turns a seed into jobs, runs one job through specvar's
public API and checks its output against a reference that does not come
from the code under test: the construction of the inputs, plain
``np.linalg.svd`` or the black-box difference-quotient oracles.  specvar
receives only matrices and spec objects; all randomness lives here.

A round is one pass over a workload's job mix.  ``jobs(seed, r)`` gives
round r (r >= 0 for timed rounds); ``warmup(seed, rep)`` gives a job
drawn from a stream that timed rounds never use.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

_sv = importlib.import_module("specvar.sv_calculus")
_oimf = importlib.import_module("specvar.oimf")
_oracles = importlib.import_module("specvar.oracles")
_certify = importlib.import_module("specvar.certify")
_cli = importlib.import_module("specvar.cli")
_absym = importlib.import_module("specvar.absym")

# Functions are looked up on their module at call time, so the tracer's
# patched bindings are the ones called during traced rounds.


@dataclass
class Job:
    label: str      # job class, e.g. "soft-18x16" or "distinct-128"
    data: dict


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def _levels(rng, count, lo, hi):
    """``count`` nonincreasing values in (lo, hi] whose adjacent gaps are
    at least 0.75 (hi - lo) / count, far above the clustering tolerance."""
    step = (hi - lo) / count
    return hi - step * np.arange(count) - rng.uniform(0.0, 0.25 * step, count)


def _unit(rng, shape):
    G = rng.standard_normal(shape)
    return G / np.linalg.norm(G)


def _compose(U, s, V):
    n = len(s)
    return U[:, :n] @ (s[:, None] * V.T)


# -- certify-mix --------------------------------------------------------------

SOFT_SIZES = ((6, 4), (10, 8), (18, 16))
SADDLE_SIZES = (6, 12)
N_SAMPLES = 200     # SamplingConfig default: certify stops at this many


def _soft_instance(rng, m, n):
    """1/2 ||X - B||^2 + 0.5 ||X||_*: B has a repeated value above the
    threshold 0.5 and n // 4 values below it, so X0 = prox has a cluster
    and a zero block and -grad psi is a strict relative-interior
    subgradient.  X0 is the global minimizer: sufficient-evidence."""
    nb = n // 4
    above = _levels(rng, n - nb - 1, 1.0, 3.0)
    mid = len(above) // 2
    above = np.insert(above, mid, above[mid])
    b = np.concatenate([above, _levels(rng, nb, 0.05, 0.4)])
    U, V = _orthogonal(rng, m), _orthogonal(rng, n)
    B = _compose(U, b, V)
    X0 = _compose(U, np.maximum(b - 0.5, 0.0), V)
    return {"kind": "soft", "B": B, "X0": X0,
            "expect": "sufficient-evidence"}


def _saddle_instance(rng, n):
    """saddle_fixture scaled up: X0 diagonal with distinct entries,
    B = X0 + I/2, E antisymmetric on (0, 1), gamma = 1.  The deflated
    quadratic has curvature -1 along E / ||E||, more than the nuclear
    norm's positive curvature there: necessary-violated."""
    X0 = np.diag(_levels(rng, n, 1.0, 3.0))
    E = np.zeros((n, n))
    E[0, 1], E[1, 0] = 1.0, -1.0
    return {"kind": "saddle", "B": X0 + 0.5 * np.eye(n), "E": E, "X0": X0,
            "expect": "necessary-violated"}


def _objective(d, X):
    """psi(X) + 0.5 ||X||_* computed here, independent of specvar."""
    value = 0.5 * float(np.sum((X - d["B"]) ** 2))
    if d["kind"] == "saddle":
        value -= 0.5 * float(np.sum(d["E"] * X)) ** 2
    return value + 0.5 * float(np.sum(np.linalg.svd(X, compute_uv=False)))


def _write_csv(path, X):
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(X):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _write_fixture_files(workdir):
    """The two shipped fixtures as CLI problem files (JSON + CSV)."""
    _write_csv(workdir / "soft_B.csv", np.diag([3.0, 1.0, 0.2]))
    _write_csv(workdir / "soft_X0.csv", np.diag([2.5, 0.5, 0.0]))
    _write_csv(workdir / "saddle_B.csv", np.diag([2.5, 1.5]))
    _write_csv(workdir / "saddle_E.csv", [[0.0, 1.0], [-1.0, 0.0]])
    _write_csv(workdir / "saddle_X0.csv", np.diag([2.0, 1.0]))
    problems = {
        "soft.json": {"f": "l1", "weight": 0.5, "X0": "soft_X0.csv",
                      "psi": {"kind": "half-squared-distance",
                              "B": "soft_B.csv"}},
        "saddle.json": {"f": "l1", "weight": 0.5, "X0": "saddle_X0.csv",
                        "psi": {"kind": "quadratic-minus-rank1",
                                "B": "saddle_B.csv", "E": "saddle_E.csv",
                                "gamma": 1.0}},
    }
    for name, problem in problems.items():
        with open(workdir / name, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)


class CertifyMix:
    """One certify call per job, default SamplingConfig; X0 stays fixed
    over hundreds of sampled directions.  The same instances repeat every
    round, so a round's work, and its traced call counts, never change."""

    name = "certify-mix"
    # the two slowest classes need 11+ jobs between them for the tail;
    # 14 keep it off their fastest two
    min_rounds = 7

    def __init__(self, workdir):
        self.workdir = workdir
        self._round = None

    def prepare(self, seed):
        _write_fixture_files(self.workdir)
        rng = _rng(seed, 0)
        jobs = [Job("fixture-soft-cli", {"kind": "cli", "problem": "soft.json",
                                         "expect": "sufficient-evidence"}),
                Job("fixture-saddle-cli", {"kind": "cli",
                                           "problem": "saddle.json",
                                           "expect": "necessary-violated"})]
        for m, n in SOFT_SIZES:
            jobs.append(Job(f"soft-{m}x{n}", _soft_instance(rng, m, n)))
        for n in SADDLE_SIZES:
            jobs.append(Job(f"saddle-{n}", _saddle_instance(rng, n)))
        self._round = jobs

    def jobs(self, seed, r):
        return self._round

    def warmup(self, seed, rep):
        return self._round[0]

    def run(self, job, wrap_spec):
        d = job.data
        if d["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = _cli.main(["certify", "--problem",
                                  str(self.workdir / d["problem"])])
            return code, buf.getvalue()
        f = wrap_spec(_absym.scale_spec(_absym.l1_spec(), 0.5))
        if d["kind"] == "soft":
            psi = _certify.HalfSquaredDistance(d["B"])
        else:
            psi = _certify.QuadraticMinusRankOne(d["B"], d["E"], 1.0)
        return _certify.certify(_certify.ProblemSpec(psi=psi, f=f), d["X0"])

    def check(self, job, out):
        d = job.data
        if d["kind"] == "cli":
            code, text = out
            if code != 0:
                return f"cli exit code {code}"
            res = json.loads(text)["outputs"]
            verdict, accepted = res["verdict"], res["n_samples"]
        else:
            verdict, accepted = out.verdict, len(out.samples)
        if verdict != d["expect"]:
            return f"verdict {verdict!r}, expected {d['expect']!r}"
        if accepted != N_SAMPLES:
            return f"{accepted} accepted samples, expected {N_SAMPLES}"
        if d["kind"] == "saddle":
            H = out.counterexample
            base = _objective(d, d["X0"])
            if H is None or not any(_objective(d, d["X0"] + t * H) < base
                                    for t in (1e-2, 1e-3)):
                return "counterexample does not descend"
        return None


# -- deriv-sweep --------------------------------------------------------------

DERIV_SIZES = (16, 64, 128)
SPECTRA = ("distinct", "clustered", "rankdef")
EXPANSION_T = 1e-4
EXPANSION_TOL = 1e-3   # max |residual| / t^2; a sigma'' error e shows as e/2
ROUND_TRIP_TOL = 1e-8  # acceptance criterion 9


def _spectrum(rng, n, kind):
    if kind == "distinct":
        return _levels(rng, n, 1.0, 3.0)
    if kind == "clustered":
        return np.repeat(_levels(rng, n // 4, 1.0, 3.0), 4)
    r = n - n // 4
    return np.concatenate([_levels(rng, r, 1.0, 3.0), np.zeros(n - r)])


def _deriv_job(rng, n, kind):
    m = n + 4
    s = _spectrum(rng, n, kind)
    U, V = _orthogonal(rng, m), _orthogonal(rng, n)
    H = _unit(rng, (m, n))
    r = int(np.count_nonzero(s))
    v = np.ones(n)
    v[r:] = np.sort(rng.uniform(0.1, 0.9, n - r))[::-1]
    # |v_beta| < 1, so H is critical for l1 iff its beta block vanishes
    G = U.T @ H @ V
    G[r:, r:] = 0.0
    return Job(f"{kind}-{n}", {
        "s": s, "X": _compose(U, s, V), "H": H, "W": _unit(rng, (m, n)),
        "zbar": np.sort(rng.uniform(0.0, 1.0, n))[::-1],
        "Y": _compose(U, v, V), "Hc": U @ G @ V.T})


class DerivSweep:
    """sigma', sigma'', the direction construction round trip and d2F at a
    fresh point per job: no point is ever reused."""

    name = "deriv-sweep"
    # the slowest class (distinct spectrum, n = 128) comes once per round
    # and needs 11 jobs for the tail to fall inside it
    min_rounds = 11

    def __init__(self, workdir):
        self._l1 = None

    def prepare(self, seed):
        self._l1 = _absym.l1_spec()

    def jobs(self, seed, r):
        return [_deriv_job(_rng(seed, 0, r, i), n, kind)
                for i, (n, kind) in enumerate(
                    (n, kind) for n in DERIV_SIZES for kind in SPECTRA)]

    def warmup(self, seed, rep):
        return _deriv_job(_rng(seed, 1, rep), DERIV_SIZES[0], SPECTRA[0])

    def run(self, job, wrap_spec):
        d = job.data
        X, H = d["X"], d["H"]
        d1 = _sv.sigma_dir1(X, H)
        d2 = _sv.sigma_dir2(X, H, d["W"])
        What = _sv.min_direction_construct(X, H, d["zbar"])
        z = _sv.sigma_dir2(X, H, What)
        rep = _oimf.F_second_subderivative(wrap_spec(self._l1), X, d["Y"],
                                           d["Hc"])
        return d1, d2, z, rep

    def check(self, job, out):
        d = job.data
        d1, d2, z, rep = out
        t = EXPANSION_T
        st = np.linalg.svd(d["X"] + t * d["H"] + 0.5 * t * t * d["W"],
                           compute_uv=False)
        res = float(np.max(np.abs(st - (d["s"] + t * d1 + 0.5 * t * t * d2))))
        if not res <= EXPANSION_TOL * t * t:
            return f"expansion residual {res:.3e} above {EXPANSION_TOL}*t^2"
        err = float(np.max(np.abs(z - d["zbar"])))
        if not err <= ROUND_TRIP_TOL:
            return f"round trip error {err:.3e}"
        if not (rep.critical and math.isfinite(rep.value)
                and rep.value >= -1e-9):
            return f"d2F at a critical direction: {rep}"
        return None


# -- oracle-verify ------------------------------------------------------------

# n = 32 twice per round, so the median job sits inside the n = 32 class
# rather than on the boundary between the two sizes.
ORACLE_MIX = (("l1", 8), ("kyfan:2", 8), ("l1", 32), ("kyfan:2", 32),
              ("l1", 32), ("kyfan:2", 32))
SANDWICH_TOL = 0.05    # acceptance criterion 6


def _oracle_job(rng, fname, n):
    """X with a top value, a cluster of three, distinct values and a zero
    block; Y a subgradient of F = f o sigma built from its definition and
    H a critical direction built from the critical cone's description."""
    m = n + 2
    nz = n // 4
    s = np.concatenate([[4.0 - rng.uniform(0.0, 0.2)],
                        np.full(3, 3.0 - rng.uniform(0.0, 0.2)),
                        _levels(rng, n - nz - 4, 1.0, 2.5), np.zeros(nz)])
    U, V = _orthogonal(rng, m), _orthogonal(rng, n)
    G = rng.standard_normal((m, n))
    v = np.zeros(n)
    if fname == "l1":
        r = n - nz
        v[:r] = 1.0
        v[r:] = np.sort(rng.uniform(0.1, 0.9, nz))[::-1]
        G[r:, r:] = 0.0
    else:
        # kyfan:2 ties its second slot across the cluster: weights there
        # are positive and sum to one, so H is critical iff the symmetric
        # part of its cluster block is a multiple of the identity
        w = rng.uniform(0.2, 1.0, 3)
        v[0], v[1:4] = 1.0, np.sort(w / w.sum())[::-1]
        A = rng.standard_normal((3, 3))
        G[1:4, 1:4] = rng.standard_normal() * np.eye(3) + A - A.T
    H = U @ G @ V.T
    H /= np.linalg.norm(H)
    Y = _compose(U, v, V)
    return Job(f"{fname}-{n}", {
        "f": _absym.spec_by_name(fname), "X": _compose(U, s, V), "Y": Y,
        "H": H, "Z": _unit(rng, (m, n)), "dFH": float(np.sum(Y * H))})


class OracleVerify:
    """d2F at a critical triple against the fixed, liminf and parabolic
    difference-quotient oracles (about 270 F_eval calls per job)."""

    name = "oracle-verify"
    min_rounds = 3   # four n = 32 jobs per round set the tail

    def __init__(self, workdir):
        self._cfg = None

    def prepare(self, seed):
        self._cfg = _oracles.OracleConfig()

    def jobs(self, seed, r):
        return [_oracle_job(_rng(seed, 0, r, i), fname, n)
                for i, (fname, n) in enumerate(ORACLE_MIX)]

    def warmup(self, seed, rep):
        return _oracle_job(_rng(seed, 1, rep), *ORACLE_MIX[0])

    def run(self, job, wrap_spec):
        d = job.data
        f, X, Y, H = wrap_spec(d["f"]), d["X"], d["Y"], d["H"]
        cfg = self._cfg

        def g(M):
            return _oimf.F_eval(f, M)

        rep = _oimf.F_second_subderivative(f, X, Y, H)
        fixed = _oracles.quotient2_fixed(g, X, Y, H, cfg)
        guides = _oimf.guided_offsets(X, H)
        table = _oracles.liminf_table(g, X, Y, H, cfg, guides)
        parab = _oracles.parabolic_quotient(g, X, H, d["dFH"], d["Z"], cfg)
        return rep, fixed, table, parab

    def check(self, job, out):
        rep, fixed, table, parab = out
        if not (rep.critical and math.isfinite(rep.value)):
            return f"H built critical, d2F says {rep}"
        if not rep.value <= fixed[-1] + SANDWICH_TOL:
            return f"d2F {rep.value:.4f} above fixed quotient {fixed[-1]:.4f}"
        liminf = table[-1][1]
        if not rep.value >= liminf - SANDWICH_TOL:
            return f"d2F {rep.value:.4f} below liminf {liminf:.4f}"
        if not all(math.isfinite(q) for q in (*fixed, *parab)):
            return "non-finite quotient"
        return None


WORKLOADS = {cls.name: cls for cls in (CertifyMix, DerivSweep, OracleVerify)}
