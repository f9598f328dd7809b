"""Command-line front end: load matrices, dispatch to the library, emit
JSON reports (and CSV convergence tables for the oracle command).

Reports carry a ``schema: specvar/1`` marker, echo their inputs, and
serialize every numeric field with 17 significant digits so that a
re-parsed report reproduces the run bit-for-bit.  Infinities appear as
the strings "inf" / "-inf" (JSON has no literal for them).

Exit codes: 0 success, 1 usage or malformed input, 2 numerical
assumption failure (for example no simultaneous gauge), 3 I/O error.
Error details go to standard error as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import absym, oimf, oracles
from .absym import spec_by_name
from .certify import (
    HalfSquaredDistance,
    LeastSquares,
    ProblemSpec,
    QuadraticMinusRankOne,
    SamplingConfig,
    certify as run_certify,
    quadratic_growth_probe,
)
from .errors import AssumptionError, InputError, ShapeError, SpecvarError
from .matrix_core import (
    CLUSTER_TOL,
    RANK_TOL,
    Tolerances,
    as_count,
    as_matrix,
    as_real,
    partition_values,
    read_matrix_csv,
)
from .sv_calculus import sigma_dir1, sigma_dir2

SCHEMA = "specvar/1"


class UsageError(SpecvarError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- 17-significant-digit JSON ---------------------------------------------------

def _render(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            parts.append('"nan"')
        elif math.isinf(v):
            parts.append('"inf"' if v > 0 else '"-inf"')
        else:
            parts.append(format(v, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _render(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(k)))
            parts.append(": ")
            _render(v, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_17g(obj):
    parts = []
    _render(obj, parts)
    return "".join(parts)


def parse_float_field(v):
    """Inverse of the float rendering, for report round-trips."""
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if v == "nan":
        return math.nan
    return float(v)


# -- input loading ---------------------------------------------------------------

def _load_matrix(ref, base=None, header=False, name="X"):
    """A matrix argument is a CSV path or an inline list of rows, read as
    a finite array (``as_matrix``) whose shape its user checks."""
    if isinstance(ref, (list, tuple)):
        return as_matrix(ref, name, ndim=None)
    path = Path(ref)
    if base is not None and not path.is_absolute():
        path = Path(base) / path
    return read_matrix_csv(path, header=header)


def _required(d, key, where):
    """d[key], with a missing key reported as a usage error."""
    if not isinstance(d, dict):
        raise UsageError(f"{where} must be a JSON object")
    if key not in d:
        raise UsageError(f"{where} is missing the key {key!r}")
    return d[key]


def _usage(rule, *args, **kwargs):
    """rule(*args, **kwargs) of the input contract, its ``ShapeError``
    reported as a ``UsageError``: the value came from the command line or
    a problem file."""
    try:
        return rule(*args, **kwargs)
    except ShapeError as exc:
        raise UsageError(str(exc)) from None


def _psi_from_dict(d, base):
    """psi of a problem file: its kind's constructor checks the data, and
    a ShapeError of any kind is reported as the file's UsageError."""
    kind = _required(d, "kind", "psi")

    def matrix(key, ref=None):
        ref = _required(d, key, "psi") if ref is None else ref
        return _usage(_load_matrix, ref, base, name=key)
    if kind == "half-squared-distance":
        rule, args = HalfSquaredDistance, (matrix("B"),)
    elif kind == "least-squares":   # LeastSquares checks the list A as a stack
        A = _required(d, "A", "psi")
        A = [matrix("A", a) for a in A] if isinstance(A, list) else A
        rule, args = LeastSquares, (A, _required(d, "b", "psi"))
    elif kind == "quadratic-minus-rank1":
        rule = QuadraticMinusRankOne
        args = (matrix("B"), matrix("E"), d.get("gamma", 1.0))
    else:
        raise UsageError(f"unknown psi kind {kind!r}")
    return _usage(rule, *args)


def load_problem(path):
    """Problem file: JSON with matrix CSV references, f name, weight and
    psi kind; relative paths resolve against the file's directory.  X0
    must have the shape of psi's matrix (B, or each matrix of A)."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    base = path.parent
    f = spec_by_name(_required(d, "f", path))
    weight = _usage(as_real, d.get("weight", 1.0), "weight")
    if weight != 1.0:
        f = absym.scale_spec(f, weight)
    psi = _psi_from_dict(_required(d, "psi", path), base)
    like, like_name = ((psi.A[0], "A[0]") if isinstance(psi, LeastSquares)
                       else (psi.B, "B"))
    X0 = _usage(_load_matrix, _required(d, "X0", path), base, name="X0")
    X0 = _usage(as_matrix, X0, "X0", like, like_name=like_name)
    return ProblemSpec(psi=psi, f=f), X0, d.get("sampling", {}), d


def _sampling(args, sampling):
    """n_samples, min_samples and seed: a given flag (0 included), else the
    problem file's sampling object, else SamplingConfig's default.  The
    file's values and the flags are each checked by SamplingConfig."""
    keys = ("n_samples", "min_samples", "seed")
    if not isinstance(sampling, dict) or not set(sampling) <= set(keys):
        raise UsageError(f"sampling must be an object with keys among {keys}")
    flags = {k: getattr(args, k) for k in keys
             if getattr(args, k, None) is not None}
    _usage(SamplingConfig, **sampling)
    cfg = _usage(SamplingConfig, **{**sampling, **flags})
    return {k: getattr(cfg, k) for k in keys}


# -- report plumbing -------------------------------------------------------------

def _emit(report, out_path):
    text = dumps_17g(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _matrix(args, name):
    return _load_matrix(getattr(args, name), header=args.header)


def _matrix_like(args, name, X):
    """The matrix of flag --name, required to have the shape of --X."""
    return as_matrix(_matrix(args, name), f"--{name}", X, like_name="--X")


# -- matrix commands -------------------------------------------------------------

def _second_subderiv(tols, f, X, Y, H):
    rep = oimf.F_second_subderivative(spec_by_name(f), X, Y, H, tols)
    return {
        "value": rep.value,
        "breakdown": [rep.d2f_term, rep.alpha_term, rep.beta_term],
        "critical": rep.critical,
    }, list(rep.warnings)


def _psi(tols, X, H, Omega=None):
    out = {"subderivative": oimf.nuclear_psi_subderivative(X, H, tols)}
    if Omega is not None:
        out["second_epi"] = oimf.nuclear_psi_second_epi(X, Omega, H, tols)
    return out, []


# One row per matrix command: its fields, in echo order, and the function
# from the tolerances and the loaded fields to (outputs, warnings).  A
# capitalised field is a CSV matrix, a lower-case one is passed as parsed
# (a string unless _FLAGS says otherwise); a trailing "?" marks it optional.
COMMANDS = {
    "eval": (("f", "X"), lambda tols, f, X: (
        {"value": oimf.F_eval(spec_by_name(f), X)}, [])),
    "deriv1": (("X", "H"), lambda tols, X, H: (
        {"sigma_dir1": sigma_dir1(X, H, tols)}, [])),
    "deriv2": (("X", "H", "W"), lambda tols, X, H, W: (
        {"sigma_dir1": sigma_dir1(X, H, tols),
         "sigma_dir2": sigma_dir2(X, H, W, tols)}, [])),
    "subderiv": (("f", "X", "H"), lambda tols, f, X, H: (
        {"value": oimf.F_subderivative(spec_by_name(f), X, H, tols)}, [])),
    "second-subderiv": (("f", "X", "Y", "H"), _second_subderiv),
    "nuclear-epi": (("X", "Omega", "H"), lambda tols, X, Omega, H: (
        {"value": oimf.nuclear_second_epi(X, Omega, H, tols)}, [])),
    "psi": (("X", "H", "Omega?"), _psi),
    "phi2": (("X", "H"), lambda tols, X, H: (
        {"value": oimf.nuclear_phi_second_diff(X, H, tols)}, [])),
    "tangent": (("set", "X", "H", "order", "W?"),
                lambda tols, set, X, H, order, W=None: ({
                    "contains": oimf.invariant_tangent_contains(
                        oimf.set_by_name(set), X, H, order, W, tols)}, [])),
    "distance": (("set", "X"), lambda tols, set, X: (dict(zip(
        ("distance", "nearest"),
        oimf.invariant_set_distance(oimf.set_by_name(set), X))), [])),
}

# argparse keywords for a field that is not a plain string flag
_FLAGS = {"order": {"type": int, "default": 1, "choices": (1, 2)}}


def _run(fields, fn, args, tols):
    """Load the row's matrices, echo its fields in row order, evaluate."""
    inputs = {}
    for field in fields:
        name = field.rstrip("?")
        value = getattr(args, name)
        if value or name == field:  # an empty optional flag is absent
            inputs[name] = _matrix(args, name) if name[0].isupper() else value
    outputs, warnings = fn(tols, **inputs)
    return outputs, inputs, warnings


# -- other commands --------------------------------------------------------------

def _oracle_target(args, X, tols):
    if args.target == "composite":
        f = spec_by_name(args.f)
        return lambda M: oimf.F_eval(f, M)
    # psi: freeze the zero-block split at the base point's rank
    s = np.linalg.svd(X, compute_uv=False)
    r0 = partition_values(s, tols).r
    return lambda M: oimf.nuclear_psi_eval(M, base_rank=r0)


def cmd_oracle(args, tols):
    X = _matrix(args, "X")
    H = _matrix_like(args, "H", X)
    cfg = oracles.OracleConfig(
        tau_grid=tuple(args.tau_grid), samples_per_tau=args.samples,
        radius_c=args.radius_c,
        seed=_sampling(args, {"seed": oracles.OracleConfig.seed})["seed"])
    g = _oracle_target(args, X, tols)
    echo = {"kind": args.kind, "target": args.target, "f": args.f, "X": X,
            "H": H, "seed": cfg.seed, "tau_grid": list(cfg.tau_grid),
            "samples": cfg.samples_per_tau, "radius_c": cfg.radius_c}
    if args.kind == "parabolic":
        W = _matrix_like(args, "W", X) if args.W else np.zeros_like(X)
        if args.target == "composite":
            f = spec_by_name(args.f)
            dgxw = oimf.F_subderivative(f, X, H, tols)
        else:
            dgxw = oimf.nuclear_psi_subderivative(X, H, tols)
        vals = oracles.parabolic_quotient(g, X, H, dgxw, W, cfg)
        rows = list(zip(cfg.tau_grid, vals))
        out = {"quotients": rows, "estimate": vals[-1], "dgxw": dgxw}
        echo["W"] = W
    else:
        if not args.Y:
            raise UsageError(f"oracle --kind {args.kind} requires --Y")
        Y = _matrix_like(args, "Y", X)
        echo["Y"] = Y
        if args.kind == "fixed":
            vals = oracles.quotient2_fixed(g, X, Y, H, cfg)
            rows = list(zip(cfg.tau_grid, vals))
            out = {"quotients": rows, "estimate": vals[-1]}
        else:   # liminf
            guides = oimf.guided_offsets(X, H, tols) \
                if not args.no_guided else ()
            rows = oracles.liminf_table(g, X, Y, H, cfg, guides)
            out = {"quotients": rows, "estimate": rows[-1][1]}
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("tau,quotient\n")
            for tau, q in out["quotients"]:
                fh.write(f"{tau:.17g},{q:.17g}\n")
    return out, echo, []


def cmd_certify(args, tols):
    p, X0, sampling, raw = load_problem(args.problem)
    sampling = _sampling(args, sampling)
    cert = run_certify(p, X0, SamplingConfig(**sampling))
    out = {
        "verdict": cert.verdict,
        "stationarity_residual": cert.stationarity_residual,
        "is_stationary": cert.is_stationary,
        "n_samples": len(cert.samples),
        "min_curvature": cert.min_curvature,
        "min_arc_quotient": cert.min_arc_quotient,
        "counterexample": cert.counterexample,
    }
    return out, {"problem": raw, **sampling}, []


def cmd_growth(args, tols):
    p, X0, sampling, raw = load_problem(args.problem)
    seed = _sampling(args, sampling)["seed"]   # --n-samples sizes the probe
    n = _usage(as_count, args.probe_samples, "n_samples")
    g = quadratic_growth_probe(p, X0, args.eps, n, seed)
    return {"growth": g}, {"problem": raw, "eps": args.eps,
                           "n_samples": n, "seed": seed}, []


# -- parser ----------------------------------------------------------------------

def _add_header(sp):
    sp.add_argument("--header", action="store_true",
                    help="skip one header line in matrix CSV files")


def build_parser():
    ap = _Parser(prog="specvar",
                 description="Second-order variational calculus for "
                             "orthogonally invariant matrix functions")
    ap.add_argument("--tol-cluster", type=float, default=CLUSTER_TOL)
    ap.add_argument("--tol-rank", type=float, default=RANK_TOL)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the report here "
                                                "instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    for command, (fields, fn) in COMMANDS.items():
        sp = sub.add_parser(command)
        _add_header(sp)
        for field in fields:
            name = field.rstrip("?")
            sp.add_argument(f"--{name}",
                            **_FLAGS.get(name, {"required": name == field}))
        sp.set_defaults(fn=functools.partial(_run, fields, fn))

    sp = sub.add_parser("oracle")
    _add_header(sp)
    sp.add_argument("--X", required=True)
    sp.add_argument("--H", required=True)
    sp.add_argument("--kind", required=True,
                    choices=("fixed", "liminf", "parabolic"))
    sp.add_argument("--target", default="composite",
                    choices=("composite", "psi"))
    sp.add_argument("--f", default="l1")
    sp.add_argument("--Y", default=None)
    sp.add_argument("--W", default=None)
    plan = oracles.OracleConfig
    sp.add_argument("--tau-grid", type=float, nargs="+", default=plan.tau_grid)
    sp.add_argument("--samples", type=int, default=plan.samples_per_tau)
    sp.add_argument("--radius-c", type=float, default=plan.radius_c)
    sp.add_argument("--no-guided", action="store_true")
    sp.add_argument("--csv", default=None,
                    help="also write (tau, quotient) rows to this CSV")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("certify")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--n-samples", type=int, default=None)
    sp.add_argument("--min-samples", type=int, default=None)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("growth")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--eps", type=float, default=SamplingConfig.growth_eps)
    sp.add_argument("--n-samples", dest="probe_samples", type=int,
                    default=10_000)
    sp.set_defaults(fn=cmd_growth)

    return ap


@functools.cache
def _parser():
    """``build_parser()``, built on the first ``main`` call and kept: a
    parse leaves no state in it."""
    return build_parser()


def _error_json(code, exc):
    return dumps_17g({"schema": SCHEMA, "error": type(exc).__name__,
                      "message": str(exc), "exit_code": code})


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        tols = Tolerances(args.tol_cluster, args.tol_rank)
        outputs, inputs, warnings_list = args.fn(args, tols)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "warnings": warnings_list,
        }
        _emit(report, args.out)
        return 0
    except (UsageError, InputError, json.JSONDecodeError) as exc:
        print(_error_json(1, exc), file=sys.stderr)
        return 1
    except (AssumptionError, np.linalg.LinAlgError) as exc:
        print(_error_json(2, exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_error_json(3, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
