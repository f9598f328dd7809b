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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import absym, oimf, oracles
from .certify import (
    HalfSquaredDistance,
    LeastSquares,
    ProblemSpec,
    QuadraticMinusRankOne,
    SamplingConfig,
    certify as run_certify,
    quadratic_growth_probe,
)
from .errors import AssumptionError, InputError, SpecvarError
from .matrix_core import CLUSTER_TOL, RANK_TOL, read_matrix_csv
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

def _load_matrix(ref, base=None, header=False):
    """A matrix argument is a CSV path or an inline list of rows."""
    if isinstance(ref, (list, tuple)):
        return np.asarray(ref, dtype=float)
    path = Path(ref)
    if base is not None and not path.is_absolute():
        path = Path(base) / path
    return read_matrix_csv(path, header=header)


def _psi_from_dict(d, base):
    kind = d.get("kind")
    if kind == "half-squared-distance":
        return HalfSquaredDistance(_load_matrix(d["B"], base))
    if kind == "least-squares":
        A = np.stack([_load_matrix(a, base) for a in d["A"]])
        return LeastSquares(A, np.asarray(d["b"], dtype=float))
    if kind == "quadratic-minus-rank1":
        return QuadraticMinusRankOne(
            _load_matrix(d["B"], base), _load_matrix(d["E"], base),
            float(d.get("gamma", 1.0)))
    raise UsageError(f"unknown psi kind {kind!r}")


def load_problem(path):
    """Problem file: JSON with matrix CSV references, f name, weight and
    psi kind; relative paths resolve against the file's directory."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise UsageError(f"{path}: problem file must hold a JSON object")
    base = path.parent
    f = absym.spec_by_name(d["f"])
    weight = float(d.get("weight", 1.0))
    if weight != 1.0:
        f = absym.scale_spec(f, weight)
    p = ProblemSpec(psi=_psi_from_dict(d["psi"], base), f=f)
    X0 = _load_matrix(d["X0"], base)
    sampling = d.get("sampling", {})
    return p, X0, sampling, d


# -- report plumbing -------------------------------------------------------------

def _emit(report, out_path):
    text = dumps_17g(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _echo(**kwargs):
    return {k: v for k, v in kwargs.items() if v is not None}


def _tols(args):
    return {"cluster_tol": args.tol_cluster, "rank_tol": args.tol_rank}


# -- commands --------------------------------------------------------------------

def cmd_eval(args):
    X = _load_matrix(args.X, header=args.header)
    f = absym.spec_by_name(args.f)
    return {"value": oimf.F_eval(f, X)}, _echo(f=args.f, X=X)


def cmd_deriv1(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    return {"sigma_dir1": sigma_dir1(X, H, **_tols(args))}, _echo(X=X, H=H)


def cmd_deriv2(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    W = _load_matrix(args.W, header=args.header)
    return {
        "sigma_dir1": sigma_dir1(X, H, **_tols(args)),
        "sigma_dir2": sigma_dir2(X, H, W, **_tols(args)),
    }, _echo(X=X, H=H, W=W)


def cmd_subderiv(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    f = absym.spec_by_name(args.f)
    return {"value": oimf.F_subderivative(f, X, H, **_tols(args))}, \
        _echo(f=args.f, X=X, H=H)


def cmd_second_subderiv(args):
    X = _load_matrix(args.X, header=args.header)
    Y = _load_matrix(args.Y, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    f = absym.spec_by_name(args.f)
    rep = oimf.F_second_subderivative(f, X, Y, H, **_tols(args))
    out = {
        "value": rep.value,
        "breakdown": [rep.d2f_term, rep.alpha_term, rep.beta_term],
        "critical": rep.critical,
    }
    return out, _echo(f=args.f, X=X, Y=Y, H=H), list(rep.warnings)


def cmd_nuclear_epi(args):
    X = _load_matrix(args.X, header=args.header)
    Om = _load_matrix(args.Omega, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    return {"value": oimf.nuclear_second_epi(X, Om, H, **_tols(args))}, \
        _echo(X=X, Omega=Om, H=H)


def cmd_psi(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    out = {"subderivative": oimf.nuclear_psi_subderivative(X, H,
                                                           **_tols(args))}
    echo = _echo(X=X, H=H)
    if args.Omega:
        Om = _load_matrix(args.Omega, header=args.header)
        out["second_epi"] = oimf.nuclear_psi_second_epi(X, Om, H,
                                                        **_tols(args))
        echo["Omega"] = Om
    return out, echo


def cmd_phi2(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    return {"value": oimf.nuclear_phi_second_diff(X, H, **_tols(args))}, \
        _echo(X=X, H=H)


def cmd_tangent(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    delta = oimf.set_by_name(args.set)
    W = _load_matrix(args.W, header=args.header) if args.W else None
    ok = oimf.invariant_tangent_contains(delta, X, H, order=args.order,
                                         W=W, **_tols(args))
    echo = _echo(set=args.set, X=X, H=H, order=args.order)
    if W is not None:
        echo["W"] = W
    return {"contains": ok}, echo


def cmd_distance(args):
    X = _load_matrix(args.X, header=args.header)
    delta = oimf.set_by_name(args.set)
    d, nearest = oimf.invariant_set_distance(delta, X)
    return {"distance": d, "nearest": nearest}, _echo(set=args.set, X=X)


def _oracle_target(args, X):
    if args.target == "composite":
        f = absym.spec_by_name(args.f)
        return lambda M: oimf.F_eval(f, M)
    if args.target == "psi":
        # freeze the zero-block split at the base point's rank
        s = np.linalg.svd(X, compute_uv=False)
        r0 = int(np.sum(s > args.tol_rank * max(1.0, s[0])))
        return lambda M: oimf.nuclear_psi_eval(M, base_rank=r0)
    raise UsageError(f"unknown oracle target {args.target!r}")


def cmd_oracle(args):
    X = _load_matrix(args.X, header=args.header)
    H = _load_matrix(args.H, header=args.header)
    cfg = oracles.OracleConfig(
        tau_grid=tuple(args.tau_grid), samples_per_tau=args.samples,
        radius_c=args.radius_c,
        seed=args.seed if args.seed is not None else 0,
        include_guided=not args.no_guided)
    g = _oracle_target(args, X)
    echo = _echo(kind=args.kind, target=args.target, f=args.f, X=X, H=H,
                 seed=cfg.seed, tau_grid=list(cfg.tau_grid),
                 samples=cfg.samples_per_tau, radius_c=cfg.radius_c)
    if args.kind == "parabolic":
        W = _load_matrix(args.W, header=args.header) if args.W \
            else np.zeros_like(X)
        if args.target == "composite":
            f = absym.spec_by_name(args.f)
            dgxw = oimf.F_subderivative(f, X, H, **_tols(args))
        else:
            dgxw = oimf.nuclear_psi_subderivative(X, H, **_tols(args))
        vals = oracles.parabolic_quotient(g, X, H, dgxw, W, cfg)
        rows = list(zip(cfg.tau_grid, vals))
        out = {"quotients": rows, "estimate": vals[-1], "dgxw": dgxw}
        echo["W"] = W
    else:
        if not args.Y:
            raise UsageError(f"oracle --kind {args.kind} requires --Y")
        Y = _load_matrix(args.Y, header=args.header)
        echo["Y"] = Y
        if args.kind == "fixed":
            vals = oracles.quotient2_fixed(g, X, Y, H, cfg)
            rows = list(zip(cfg.tau_grid, vals))
            out = {"quotients": rows, "estimate": vals[-1]}
        elif args.kind == "liminf":
            guides = oimf.guided_offsets(X, H, **_tols(args)) \
                if not args.no_guided else ()
            rows = oracles.liminf_table(g, X, Y, H, cfg, guides)
            out = {"quotients": rows, "estimate": rows[-1][1]}
        else:
            raise UsageError(f"unknown oracle kind {args.kind!r}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("tau,quotient\n")
            for tau, q in out["quotients"]:
                fh.write(f"{tau:.17g},{q:.17g}\n")
    return out, echo


def cmd_certify(args):
    p, X0, sampling, raw = load_problem(args.problem)
    cfg = SamplingConfig(
        n_samples=args.n_samples or sampling.get("n_samples", 200),
        min_samples=args.min_samples or sampling.get("min_samples", 50),
        seed=args.seed if args.seed is not None else sampling.get("seed", 0))
    cert = run_certify(p, X0, cfg)
    out = {
        "verdict": cert.verdict,
        "stationarity_residual": cert.stationarity_residual,
        "is_stationary": cert.is_stationary,
        "n_samples": len(cert.samples),
        "min_curvature": cert.min_curvature,
        "growth_constant_observed": cert.growth_constant_observed,
        "counterexample": cert.counterexample,
    }
    return out, {"problem": raw, "n_samples": cfg.n_samples,
                 "min_samples": cfg.min_samples, "seed": cfg.seed}


def cmd_growth(args):
    p, X0, sampling, raw = load_problem(args.problem)
    seed = args.seed if args.seed is not None else sampling.get("seed", 0)
    g = quadratic_growth_probe(p, X0, args.eps, args.n_samples,
                                           seed)
    return {"growth": g}, {"problem": raw, "eps": args.eps,
                           "n_samples": args.n_samples, "seed": seed}


# -- parser ----------------------------------------------------------------------

def _add_common(sp, *names):
    sp.add_argument("--header", action="store_true",
                    help="skip one header line in matrix CSV files")
    for name in names:
        sp.add_argument(f"--{name}", required=True)


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

    sp = sub.add_parser("eval")
    _add_common(sp, "f", "X")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("deriv1")
    _add_common(sp, "X", "H")
    sp.set_defaults(fn=cmd_deriv1)

    sp = sub.add_parser("deriv2")
    _add_common(sp, "X", "H", "W")
    sp.set_defaults(fn=cmd_deriv2)

    sp = sub.add_parser("subderiv")
    _add_common(sp, "f", "X", "H")
    sp.set_defaults(fn=cmd_subderiv)

    sp = sub.add_parser("second-subderiv")
    _add_common(sp, "f", "X", "Y", "H")
    sp.set_defaults(fn=cmd_second_subderiv)

    sp = sub.add_parser("nuclear-epi")
    _add_common(sp, "X", "Omega", "H")
    sp.set_defaults(fn=cmd_nuclear_epi)

    sp = sub.add_parser("psi")
    _add_common(sp, "X", "H")
    sp.add_argument("--Omega", default=None)
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("phi2")
    _add_common(sp, "X", "H")
    sp.set_defaults(fn=cmd_phi2)

    sp = sub.add_parser("tangent")
    _add_common(sp, "set", "X", "H")
    sp.add_argument("--order", type=int, default=1, choices=(1, 2))
    sp.add_argument("--W", default=None)
    sp.set_defaults(fn=cmd_tangent)

    sp = sub.add_parser("distance")
    _add_common(sp, "set", "X")
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("oracle")
    _add_common(sp, "X", "H")
    sp.add_argument("--kind", required=True,
                    choices=("fixed", "liminf", "parabolic"))
    sp.add_argument("--target", default="composite",
                    choices=("composite", "psi"))
    sp.add_argument("--f", default="l1")
    sp.add_argument("--Y", default=None)
    sp.add_argument("--W", default=None)
    sp.add_argument("--tau-grid", type=float, nargs="+",
                    default=[1e-1, 1e-2, 1e-3, 1e-4])
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--radius-c", type=float, default=2.0)
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
    sp.add_argument("--eps", type=float, default=1e-2)
    sp.add_argument("--n-samples", type=int, default=10_000)
    sp.set_defaults(fn=cmd_growth)

    return ap


def _error_json(code, exc):
    return dumps_17g({"schema": SCHEMA, "error": type(exc).__name__,
                      "message": str(exc), "exit_code": code})


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        result = args.fn(args)
        outputs, inputs = result[0], result[1]
        warnings_list = result[2] if len(result) > 2 else []
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "warnings": warnings_list,
        }
        _emit(report, args.out)
        return 0
    except UsageError as exc:
        print(_error_json(1, exc), file=sys.stderr)
        return 1
    except InputError as exc:
        print(_error_json(1, exc), file=sys.stderr)
        return 1
    except AssumptionError as exc:
        print(_error_json(2, exc), file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(_error_json(2, exc), file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(_error_json(3, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
