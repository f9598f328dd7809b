import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import specvar
from specvar.cli import dumps_17g, main, parse_float_field
from specvar.matrix_core import write_matrix_csv

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def write(tmp_path, name, M):
    p = tmp_path / name
    write_matrix_csv(p, np.asarray(M, dtype=float))
    return str(p)


def run(tmp_path, *argv, expect=0):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), *argv])
    assert code == expect, f"exit {code} != {expect}"
    if code == 0:
        with open(out) as fh:
            return json.load(fh)
    return None


class TestSerializer:
    def test_17_digits_roundtrip(self):
        vals = [1 / 3, math.pi, 1e-300, -2.5e17, 0.1]
        text = dumps_17g({"v": vals})
        parsed = json.loads(text)
        assert [parse_float_field(v) for v in parsed["v"]] == vals

    def test_infinities_as_strings(self):
        text = dumps_17g({"a": math.inf, "b": -math.inf, "c": math.nan})
        parsed = json.loads(text)
        assert parsed["a"] == "inf" and parsed["b"] == "-inf"
        assert parsed["c"] == "nan"
        assert parse_float_field(parsed["a"]) == math.inf

    def test_nested_arrays(self):
        text = dumps_17g({"M": np.eye(2), "t": (1, 2.0, "s", None, True)})
        parsed = json.loads(text)
        assert parsed["M"] == [[1.0, 0.0], [0.0, 1.0]]
        assert parsed["t"] == [1, 2.0, "s", None, True]


class TestCommands:
    def test_deriv1_identity(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([2.0, 1.0]))
        h = write(tmp_path, "h.csv", np.eye(2))
        rep = run(tmp_path, "deriv1", "--X", x, "--H", h)
        assert rep["schema"] == "specvar/1"
        assert rep["outputs"]["sigma_dir1"] == [1.0, 1.0]

    def test_eval_nuclear(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([2.0, 1.0]))
        rep = run(tmp_path, "eval", "--f", "l1", "--X", x)
        assert rep["outputs"]["value"] == 3.0

    def test_second_subderiv_worked_case(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.eye(2))
        h = write(tmp_path, "h.csv", SWAP)
        rep = run(tmp_path, "second-subderiv", "--f", "l1", "--X", x,
                  "--Y", y, "--H", h)
        out = rep["outputs"]
        assert out["critical"] is True
        assert abs(out["value"]) <= 1e-10
        np.testing.assert_allclose(out["breakdown"], [0.0, 2.0, -2.0],
                                   atol=1e-10)

    def test_second_subderiv_infinite_value(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.eye(2))
        h = write(tmp_path, "h.csv", np.diag([0.0, -1.0]))
        rep = run(tmp_path, "second-subderiv", "--f", "l1", "--X", x,
                  "--Y", y, "--H", h)
        assert rep["outputs"]["value"] == "inf"
        assert rep["outputs"]["critical"] is False

    def test_psi_and_phi(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        h = write(tmp_path, "h.csv", SWAP)
        om = write(tmp_path, "om.csv", np.diag([0.0, 1.0]))
        rep = run(tmp_path, "psi", "--X", x, "--H", h, "--Omega", om)
        assert abs(rep["outputs"]["subderivative"]) <= 1e-12
        assert rep["outputs"]["second_epi"] == -2.0
        rep = run(tmp_path, "phi2", "--X", x, "--H", h)
        assert rep["outputs"]["value"] == pytest.approx(2.0, abs=1e-12)

    def test_nuclear_epi(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        om = write(tmp_path, "om.csv", np.eye(2))
        h = write(tmp_path, "h.csv", SWAP)
        rep = run(tmp_path, "nuclear-epi", "--X", x, "--Omega", om,
                  "--H", h)
        assert abs(rep["outputs"]["value"]) <= 1e-10

    @pytest.mark.parametrize("omega", [
        np.diag([0.5, 0.5]),                            # top block not I
        np.eye(2) + np.outer([1.0, 0.0], [0.0, 1.0]),   # couples blocks
        np.diag([1.0, 1.5]),                            # outside the ball
    ])
    def test_nuclear_epi_not_a_subgradient(self, tmp_path, capsys, omega):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        om = write(tmp_path, "om.csv", omega)
        h = write(tmp_path, "h.csv", SWAP)
        assert main(["nuclear-epi", "--X", x, "--Omega", om,
                     "--H", h]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotASubgradient" and err["exit_code"] == 2

    def test_tangent_and_distance(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([3.0, 0.5]))
        h = write(tmp_path, "h.csv", np.diag([-1.0, 0.0]))
        rep = run(tmp_path, "distance", "--set", "spectral-ball:1", "--X", x)
        assert rep["outputs"]["distance"] == pytest.approx(2.0)
        x2 = write(tmp_path, "x2.csv", np.diag([1.0, 0.0]))
        rep = run(tmp_path, "tangent", "--set", "spectral-ball:1",
                  "--X", x2, "--H", h)
        assert rep["outputs"]["contains"] is True

    def test_oracle_fixed_with_csv(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.diag([0.0, 1.0]))
        h = write(tmp_path, "h.csv", SWAP)
        csv = tmp_path / "table.csv"
        rep = run(tmp_path, "oracle", "--kind", "fixed", "--target", "psi",
                  "--X", x, "--Y", y, "--H", h,
                  "--tau-grid", "1e-2", "1e-3", "--csv", str(csv))
        assert rep["outputs"]["estimate"] == pytest.approx(2.0, abs=0.05)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "tau,quotient"
        assert len(lines) == 3

    def test_oracle_liminf_guided(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.diag([0.0, 1.0]))
        h = write(tmp_path, "h.csv", SWAP)
        rep = run(tmp_path, "--seed", "5", "oracle", "--kind", "liminf",
                  "--target", "psi", "--X", x, "--Y", y, "--H", h,
                  "--tau-grid", "1e-2", "1e-3")
        assert rep["outputs"]["estimate"] == pytest.approx(-2.0, abs=0.05)

    def test_oracle_parabolic(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        h = write(tmp_path, "h.csv", SWAP)
        rep = run(tmp_path, "oracle", "--kind", "parabolic", "--f", "l1",
                  "--X", x, "--H", h, "--tau-grid", "1e-2", "1e-3")
        assert rep["outputs"]["estimate"] == pytest.approx(4.0, abs=0.05)

    def test_deriv2_readme_example(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        h = write(tmp_path, "h.csv", SWAP)
        w = write(tmp_path, "w.csv", np.zeros((2, 2)))
        out = run(tmp_path, "deriv2", "--X", x, "--H", h, "--W", w)["outputs"]
        assert out == {"sigma_dir1": [0.0, 0.0], "sigma_dir2": [2.0, 2.0]}

    def test_oracle_parabolic_psi_reads_psi_subderivative(self, tmp_path):
        from specvar.oimf import nuclear_psi_subderivative
        X, H = np.diag([1.0, 0.0]), np.array([[0.3, 1.0], [1.0, -0.5]])
        rep = run(tmp_path, "oracle", "--kind", "parabolic", "--target",
                  "psi", "--X", write(tmp_path, "x.csv", X),
                  "--H", write(tmp_path, "h.csv", H), "--tau-grid", "1e-2")
        assert rep["outputs"]["dgxw"] == nuclear_psi_subderivative(X, H)
        assert rep["outputs"]["dgxw"] == pytest.approx(0.5, abs=1e-15)


def make_problem(tmp_path, kind="soft"):
    if kind == "soft":
        b = write(tmp_path, "b.csv", np.diag([3.0, 1.0, 0.2]))
        x0 = write(tmp_path, "x0.csv", np.diag([2.5, 0.5, 0.0]))
        problem = {
            "schema": "specvar/1",
            "f": "l1",
            "weight": 0.5,
            "X0": "x0.csv",
            "psi": {"kind": "half-squared-distance", "B": "b.csv"},
        }
    else:
        write(tmp_path, "b.csv", np.diag([2.5, 1.5]))
        write(tmp_path, "e.csv", np.array([[0.0, 1.0], [-1.0, 0.0]]))
        write(tmp_path, "x0.csv", np.diag([2.0, 1.0]))
        problem = {
            "schema": "specvar/1",
            "f": "l1",
            "weight": 0.5,
            "X0": "x0.csv",
            "psi": {"kind": "quadratic-minus-rank1", "B": "b.csv",
                    "E": "e.csv", "gamma": 1.0},
        }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


class TestCertifyCommands:
    def test_certify_soft_threshold(self, tmp_path):
        prob = make_problem(tmp_path, "soft")
        rep = run(tmp_path, "certify", "--problem", prob,
                  "--n-samples", "120", "--min-samples", "100")
        out = rep["outputs"]
        assert out["verdict"] == "sufficient-evidence"
        assert out["min_curvature"] >= 0.9
        assert out["stationarity_residual"] <= 1e-9

    def test_certify_saddle(self, tmp_path):
        prob = make_problem(tmp_path, "saddle")
        rep = run(tmp_path, "certify", "--problem", prob,
                  "--n-samples", "60", "--min-samples", "20")
        out = rep["outputs"]
        assert out["verdict"] == "necessary-violated"
        assert out["counterexample"] is not None

    def test_certify_zero_samples(self, tmp_path):
        prob = make_problem(tmp_path, "soft")
        rep = run(tmp_path, "certify", "--problem", prob,
                  "--n-samples", "0", "--min-samples", "0")
        assert rep["inputs"]["n_samples"] == 0
        assert rep["inputs"]["min_samples"] == 0
        assert rep["outputs"]["n_samples"] == 0

    def test_growth(self, tmp_path):
        prob = make_problem(tmp_path, "soft")
        rep = run(tmp_path, "growth", "--problem", prob, "--eps", "1e-2",
                  "--n-samples", "2000")
        assert rep["outputs"]["growth"] >= 0.25

    @pytest.mark.parametrize("kind", ["soft", "saddle"])
    def test_certify_reports_arc_quotient(self, tmp_path, kind):
        # the arcs descend at the saddle and grow by about q / 2 = 0.5 at
        # the soft threshold; the ball probe does not run by default
        prob = make_problem(tmp_path, kind)
        rep = run(tmp_path, "certify", "--problem", prob)
        out = rep["outputs"]
        if kind == "soft":
            assert abs(out["min_arc_quotient"] - 0.5) <= 1e-3
        else:
            assert out["min_arc_quotient"] < 0
        assert out["growth_constant_observed"] == "inf"
        assert sorted(rep["inputs"]) == ["min_samples", "n_samples",
                                         "problem", "seed"]

    # outputs of the growth command at --seed 3, --n-samples 2000 (numpy
    # 2.4, OpenBLAS 0.3.31 on x86-64; another LAPACK may round the SVDs
    # differently)
    @pytest.mark.parametrize("kind, growth", [
        ("soft", 0.702098869511256), ("saddle", -0.32640769157650124)])
    def test_growth_pinned(self, tmp_path, kind, growth):
        prob = make_problem(tmp_path, kind)
        rep = run(tmp_path, "--seed", "3", "growth", "--problem", prob,
                  "--n-samples", "2000")
        assert rep["outputs"] == {"growth": growth}
        assert rep["inputs"]["eps"] == 1e-2


class TestParserReuse:
    def test_calls_in_a_row_match_fresh_processes(self, tmp_path, capfd):
        # one parser serves every main call of a process: a usage error
        # and then a good run print what two fresh processes print
        X = write(tmp_path, "x.csv", np.diag([2.0, 1.0]))
        H = write(tmp_path, "h.csv", SWAP)
        calls = [["deriv1", "--X", X], ["deriv1", "--X", X, "--H", H]]
        in_process = []
        for argv in calls:
            code = main(argv)
            in_process.append((code, *capfd.readouterr()))
        env = {**os.environ,
               "PYTHONPATH": str(Path(specvar.__file__).parents[1])}
        fresh = [subprocess.run(
            [sys.executable, "-c", "import sys; from specvar.cli import "
             "main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, timeout=120)
            for argv in calls]
        assert in_process == [(p.returncode, p.stdout, p.stderr)
                              for p in fresh]
        assert [code for code, _, _ in in_process] == [1, 0]


class TestErrorChannel:
    def test_usage_error_exit_1(self, tmp_path, capsys):
        assert main(["eval", "--f", "l1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 1

    def test_unknown_f_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.eye(2))
        assert main(["eval", "--f", "l99", "--X", x]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadK"

    def test_assumption_error_exit_2(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.5]))
        y = write(tmp_path, "y.csv", SWAP)
        h = write(tmp_path, "h.csv", np.eye(2))
        assert main(["second-subderiv", "--f", "l1", "--X", x, "--Y", y,
                     "--H", h]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NoSimultaneousGauge"
        assert err["exit_code"] == 2

    def test_non_integer_kyfan_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.eye(2))
        assert main(["eval", "--f", "kyfan:x", "--X", x]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BadK" and err["exit_code"] == 1

    def test_non_numeric_ball_radius_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        h = write(tmp_path, "h.csv", np.eye(2))
        assert main(["tangent", "--set", "spectral-ball:abc", "--X", x,
                     "--H", h]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeError" and err["exit_code"] == 1

    def test_problem_json_list_exit_1(self, tmp_path, capsys):
        prob = tmp_path / "problem.json"
        prob.write_text(json.dumps([{"f": "l1"}]))
        assert main(["certify", "--problem", str(prob)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1

    @pytest.mark.parametrize("kind, key", [
        ("soft", "f"), ("soft", "psi"), ("soft", "X0"),
        ("soft", "psi.kind"), ("soft", "psi.B"),
        ("saddle", "psi.B"), ("saddle", "psi.E"),
        ("least-squares", "psi.A"), ("least-squares", "psi.b"),
    ])
    def test_problem_missing_key_exit_1(self, tmp_path, capsys, kind, key):
        prob = make_problem(tmp_path, "soft" if kind == "least-squares"
                            else kind)
        d = json.loads(open(prob).read())
        if kind == "least-squares":
            d["psi"] = {"kind": "least-squares", "A": [np.eye(3).tolist()],
                        "b": [1.0]}
        *parents, last = key.split(".")
        target = d
        for k in parents:
            target = target[k]
        del target[last]
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main(["certify", "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert repr(last) in err["message"]

    @pytest.mark.parametrize("psi, message", [
        ({"kind": "half-squared-distance", "B": [1.0, 2.0]},
         "B must be 2-dimensional, got ndim=1"),
        ({"kind": "quadratic-minus-rank1", "B": [1.0, 2.0], "E": "e.csv"},
         "B must be 2-dimensional, got ndim=1"),
        ({"kind": "least-squares", "A": [[1.0, 2.0]], "b": [1.0]},
         "A must be 3-dimensional, got ndim=2"),
        ({"kind": "least-squares", "A": [np.eye(2).tolist()], "b": [[1.0]]},
         "b must be 1-dimensional, got ndim=2"),
        ({"kind": "quadratic-minus-rank1", "B": "b.csv",
          "E": np.eye(3).tolist()}, "E (3, 3) and B (2, 2) differ"),
    ], ids=["half-squared-distance", "quadratic-minus-rank1",
            "least-squares-A", "least-squares-b", "quadratic-minus-rank1-E"])
    def test_malformed_psi_is_a_usage_error(self, tmp_path, capsys, psi,
                                            message):
        # every psi kind reports its constructor's shape check one way
        prob = make_problem(tmp_path, "saddle")
        d = json.loads(open(prob).read())
        d["psi"] = psi
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main(["certify", "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"] == message

    @pytest.mark.parametrize("key, value, error, message", [
        ("psi.B", [[1.0, 2.0], [3.0]], "UsageError", "B is not an array"),
        ("psi.B", [["a", "b"]], "UsageError", "B is not an array"),
        ("X0", [[2.0, 0.0], [1.0]], "UsageError", "X0 is not an array"),
        ("psi", {"kind": "least-squares", "A": [], "b": []}, "UsageError",
         "A must be 3-dimensional, got ndim=1"),
        ("psi", {"kind": "least-squares", "A": [np.eye(2).tolist(),
                                                np.eye(3).tolist()],
                 "b": [1.0, 2.0]}, "UsageError", "A is not an array"),
        ("psi", {"kind": "least-squares", "A": [[[1.0], [2.0, 3.0]]],
                 "b": [1.0]}, "UsageError", "A is not an array"),
    ], ids=["ragged-B", "text-B", "ragged-X0", "empty-A", "mixed-A",
            "ragged-A-entry"])
    def test_malformed_inline_matrix_exit_1(self, tmp_path, capfd, key,
                                            value, error, message):
        # numpy's conversion errors end as the JSON error, not a traceback
        prob = make_problem(tmp_path, "saddle")
        d = json.loads(open(prob).read())
        *parents, last = key.split(".")
        target = d
        for k in parents:
            target = target[k]
        target[last] = value
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main(["certify", "--problem", prob]) == 1
        err = json.loads(capfd.readouterr().err)   # and nothing else
        assert err["error"] == error and err["exit_code"] == 1
        assert err["message"].startswith(message)

    @pytest.mark.parametrize("command", ["certify", "growth"])
    @pytest.mark.parametrize("psi, X0, message", [
        (None, np.ones((2, 3)), "X0 (2, 3) and B (2, 2) differ"),
        (None, "x0-3x3.csv", "X0 (3, 3) and B (2, 2) differ"),
        ({"kind": "least-squares", "A": [np.eye(2).tolist()], "b": [1.0]},
         np.eye(3), "X0 (3, 3) and A[0] (2, 2) differ"),
    ], ids=["inline-B", "csv-B", "least-squares-A"])
    def test_X0_shape_differs_from_psi_exit_1(self, tmp_path, capfd,
                                              command, psi, X0, message):
        # psi's data fixes the shape of X0, checked before any psi call
        prob = make_problem(tmp_path, "saddle")
        write(tmp_path, "x0-3x3.csv", np.eye(3))
        d = json.loads(open(prob).read())
        d["psi"] = d["psi"] if psi is None else psi
        d["X0"] = X0 if isinstance(X0, str) else X0.tolist()
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main([command, "--problem", prob]) == 1
        err = json.loads(capfd.readouterr().err)   # and nothing else
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"] == message

    @pytest.mark.parametrize("command", ["certify", "growth"])
    @pytest.mark.parametrize("sampling, field", [
        ([1], "sampling"), ({"seed": 1.5}, "seed"), ({"seed": "x"}, "seed"),
        ({"seed": -2}, "seed"), ({"n_samples": "abc"}, "n_samples"),
        ({"min_samples": True}, "min_samples"),
        ({"n_samples": 5, "seeds": 1}, "sampling"),
    ])
    def test_bad_sampling_exit_1(self, tmp_path, capsys, command, sampling,
                                 field):
        prob = make_problem(tmp_path, "soft")
        d = json.loads(open(prob).read())
        d["sampling"] = sampling
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main([command, "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"].startswith(field)

    @pytest.mark.parametrize("command", ["certify", "growth", "oracle"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, command):
        if command == "oracle":
            x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
            argv = ["oracle", "--kind", "fixed", "--X", x, "--Y", x,
                    "--H", x]
        else:
            argv = [command, "--problem", make_problem(tmp_path, "soft")]
        assert main(["--seed=-1", *argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"].startswith("seed")

    @pytest.mark.parametrize("command", ["certify", "growth"])
    @pytest.mark.parametrize("key, value", [
        ("weight", "abc"), ("weight", None), ("weight", math.inf),
        ("weight", 0), ("weight", -0.5), ("weight", True),
        ("gamma", "abc"), ("gamma", None), ("gamma", -math.inf),
        ("gamma", math.nan),
    ])
    def test_bad_problem_number_exit_1(self, tmp_path, capsys, command, key,
                                       value):
        prob = make_problem(tmp_path, "saddle")
        d = json.loads(open(prob).read())
        (d["psi"] if key == "gamma" else d)[key] = value
        with open(prob, "w") as fh:
            json.dump(d, fh)   # Infinity and NaN, as Python's json reads
        assert main([command, "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"].startswith(key)

    @pytest.mark.parametrize("argv, field", [
        (["--radius-c", "nan"], "radius_c"),
        (["--radius-c", "inf"], "radius_c"),
        (["--radius-c", "-1"], "radius_c"),
        (["--tau-grid", "0.1", "nan"], "tau_grid"),
        (["--tau-grid", "inf", "0.1"], "tau_grid"),
    ])
    def test_bad_oracle_plan_exit_1(self, tmp_path, capfd, argv, field):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["oracle", "--kind", "fixed", "--X", x, "--Y", x,
                         "--H", x, *argv]) == 1
        assert not caught
        err = json.loads(capfd.readouterr().err)   # and nothing else
        assert err["error"] == "ShapeError" and err["exit_code"] == 1
        assert err["message"].startswith(field)

    @pytest.mark.parametrize("eps", ["0", "nan", "inf", "-1"])
    def test_bad_growth_eps_exit_1(self, tmp_path, capfd, eps):
        prob = make_problem(tmp_path, "soft")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["growth", "--problem", prob, f"--eps={eps}",
                         "--n-samples", "50"]) == 1
        assert not caught
        err = json.loads(capfd.readouterr().err)   # and nothing else
        assert err["error"] == "ShapeError" and err["exit_code"] == 1
        assert "eps" in err["message"]

    @pytest.mark.parametrize("H", [
        np.diag([1.7e308, -1.7e308]),
        np.array([[1.7e308, 1e308], [1e308, 1.7e308]]),
    ])
    @pytest.mark.parametrize("command", ["second-subderiv", "nuclear-epi",
                                         "phi2"])
    def test_overflowing_direction_exit_1(self, tmp_path, capsys, command,
                                          H):
        # ||H||^2 overflows: d2F, d2||.||_* and phi'' have no value here
        # (the true one is 0), so NonFinite, never NaN or a wrong +inf
        x = write(tmp_path, "x.csv", np.diag([2.0, 1.0]))
        y = write(tmp_path, "y.csv", np.eye(2))
        h = write(tmp_path, "h.csv", H)
        argv = {"second-subderiv": ["--f", "l1", "--Y", y],
                "nuclear-epi": ["--Omega", y], "phi2": []}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--X", x, *argv, "--H", h]) == 1
        assert not caught
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFinite" and err["exit_code"] == 1

    @pytest.mark.parametrize("X", [np.diag([2.0, 1.0]), np.diag([2.0, 0.0])],
                             ids=["rank-2", "rank-1"])
    @pytest.mark.parametrize("command, argv, second_order", [
        ("deriv1", [], False),
        ("deriv2", ["--W", "i"], True),
        ("deriv2", ["--W", "i", "--H", "near-max"], True),
        ("subderiv", ["--f", "l1"], False),
        ("second-subderiv", ["--f", "l1", "--Y", "i"], True),
        ("nuclear-epi", ["--Omega", "i"], True),
        ("psi", ["--Omega", "om"], True),
        ("phi2", [], True),
        ("tangent", ["--set", "free", "--order", "1"], False),
        ("tangent", ["--set", "free", "--order", "2"], True),
    ], ids=["deriv1", "deriv2", "deriv2-near-max", "subderiv",
            "second-subderiv", "nuclear-epi", "psi", "phi2", "tangent-1",
            "tangent-2"])
    def test_overflow_sweep(self, tmp_path, capsys, command, argv,
                            second_order, X):
        # every command that reads H, at H = 1e200 ones: a first-order
        # output is finite; a second-order one squares H, so it has no
        # value and exits 1 with NonFinite, never "inf" or "nan".  The
        # last --H wins: near-max's squares are finite, twice them not
        files = {"i": write(tmp_path, "i.csv", np.eye(2)),
                 "om": write(tmp_path, "om.csv", np.diag([0.0, 1.0])),
                 "near-max": write(tmp_path, "near.csv", np.array(
                     [[0.0, 1.75e154], [-1.75e154, 0.0]]))}
        x = write(tmp_path, "x.csv", X)
        h = write(tmp_path, "h.csv", np.full((2, 2), 1e200))
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(out), command, "--X", x, "--H", h,
                         *[files.get(a, a) for a in argv]])
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        if command == "psi" and X[1, 1]:
            # the zero-cluster sum has no zero block at full rank, for
            # every H: an assumption failure, not an overflow
            assert (code, json.loads(err)["error"]) == (2, "FullRank")
        elif second_order:
            assert code == 1
            assert json.loads(err)["error"] == "NonFinite"
        else:
            assert code == 0 and err == ""
            text = json.dumps(json.loads(out.read_text())["outputs"])
            assert not any(s in text for s in ('"inf"', '"-inf"', '"nan"'))

    def test_problem_psi_not_object_exit_1(self, tmp_path, capsys):
        prob = make_problem(tmp_path, "soft")
        d = json.loads(open(prob).read())
        d["psi"] = "half-squared-distance"
        with open(prob, "w") as fh:
            json.dump(d, fh)
        assert main(["certify", "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1

    def test_nan_tolerance_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([2.0, 1.0]))
        h = write(tmp_path, "h.csv", SWAP)
        assert main(["--tol-cluster", "nan", "deriv1", "--X", x,
                     "--H", h]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeError" and err["exit_code"] == 1

    @pytest.mark.parametrize("argv", [
        ["nuclear-epi", "--X", "x", "--Omega", "big", "--H", "h"],
        ["psi", "--X", "x", "--H", "big"],
        ["psi", "--X", "x", "--H", "h", "--Omega", "big"],
        ["oracle", "--kind", "fixed", "--X", "x", "--Y", "y", "--H", "big",
         "--tau-grid", "1e-2"],
        ["oracle", "--kind", "fixed", "--X", "x", "--Y", "big", "--H", "h",
         "--tau-grid", "1e-2"],
        ["oracle", "--kind", "fixed", "--X", "x", "--Y", "row", "--H", "h",
         "--tau-grid", "1e-2"],
        ["oracle", "--kind", "liminf", "--X", "x", "--Y", "row", "--H", "h",
         "--tau-grid", "1e-2"],
    ])
    def test_shape_mismatch_exit_1(self, tmp_path, capsys, argv):
        files = {"x": write(tmp_path, "x.csv", np.diag([1.0, 0.0])),
                 "y": write(tmp_path, "y.csv", np.eye(2)),
                 "h": write(tmp_path, "h.csv", SWAP),
                 "big": write(tmp_path, "big.csv", np.eye(3)),
                 "row": write(tmp_path, "row.csv", [[1.0, 2.0]])}
        assert main([files.get(a, a) for a in argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeError" and err["exit_code"] == 1

    @pytest.mark.parametrize("flag, argv", [
        ("--Y", ["--kind", "fixed", "--Y", "row", "--H", "h"]),
        ("--Y", ["--kind", "liminf", "--Y", "row", "--H", "h"]),
        ("--W", ["--kind", "parabolic", "--f", "l1", "--H", "h",
                 "--W", "row"]),
        ("--H", ["--kind", "parabolic", "--f", "l1", "--H", "row"]),
    ])
    def test_oracle_shape_error_names_flag(self, tmp_path, capsys, flag,
                                           argv):
        files = {"h": write(tmp_path, "h.csv", SWAP),
                 "row": write(tmp_path, "row.csv", [[1.0, 2.0]])}
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        assert main(["oracle", "--X", x, "--tau-grid", "1e-2",
                     *[files.get(a, a) for a in argv]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ShapeError" and err["exit_code"] == 1
        assert err["message"].startswith(f"{flag} (1, 2) and --X (2, 2)")

    def test_oracle_liminf_without_Y_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        h = write(tmp_path, "h.csv", SWAP)
        assert main(["oracle", "--kind", "liminf", "--X", x, "--H", h]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert err["message"] == "oracle --kind liminf requires --Y"

    def test_oracle_unknown_kind_exit_1(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        assert main(["oracle", "--kind", "bogus", "--X", x, "--H", x]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UsageError" and err["exit_code"] == 1
        assert "bogus" in err["message"]

    def test_truncated_problem_json_exit_1(self, tmp_path, capsys):
        prob = make_problem(tmp_path, "soft")
        text = open(prob).read()
        with open(prob, "w") as fh:
            fh.write(text[:len(text) // 2])
        assert main(["certify", "--problem", prob]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "JSONDecodeError" and err["exit_code"] == 1

    def test_io_error_exit_3(self, capsys):
        assert main(["eval", "--f", "l1", "--X", "/nonexistent/x.csv"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3

    def test_overflow_writes_no_warning(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.diag([1e308, 1e308]))
        y = write(tmp_path, "y.csv", np.eye(2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["second-subderiv", "--f", "l1", "--X", x, "--Y", y,
                         "--H", y]) == 2
            err = capsys.readouterr().err
            assert main(["--out", str(tmp_path / "r.json"), "eval", "--f",
                         "l1", "--X", x]) == 0
        assert not caught
        assert json.loads(err) == {
            "schema": "specvar/1", "error": "AssumptionViolated",
            "message": "l1 not finite at sigma(X)", "exit_code": 2}
        assert capsys.readouterr().err == ""
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["outputs"]["value"] == "inf"

    def test_subderiv_overflow_is_inf_like_eval(self, tmp_path, capsys):
        x = write(tmp_path, "x.csv", np.eye(2))
        h = write(tmp_path, "h.csv", np.diag([1e308, 1e308]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sub = run(tmp_path, "subderiv", "--f", "l1", "--X", x, "--H", h)
            ev = run(tmp_path, "eval", "--f", "l1", "--X", h)
        assert not caught
        assert capsys.readouterr().err == ""
        assert sub["outputs"]["value"] == ev["outputs"]["value"] == "inf"


class TestRoundTrip:
    def test_rerun_from_echoed_inputs(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.eye(2))
        h = write(tmp_path, "h.csv", SWAP)
        rep = run(tmp_path, "second-subderiv", "--f", "l1", "--X", x,
                  "--Y", y, "--H", h)
        # feed the echoed matrices back through fresh CSV files
        x2 = write(tmp_path, "x2.csv", rep["inputs"]["X"])
        y2 = write(tmp_path, "y2.csv", rep["inputs"]["Y"])
        h2 = write(tmp_path, "h2.csv", rep["inputs"]["H"])
        rep2 = run(tmp_path, "second-subderiv", "--f", "l1", "--X", x2,
                   "--Y", y2, "--H", h2)
        assert rep["outputs"] == rep2["outputs"]

    def test_oracle_seeded_roundtrip(self, tmp_path):
        x = write(tmp_path, "x.csv", np.diag([1.0, 0.0]))
        y = write(tmp_path, "y.csv", np.eye(2))
        h = write(tmp_path, "h.csv", SWAP)
        args = ["--seed", "9", "oracle", "--kind", "liminf", "--f", "l1",
                "--X", x, "--Y", y, "--H", h, "--tau-grid", "1e-2", "1e-3"]
        rep1 = run(tmp_path, *args)
        rep2 = run(tmp_path, *args)
        assert rep1["outputs"] == rep2["outputs"]
