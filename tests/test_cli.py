import json
import math
import warnings

import numpy as np
import pytest

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

    def test_growth(self, tmp_path):
        prob = make_problem(tmp_path, "soft")
        rep = run(tmp_path, "growth", "--problem", prob, "--eps", "1e-2",
                  "--n-samples", "2000")
        assert rep["outputs"]["growth"] >= 0.25


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
