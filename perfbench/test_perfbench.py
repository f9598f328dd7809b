"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gauge, run, tracing, workloads  # noqa: E402

WORKLOADS = ("certify-mix", "deriv-sweep", "oracle-verify")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    runs = [result(bench("--workload", workload, "--seed", "7",
                         "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in res["metrics"].items()
               if k.endswith(".calls") or k == "certify.accept_ratio"}
              for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sv_calculus.direction_blocks.calls"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = result(bench("--workload", "oracle-verify", "--seed", "3",
                       "--seconds", "1", "--trace", "0"))
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert res["correct"] and res["attempted"] >= 11
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "deriv-sweep", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_highest_percentile_with_ten_above():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_each_job_lies_between_two_probes():
    t = gauge.Timings()
    t.before()
    t.after(0.5)
    t.before()          # the probe after the last job serves the next
    t.after(0.25)
    assert len(t.probes) == 3 and all(p > 0 for p in t.probes)
    t.probes = [1.0, 3.0, 2.0]
    assert t.relative() == [0.25, 0.125]   # both over median(1, 3, 2)
    t.seconds, t.probes = [4.0] * 3, [1.0, 2.0, 3.0, 9.0]
    assert t.relative() == [2.0, 1.6, 4.0 / 3.0]


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    tr.begin("outer")
    tr.begin("inner")
    tr.end()
    tr.end()
    (_, _, _, s_in, e_in), (_, parent, _, s_out, e_out) = (
        tr.spans[1], tr.spans[0])
    assert parent == -1 and tr.spans[1][1] == 0
    assert tr.self_s["outer"] == pytest.approx((e_out - s_out)
                                               - (e_in - s_in))
    assert tr.child_calls[("outer", "inner")] == 1


def test_tracer_patches_every_binding_and_restores_it():
    import specvar
    from specvar import matrix_core, oimf, sv_calculus

    original = matrix_core.svd_ordered
    tr = tracing.Tracer()
    tr.install()
    try:
        for ns in (specvar, matrix_core, oimf, sv_calculus):
            assert ns.svd_ordered.__wrapped__ is original
        sv_calculus.sigma_dir1(np.eye(3), np.ones((3, 3)))
    finally:
        tr.uninstall()
    assert matrix_core.svd_ordered is original
    assert tr.calls["sv_calculus.direction_blocks"] == 1


@pytest.mark.parametrize("workload", ["deriv-sweep", "oracle-verify"])
def test_checks_reject_a_wrong_second_order_value(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](tmp_path)
    wl.prepare(5)
    job = wl.jobs(5, 0)[0]
    out = list(wl.run(job, lambda spec: spec))
    assert wl.check(job, tuple(out)) is None
    if workload == "deriv-sweep":
        out[1] = out[1] + 0.1          # sigma''
    else:
        out[0] = type(out[0])(**{**out[0].__dict__,
                                 "value": out[0].value + 0.2})
    assert wl.check(job, tuple(out)) is not None


def test_certify_check_rejects_a_wrong_verdict(tmp_path):
    wl = workloads.CertifyMix(tmp_path)
    wl.prepare(5)
    job = next(j for j in wl.jobs(5, 0) if j.label == "saddle-6")
    cert = wl.run(job, lambda spec: spec)
    assert wl.check(job, cert) is None
    assert wl.check(job, type(cert)(**{**cert.__dict__,
                                       "verdict": "inconclusive"}))
