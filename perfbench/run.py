"""specvar benchmark: one closed-loop caller issuing jobs back to back.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 20 \
        --trace 0

Workloads (see perfbench/workloads.py): ``certify-mix``, ``deriv-sweep``,
``oracle-verify``.  Every job's output is checked; a job that raises or
fails its check counts as failed, never as a crash.  Inputs come from
``--seed`` alone.  The process pins BLAS to one thread before numpy is
imported.

Rounds of the job mix run back to back until ``--seconds`` have passed
and the workload's minimum round count is reached.  Stdout gets an
environment line, a readable table and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Job costs are reported relative to a reference kernel timed just before
and after each job (see perfbench/gauge.py): on a shared host the wall
time of the same code swings by up to 1.9x for minutes at a time, the
relative cost by a few percent.  ``ref`` is the kernel's wall time.

``--trace 0`` reports the end-to-end metrics:
  setup_s        s       median of three set-ups, each a fresh
                         interpreter importing numpy and specvar, then
                         inputs from the seed, CLI problem files and one
                         warm-up job
  job_ref.p50    ref     median job cost (wall time over the kernel's)
  job_ref.tail   ref     highest percentile with 10 jobs above it (the
                         percentile and job count are printed in the
                         table)
  jobs_per_kref  1/kref  jobs per 1000 kernel times spent inside jobs;
                         input generation and output checks between jobs
                         are excluded
  ok_ratio       ratio   1 - fail_ratio (fail_ratio itself is 0 when
                         healthy; the table prints it)
  peak_rss_mb    MB      peak resident memory of the process

The table also prints the same job statistics in wall seconds
(``job_s.p50``, ``job_s.tail``, ``jobs_per_s``), ``fail_ratio`` and the
kernel's median and fastest wall time over the run.

``--trace 1`` alternates untraced and traced rounds and reports, per
traced round, ``<module>.<function>.calls`` and ``.self_s`` for every
traced function, ``<module>.errors`` (typed SpecvarErrors raised in that
module during traced rounds), ``sv_calculus.direction_blocks.svd_ratio``
(self time per call over ``svd_ordered`` time per call),
``certify.accept_ratio`` (``curvature`` calls over ``F_subderivative``
calls made from ``certify``; 0 where certify is not run) and
``trace.overhead`` (traced over untraced median job wall time).  The
spans are written to ``.perfbench/spans-<workload>.jsonl``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_ABOVE = 10
MAX_FAILURE_LINES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify-mix", "deriv-sweep", "oracle-verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread, set before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def import_specvar():
    """Import specvar from this checkout's src/ and nowhere else."""
    if not (SRC / "specvar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specvar sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import specvar

    if Path(specvar.__file__).resolve().parent != SRC / "specvar":
        raise SystemExit(f"perfbench: imported specvar from "
                         f"{specvar.__file__}, not from {SRC}")


def fresh_import_s():
    """Wall time of a fresh interpreter importing numpy and specvar."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, specvar"],
                   env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                   check=True, timeout=120)
    return time.perf_counter() - start


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "loop": "closed, 1 caller"}


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_ABOVE jobs
    above it; the maximum when there are too few jobs."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


class Runner:
    """Runs jobs one at a time and records wall time and failures."""

    def __init__(self, workload, tracer, timings):
        self.workload = workload
        self.tracer = tracer
        self.timings = timings               # untraced timed jobs
        self.traced_times = []
        self.attempted = 0
        self.failed = 0

    def run(self, job, traced=False, timed=True):
        tracer = self.tracer if traced else None
        wrap_spec = tracer.wrap_spec if tracer else (lambda spec: spec)
        if tracer:
            tracer.job = self.attempted
            tracer.begin(f"job.{job.label}")
        elif timed:
            self.timings.before()
        start = time.perf_counter()
        try:
            out = self.workload.run(job, wrap_spec)
            error = None
        except Exception as exc:  # a raising job is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end()
        if error is None:
            try:
                error = self.workload.check(job, out)
            except Exception as exc:  # malformed output fails the check
                error = f"check raised {type(exc).__name__}: {exc}"
        if timed:
            self.attempted += 1
            if traced:
                self.traced_times.append(elapsed)
            else:
                self.timings.after(elapsed)
            self.failed += error is not None
        if error is not None and self.failed <= MAX_FAILURE_LINES:
            print(f"perfbench: {job.label} failed: {error}", file=sys.stderr)
        return error is None


def end_to_end_metrics(setup_s, runner):
    """The reported metrics, and the wall-time figures the table shows
    beside them."""
    timings = runner.timings
    rel, secs = timings.relative(), timings.seconds
    rel_tail, pct = tail(rel)
    fail_ratio = runner.failed / runner.attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_ref.p50": (statistics.median(rel), "ref"),
        "job_ref.tail": (rel_tail, "ref"),
        "jobs_per_kref": (1000.0 * len(rel) / sum(rel), "1/kref"),
        "ok_ratio": (1.0 - fail_ratio, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    wall = {
        "job_s.p50": (statistics.median(secs), "s"),
        "job_s.tail": (tail(secs)[0], "s"),
        "jobs_per_s": (len(secs) / sum(secs), "1/s"),
        "fail_ratio": (fail_ratio, "ratio"),
        "ref_s.p50": (statistics.median(timings.probes), "s"),
        "ref_s.min": (min(timings.probes), "s"),
    }
    notes = {"job_ref.tail": f"p{pct:.1f} of {len(rel)} jobs",
             "job_s.tail": f"p{pct:.1f} of {len(secs)} jobs",
             "fail_ratio": f"{runner.failed}/{runner.attempted} failed"}
    return metrics, wall, notes


def print_table(metrics, wall, notes):
    for name, (value, unit) in {**metrics, **wall}.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<48} {value:<14.6g} {unit}{extra}")


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    import_specvar()
    import numpy as np

    from perfbench import gauge, tracing, workloads

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(workload, tracer, gauge.Timings())
        warm_ok = True
        setups = []
        for rep in range(SETUP_REPEATS):
            import_s = fresh_import_s()
            start = time.perf_counter()
            workload.prepare(args.seed)
            warm_ok &= runner.run(workload.warmup(args.seed, rep), timed=False)
            setups.append(import_s + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        min_rounds = 2 if args.trace else workload.min_rounds
        rounds = traced_rounds = 0
        start = time.perf_counter()
        while (rounds < min_rounds
               or time.perf_counter() - start < args.seconds):
            jobs = workload.jobs(args.seed, rounds)
            traced = bool(args.trace) and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                for job in jobs:
                    runner.run(job, traced)
            finally:
                if traced:
                    tracer.uninstall()
            rounds += 1
            traced_rounds += traced

        if args.trace:
            metrics = tracer.layer_metrics(traced_rounds)
            metrics["trace.overhead"] = (
                statistics.median(runner.traced_times)
                / statistics.median(runner.timings.seconds), "ratio")
            wall, notes = {}, {}
            tracer.write(out_dir / f"spans-{args.workload}.jsonl")
        else:
            metrics, wall, notes = end_to_end_metrics(setup_s, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(np)
    env.update(workload=args.workload, seed=args.seed, rounds=rounds,
               seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": env}))
    print_table(metrics, wall, notes)
    print(json.dumps({
        "correct": warm_ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
