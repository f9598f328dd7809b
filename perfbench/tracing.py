"""In-memory span recorder wrapped around specvar's public functions.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces each traced function at every specvar module namespace that
binds it (``from .x import f`` copies the binding, so ``svd_ordered``
alone is bound in five namespaces) and ``Tracer.uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the durations of its direct
child spans; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from specvar.errors import SpecvarError

# (module, function) pairs whose calls and self time are reported.
TRACED = {
    "matrix_core": ("svd_ordered", "partition_values", "sym_eig_ordered"),
    "sv_calculus": ("direction_blocks", "sigma_dir2_from_blocks",
                    "min_direction_construct"),
    "oimf": ("simultaneous_gauge", "F_eval", "F_subderivative",
             "F_second_subderivative", "guided_offsets"),
    "oracles": ("quotient2_fixed", "liminf_table", "parabolic_quotient",
                "fd_gradient_check"),
    "certify": ("certify", "curvature", "stationarity_check",
                "quadratic_growth_probe"),
    "cli": ("main",),
}

# SpectralFunctionSpec hooks the workloads reach; traced as absym.hooks.<h>.
HOOKS = ("eval", "subderivative", "subdiff_contains", "subdiff_violation",
         "second_subderivative")

MODULES = ("matrix_core", "sv_calculus", "absym", "oimf", "oracles",
           "certify", "cli")


def traced_names():
    """Every span name that becomes a per-layer metric, in report order."""
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    return names + [f"absym.hooks.{h}" for h in HOOKS]


class Tracer:
    """Records spans (job, parent, name, start, end) and aggregates calls,
    self time, parent-child call counts and typed errors per module."""

    def __init__(self):
        self.spans = []
        self._stack = []          # [span id, name, start, child seconds]
        self.job = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.child_calls = Counter()   # (parent name, name) -> calls
        self.errors = Counter()
        self._patches = self._find_bindings()

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def end(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            self.child_calls[(parent[1], name)] += 1
        self.spans[sid] = (self.job, parent[0] if parent else -1, name,
                           start, end)
        self.calls[name] += 1
        self.self_s[name] += dur - child

    def _record_error(self, exc):
        if getattr(exc, "_perfbench_counted", False):
            return
        exc._perfbench_counted = True
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        origin = tb.tb_frame.f_globals.get("__name__", "") if tb else ""
        module = origin.rpartition(".")[2]
        if module not in MODULES:
            module = self._stack[-1][1].split(".")[0]
        self.errors[module] += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except SpecvarError as exc:
                self._record_error(exc)
                raise
            finally:
                self.end()
            # cli.main reports typed errors as exit codes instead of raising
            if name == "cli.main" and result != 0:
                self.errors["cli"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_spec(self, spec):
        """A copy of a SpectralFunctionSpec whose hooks record spans."""
        return dataclasses.replace(spec, **{
            h: self.wrap(f"absym.hooks.{h}", getattr(spec, h))
            for h in HOOKS if getattr(spec, h) is not None})

    def layer_metrics(self, rounds):
        """name -> (value, unit): calls and self time per traced round,
        typed errors per module, and the two derived ratios."""
        metrics = {}
        for name in traced_names():
            metrics[f"{name}.calls"] = (self.calls[name] / rounds,
                                        "count/round")
            metrics[f"{name}.self_s"] = (self.self_s[name] / rounds,
                                         "s/round")
        for mod in MODULES:
            metrics[f"{mod}.errors"] = (self.errors[mod], "count")

        def per_call(name):
            calls = self.calls[name]
            return self.self_s[name] / calls if calls else 0.0

        svd = per_call("matrix_core.svd_ordered")
        metrics["sv_calculus.direction_blocks.svd_ratio"] = (
            per_call("sv_calculus.direction_blocks") / svd if svd else 0.0,
            "ratio")
        # certify's accepted directions over its cone-membership tests
        tested = self.child_calls[("certify.certify", "oimf.F_subderivative")]
        accepted = self.child_calls[("certify.certify", "certify.curvature")]
        metrics["certify.accept_ratio"] = (
            accepted / tested if tested else 0.0, "ratio")
        return metrics

    # -- patching ------------------------------------------------------------

    def _find_bindings(self):
        namespaces = [sys.modules["specvar"]] + [
            importlib.import_module(f"specvar.{mod}") for mod in MODULES]
        patches = []
        for mod, fns in TRACED.items():
            owner = importlib.import_module(f"specvar.{mod}")
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapped = self.wrap(f"{mod}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is original:
                            patches.append((ns, attr, original, wrapped))
        return patches

    def install(self):
        for ns, attr, _, wrapped in self._patches:
            setattr(ns, attr, wrapped)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path):
        """One JSON array per span: job, id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (job, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([job, sid, parent, name, start, end]))
                fh.write("\n")
