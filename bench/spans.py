"""Spans around the public functions of each swarmcrit layer.

The benchmark replaces module attributes with timing wrappers, so no code
under ``src/`` carries instrumentation.  This works because every hot call
is looked up at call time: ``cli`` calls ``stability.critical_curve``, the
curve functions call ``critical_alpha`` / ``neutral_alpha`` and the probes
through module globals, ``pso.optimize`` calls ``init_swarm`` and
``pso_step`` the same way, and the writers are imported inside the methods
that use them.  ``harness`` binds ``optimize`` at import time, so that
binding is wrapped separately.

A span's duration excludes speed-probe samples taken while it was open,
and its self time is that duration minus the durations of its direct
child spans.  Fine-grained spans (``pso_step`` and cost evaluation, tens of
microseconds each) are aggregated in place; coarser ones are also kept as
(name, start, end, parent) records.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    child_calls: int = 0
    durations: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount


# span hooks: derive exact work counts from a wrapped call and its result


def _lyapunov(st, args, kwargs, est):
    st.bump("lane_steps", est.trials * (est.steps + est.burn_in))


def _escape(st, args, kwargs, res):
    st.bump("trials", res.trials)
    st.bump("undecided", round(res.p_undecided * res.trials))


def _point(st, args, kwargs, point):
    st.bump(point.status)


def _optimize(st, args, kwargs, res):
    st.bump("diverged", int(res.diverged))
    st.bump("evaluations", res.evaluations)


def _sweep(st, args, kwargs, grid):
    st.bump("cells", len(grid.cells))


def _evaluate(st, args, kwargs, out):
    fn, x = args[0], np.asarray(args[1])
    points = x.shape[0] if x.ndim == 2 else 1
    st.bump("points", points)
    st.bump("coords", points * fn.dim)


def _written(st, args, kwargs, out):
    st.bump("bytes", os.path.getsize(args[0]))


# (module, attribute, span name, hook, keep span records)
COARSE = [
    ("stability", "critical_alpha", "stability.critical_alpha", _point, True),
    ("stability", "neutral_alpha", "stability.neutral_alpha", _point, True),
    ("stability", "lyapunov_exponent", "stability.lyapunov_exponent", _lyapunov, True),
    ("stability", "escape_probability", "stability.escape_probability", _escape, True),
    ("pso", "optimize", "pso.optimize", _optimize, True),
    ("harness", "optimize", "pso.optimize", _optimize, True),
    ("harness", "run_sweep", "harness.run_sweep", _sweep, True),
]
FULL = COARSE + [
    ("pso", "pso_step", "pso.pso_step", None, False),
    ("pso", "init_swarm", "pso.init_swarm", None, True),
    ("harness", "aggregate_heatmap", "harness.aggregate_heatmap", None, True),
    ("harness", "best_region", "harness.best_region", None, True),
    ("harness", "distance_to_curve", "harness.distance_to_curve", None, True),
    ("io", "write_csv", "io.write_csv", _written, True),
    ("io", "write_json", "io.write_json", _written, True),
    ("io", "read_csv", "io.read_csv", None, True),
]
EVAL = "benchmarks.eval"


class Tracer:
    """Installs span wrappers on a set of targets and aggregates them.

    ``full=False`` wraps only the coarse entry points (each call runs for
    milliseconds or more), which is what untraced runs use to record their
    exact work counts.
    """

    def __init__(self, full: bool):
        self.full = full
        self.stats: dict[str, SpanStats] = {}
        self.labels: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []

    def wrap(self, name, fn, hook=None, keep=True, label_of=None):
        """``fn`` inside a span named ``name``."""
        st = self.stats.setdefault(name, SpanStats())
        stack, spans, labels, clock = self._stack, self.spans, self.labels, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, len(spans) if keep else -1, 0.0]
            parent = stack[-1] if stack else None
            if keep:
                spans.append(None)
            # clocks are read outside the push and pop, so a probe sample
            # that lands between them is charged to this span and taken out
            # of its parents, which keeps the parents' self times summing up
            t0 = clock()
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t1 = clock()
                dt = t1 - t0 - frame[3]
                st.calls += 1
                st.busy += dt
                st.self_time += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                    self.stats[parent[0]].child_calls += 1
                if keep:
                    st.durations.append(dt)
                    spans[frame[2]] = (name, t0, t1, parent[2] if parent else -1)
            if hook is not None:
                hook(st, args, kwargs, result)
            if label_of is not None:
                lab = labels.setdefault(label_of(args), SpanStats())
                lab.calls += 1
                lab.busy += dt
            return result

        return wrapper

    @contextmanager
    def installed(self, modules):
        """Wrap the targets for the duration of the block."""
        saved = []
        targets = FULL if self.full else COARSE
        try:
            for mod, attr, name, hook, keep in targets:
                module = modules[mod]
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), hook, keep))
            if self.full:
                cls = modules["benchmarks"].BenchmarkFunction
                saved.append((cls, "__call__", cls.__call__))
                cls.__call__ = self.wrap(EVAL, cls.__call__, _evaluate, False,
                                         label_of=lambda args: args[0].label)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def exclude(self, seconds: float):
        """Take time the benchmark itself spent (a speed-probe sample taken
        inside open spans) out of every open span."""
        for frame in self._stack:
            frame[3] += seconds

    def get(self, name) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def work_counts(self) -> dict:
        """Exact work counts; they repeat exactly at a fixed seed."""
        ca = self.get("stability.critical_alpha")
        na = self.get("stability.neutral_alpha")
        opt = self.get("pso.optimize")
        return {
            "curve_points": ca.calls,
            "curve_probes": ca.child_calls,
            "curve_points_by_status": dict(sorted(ca.counts.items())),
            "neutral_points": na.calls,
            "neutral_points_by_status": dict(sorted(na.counts.items())),
            "lyapunov_calls": self.get("stability.lyapunov_exponent").calls,
            "lyapunov_lane_steps": self.get("stability.lyapunov_exponent").counts.get("lane_steps", 0),
            "escape_calls": self.get("stability.escape_probability").calls,
            "escape_trials": self.get("stability.escape_probability").counts.get("trials", 0),
            "optimizer_runs": opt.calls,
            "optimizer_evaluations": opt.counts.get("evaluations", 0),
            "sweep_cells": self.get("harness.run_sweep").counts.get("cells", 0),
        }


def _p(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, overhead_ratio: float, labels) -> dict:
    """Per-layer metrics from a full tracer.

    ``traced_wall`` is the raw wall time of the traced CLI calls, the base
    of the eval share and of the unattributed remainder.  Every name is
    always present, 0 where the workload does not exercise the layer.
    """
    g = tr.get
    ca, la, es, na = (g("stability.critical_alpha"), g("stability.lyapunov_exponent"),
                      g("stability.escape_probability"), g("stability.neutral_alpha"))
    opt, step, ev, sweep = g("pso.optimize"), g("pso.pso_step"), g(EVAL), g("harness.run_sweep")
    wcsv = g("io.write_csv")
    resolved = lambda st: _ratio(st.counts.get("OK", 0) + st.counts.get("NO_CROSSING", 0), st.calls)
    m = {
        "stability.critical_alpha.points": ca.calls,
        "stability.critical_alpha.p50_s": _p(ca.durations, 50),
        "stability.critical_alpha.self_s": ca.self_time,
        "stability.critical_alpha.probes_per_point": _ratio(ca.child_calls, ca.calls),
        "stability.critical_alpha.resolved_ratio": resolved(ca),
        "stability.lyapunov_exponent.calls": la.calls,
        "stability.lyapunov_exponent.lane_steps": la.counts.get("lane_steps", 0),
        "stability.lyapunov_exponent.busy_s": la.busy,
        "stability.lyapunov_exponent.ns_per_lane_step":
            1e9 * _ratio(la.busy, la.counts.get("lane_steps", 0)),
        "stability.escape_probability.calls": es.calls,
        "stability.escape_probability.trials": es.counts.get("trials", 0),
        "stability.escape_probability.busy_s": es.busy,
        "stability.escape_probability.us_per_trial": 1e6 * _ratio(es.busy, es.counts.get("trials", 0)),
        "stability.escape_probability.undecided_ratio":
            _ratio(es.counts.get("undecided", 0), es.counts.get("trials", 0)),
        "stability.neutral_alpha.points": na.calls,
        "stability.neutral_alpha.busy_s": na.busy,
        "stability.neutral_alpha.p50_s": _p(na.durations, 50),
        "stability.neutral_alpha.resolved_ratio": resolved(na),
        "pso.optimize.calls": opt.calls,
        "pso.optimize.self_s": opt.self_time,
        "pso.optimize.p50_ms": 1e3 * _p(opt.durations, 50),
        "pso.optimize.p90_ms": 1e3 * _p(opt.durations, 90),
        "pso.optimize.diverged_ratio": _ratio(opt.counts.get("diverged", 0), opt.calls),
        "pso.optimize.evaluations": opt.counts.get("evaluations", 0),
        "pso.pso_step.calls": step.calls,
        "pso.pso_step.self_s": step.self_time,
        "pso.pso_step.self_us": 1e6 * _ratio(step.self_time, step.calls),
        "pso.init_swarm.self_s": g("pso.init_swarm").self_time,
        "benchmarks.eval.calls": ev.calls,
        "benchmarks.eval.points": ev.counts.get("points", 0),
        "benchmarks.eval.busy_s": ev.busy,
        "benchmarks.eval.share": _ratio(ev.busy, traced_wall),
        "benchmarks.eval.ns_per_coord": 1e9 * _ratio(ev.busy, ev.counts.get("coords", 0)),
        "harness.cells": sweep.counts.get("cells", 0),
        "harness.run_sweep.self_s": sweep.self_time,
        "harness.aggregate_heatmap.busy_s": g("harness.aggregate_heatmap").busy,
        "harness.best_region.busy_s": g("harness.best_region").busy,
        "harness.distance_to_curve.busy_s": g("harness.distance_to_curve").busy,
        "io.write_csv.calls": wcsv.calls,
        "io.write_csv.busy_s": wcsv.busy,
        "io.read_csv.busy_s": g("io.read_csv").busy,
        "io.bytes_written": wcsv.counts.get("bytes", 0) + g("io.write_json").counts.get("bytes", 0),
        "cli.dispatch.self_s": g("cli.dispatch").self_time,
    }
    for label in labels:
        lab = tr.labels.get(label, SpanStats())
        m[f"benchmarks.eval.{label}.us_per_call"] = 1e6 * _ratio(lab.busy, lab.calls)
    layer_self = {}
    for name, st in tr.stats.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + st.self_time
    for layer in ("stability", "pso", "benchmarks", "harness", "io"):
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - sum(layer_self.values())
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's last component."""
    last = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("_ratio", "ratio"),
                         ("share", "ratio"), ("bytes_written", "bytes")):
        if last.endswith(suffix):
            return unit
    for prefix, unit in (("ns_per", "ns"), ("us_per", "us")):
        if last.startswith(prefix):
            return unit
    return "count"
