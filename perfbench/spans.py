"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` replaces each listed function, in every module namespace
that calls it, with a wrapper that records a span (name, start, end, parent,
operation) and counts taken from the call's arguments or result.  The
untraced run never imports this module, so the package stays untouched.

A span's self time is its duration minus the time covered by its child
spans.  Spans are kept in memory for the first round only and written out
when the run ends; totals cover every round.
"""

from __future__ import annotations

import collections
import json
import time

import numpy as np


def _steps(traj):
    return traj.ts.size - 1


# (metric layer, attribute, owners as dotted paths below the package)
TARGETS = [
    ("emden.integrate", "integrate", ["", "regimes"]),
    ("emden.sample", "sample", ["emden.Trajectory"]),
    ("emden.state_at", "state_at", ["emden.Trajectory"]),
    ("regimes.classify", "classify", ["", "regimes"]),
    ("regimes.certify", "certify", ["", "regimes"]),
    ("regimes.period_quadrature", "period_quadrature", ["", "regimes"]),
    ("regimes.turning_points", "turning_points", ["", "regimes"]),
    ("fields.eval_flow_arrays", "eval_flow_arrays", ["", "fields", "residuals", "fv"]),
    ("residuals.euler_residual_2d", "euler_residual_2d", ["", "residuals"]),
    ("residuals.euler_residual_3d", "euler_residual_3d", ["", "residuals"]),
    ("residuals.zz_direct_residual", "zz_direct_residual", ["", "residuals"]),
    ("residuals.mass_residual_generic_g", "mass_residual_generic_g", ["", "residuals"]),
    ("residuals.residual_convergence", "residual_convergence", ["", "residuals"]),
    ("residuals.integrate_scales_3d", "integrate_scales_3d", ["", "residuals"]),
    ("fv.step", "step", ["fv"]),
    ("fv.init_from_exact", "init_from_exact", ["fv"]),
]


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        """Forget everything recorded so far (the warm-up)."""
        self.calls = collections.Counter()
        self.total = collections.Counter()      # inclusive seconds
        self.self_time = collections.Counter()  # exclusive seconds
        self.counts = collections.Counter()
        self.spans = []
        self.keep_spans = True
        self.op = None
        self._stack = []                        # [span id, child seconds]
        self._next_id = 0

    def _record(self, name, args, result):
        """Counts measured where the work happens."""
        c = self.counts
        if name == "emden.integrate":
            c["emden.integrate.steps"] += _steps(result)
            if result.terminal.kind == "collapsed":
                c["emden.integrate.collapse_steps"] += _steps(result)
        elif name == "emden.sample":
            c["emden.sample.points"] += np.size(args[1])
        elif name == "regimes.classify":
            c[f"regimes.cases.{result.kind}"] += 1
        elif name == "regimes.certify":
            c["regimes.certify.passed"] += 1
        elif name == "fields.eval_flow_arrays":
            c["fields.eval_flow_arrays.points"] += np.broadcast(args[2], args[3]).size
        elif name == "residuals.integrate_scales_3d":
            c["residuals.integrate_scales_3d.steps"] += _steps(result)
        elif name == "fv.step":
            cfg = args[0].cfg
            c[f"fv.cells.{cfg.nx}"] += cfg.nx * cfg.ny

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            key = name
            if name == "fv.step":
                key = f"fv.step.{args[0].cfg.nx}"
            self.calls[key] += 1
            self.total[key] += dur
            self.self_time[key] += dur - frame[1]
            if self.keep_spans:
                self.spans.append((span_id, parent, self.op, name, start, dur))
        self._record(name, args, result)
        return result

    def install(self, sg):
        """Wrap every target in every namespace that calls it, for the life of the process."""
        for name, attr, owners in TARGETS:
            objs = [_resolve(sg, path) for path in owners]
            original = getattr(objs[0], attr)

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            for obj in objs:
                setattr(obj, attr, wrapper)

    def write_spans(self, path):
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, op, name, start, dur in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start_us": round((start - t0) * 1e6, 3),
                                     "dur_us": round(dur * 1e6, 3)}) + "\n")

    def layer_metrics(self, rounds):
        """Per-layer metrics: counts per round, times per call or per unit of work."""
        calls, total, own, counts = self.calls, self.total, self.self_time, self.counts

        def per(num, den, scale):
            return num / den * scale if den else 0.0

        m = {
            "emden.integrate.calls": (calls["emden.integrate"] / rounds, "count"),
            "emden.integrate.steps": (counts["emden.integrate.steps"] / rounds, "count"),
            "emden.integrate.collapse_steps": (counts["emden.integrate.collapse_steps"] / rounds,
                                               "count"),
            "emden.integrate.us_per_step": (per(total["emden.integrate"],
                                                counts["emden.integrate.steps"], 1e6), "us"),
            "emden.sample.points": (counts["emden.sample.points"] / rounds, "count"),
            "emden.sample.us_per_point": (per(total["emden.sample"],
                                              counts["emden.sample.points"], 1e6), "us"),
            "emden.state_at.calls": (calls["emden.state_at"] / rounds, "count"),
            "emden.state_at.us_per_call": (per(total["emden.state_at"],
                                               calls["emden.state_at"], 1e6), "us"),
            "regimes.certify.pass_ratio": (per(counts["regimes.certify.passed"],
                                               calls["regimes.certify"], 1.0), "ratio"),
            "fields.eval_flow_arrays.points": (counts["fields.eval_flow_arrays.points"] / rounds,
                                               "count"),
            "fields.eval_flow_arrays.ns_per_point": (per(total["fields.eval_flow_arrays"],
                                                         counts["fields.eval_flow_arrays.points"],
                                                         1e9), "ns"),
            "residuals.integrate_scales_3d.steps": (
                counts["residuals.integrate_scales_3d.steps"] / rounds, "count"),
            "fv.step.calls": (sum(v for k, v in calls.items() if k.startswith("fv.step."))
                              / rounds, "count"),
        }
        for layer in ("regimes.classify", "regimes.certify", "regimes.period_quadrature",
                      "regimes.turning_points", "residuals.euler_residual_2d",
                      "residuals.euler_residual_3d", "residuals.zz_direct_residual",
                      "residuals.mass_residual_generic_g", "residuals.residual_convergence",
                      "residuals.integrate_scales_3d", "fv.init_from_exact"):
            m[f"{layer}.ms"] = (per(own[layer], calls[layer], 1e3), "ms")
        for kind in ("global", "time-periodic", "steady", "finite-time-blowup"):
            m[f"regimes.cases.{kind}"] = (counts[f"regimes.cases.{kind}"] / rounds, "count")
        for n in (64, 128, 256):
            m[f"fv.ns_per_cell_step.{n}"] = (per(total[f"fv.step.{n}"], counts[f"fv.cells.{n}"],
                                                 1e9), "ns")
        return m


def _resolve(sg, path):
    obj = sg
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj
