"""Spans and counts around calls into qparity's public functions.

The tracer lives entirely in the benchmark: ``install`` replaces each traced
function with a wrapper in every ``qparity.*`` namespace that holds it (the
modules import each other's names directly, so patching only the defining
module would miss most calls) and patches the ``PhaseCurve`` methods on the
class.  Nothing under ``src/`` changes.

A span is (name, start, end, parent, op id).  Spans are kept in memory in
flat arrays and reduced to per-layer metrics by ``layer_metrics`` once the
traced ops are done.  Counts (points, modes) are recorded by the wrapper at
the same boundary as the span.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute) of every traced public function.  Hot helpers such as
# ``wrap_phase`` are left out: a span around each of their ~10^6 calls per
# solve would dominate what it measures.
TRACED_FUNCTIONS = (
    ("network", "phase_sweep"),
    ("network", "reflection_coefficient"),
    ("device", "state_phase_curve"),
    ("device", "weight_phase_curve"),
    ("eraser", "solve_eraser"),
    ("eraser", "eraser_residuals"),
    ("eraser", "dispersion_report"),
    ("fidelity", "eraser_quality"),
    ("fidelity", "fidelity_numeric"),
    ("cascade", "tune_cascade"),
    ("cascade", "compare_schemes"),
    ("cli", "main"),
)
TRACED_METHODS = ("theta", "dtheta", "dtheta_unchecked")

DTHETA_SPANS = ("network.PhaseCurve.dtheta", "network.PhaseCurve.dtheta_unchecked")

# Per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move).  The order is the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = {
    "network.phase_sweep.calls": ("count/op", "lower", "op_p50_s on solve-n3-scan and solve-n4-free; no change on fidelity-n3-pulses"),
    "network.phase_sweep.points": ("count/op", "lower", "op_p50_s on solve-n3-scan and solve-n4-free; no change on fidelity-n3-pulses"),
    "network.phase_sweep.self_s": ("s/op", "lower", "op_p50_s on solve-n3-scan and solve-n4-free; no change on fidelity-n3-pulses"),
    "network.reflection_coefficient.points": ("count/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "network.reflection_coefficient.ns_per_point": ("ns", "lower", "op_p50_s on fidelity-n3-pulses"),
    "network.PhaseCurve.theta.scalar_calls": ("count/op", "lower", "op_p50_s on compare-n3-cascade"),
    "network.PhaseCurve.theta.vector_points": ("count/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "network.PhaseCurve.theta.self_s": ("s/op", "lower", "op_p50_s on compare-n3-cascade and fidelity-n3-pulses"),
    "network.PhaseCurve.dtheta.calls": ("count/op", "lower", "op_p50_s on compare-n3-cascade"),
    "device.state_phase_curve.calls": ("count/op", "lower", "op_p50_s on solve-n4-free; peak_rss_mb on all workloads"),
    "device.curve_builds": ("count/op", "lower", "op_p50_s on solve-n4-free (cache thrash); peak_rss_mb on all workloads"),
    "device.curve_hit_ratio": ("ratio", "higher", "op_p50_s on solve-n4-free (cache thrash); peak_rss_mb on all workloads"),
    "eraser.solve_eraser.self_s": ("s/op", "lower", "op_p50_s on solve-n4-free and solve-n3-scan"),
    "eraser.eraser_residuals.calls": ("count/op", "lower", "op_p50_s on solve-n4-free and solve-n3-scan"),
    "eraser.dispersion_report.calls": ("count/op", "lower", "op_p50_s on solve-n4-free and solve-n3-scan"),
    "eraser.basins": ("count/op", "higher", "should not move (solve workloads)"),
    "fidelity.eraser_quality.self_s": ("s/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "fidelity.fidelity_numeric.calls": ("count/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "fidelity.fidelity_numeric.modes": ("count/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "fidelity.fidelity_numeric.ns_per_mode": ("ns", "lower", "op_p50_s on fidelity-n3-pulses"),
    "cascade.tune_cascade.calls": ("count/op", "lower", "op_p50_s on compare-n3-cascade"),
    "cascade.tune_cascade.self_s": ("s/op", "lower", "op_p50_s on compare-n3-cascade"),
    "cascade.compare_schemes.self_s": ("s/op", "lower", "op_p50_s on compare-n3-cascade"),
    "cli.main.self_s": ("s/op", "lower", "op_p50_s on fidelity-n3-pulses (short ops make it a visible share)"),
    "cli.output_bytes": ("bytes/op", "lower", "op_p50_s on fidelity-n3-pulses"),
    "trace.overhead_ratio": ("ratio", "lower", "none (cost of tracing itself)"),
}

# Counters that must repeat exactly between two traced runs on one seed.
EXACT_COUNTERS = (
    "network.phase_sweep.points",
    "network.reflection_coefficient.points",
    "device.curve_builds",
    "eraser.eraser_residuals.calls",
    "fidelity.fidelity_numeric.modes",
)


class Tracer:
    """Span and count recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _count_sweep(counts, args, kwargs, profile):
    counts["network.phase_sweep.points"] += len(profile.grid)


def _count_reflection(counts, args, kwargs, result):
    counts["network.reflection_coefficient.points"] += int(np.size(_arg(args, kwargs, 1, "omega")))


def _count_theta(counts, args, kwargs, result):
    omega = _arg(args, kwargs, 1, "omega")  # args[0] is the PhaseCurve
    if np.ndim(omega) == 0:
        counts["network.PhaseCurve.theta.scalar_calls"] += 1
    else:
        counts["network.PhaseCurve.theta.vector_points"] += int(np.size(omega))


def _fidelity_counter(default_points: int):
    def count(counts, args, kwargs, result):
        grid = _arg(args, kwargs, 3, "grid")
        counts["fidelity.fidelity_numeric.modes"] += (
            default_points if grid is None else len(grid.frequencies))

    return count


def install(tracer: Tracer, mods: dict) -> None:
    """Wrap the traced functions of one qparity import in place.

    ``mods`` maps module names ("qparity", "qparity.network", ...) to the
    module objects of that import.
    """
    fidelity = mods["qparity.fidelity"]
    default_points = inspect.signature(fidelity.build_mode_grid).parameters["points"].default
    counters = {
        ("network", "phase_sweep"): _count_sweep,
        ("network", "reflection_coefficient"): _count_reflection,
        ("fidelity", "fidelity_numeric"): _fidelity_counter(default_points),
    }
    for module, attr in TRACED_FUNCTIONS:
        original = getattr(mods[f"qparity.{module}"], attr)
        wrapped = _wrap(tracer, f"{module}.{attr}", original, counters.get((module, attr)))
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    curve = mods["qparity.network"].PhaseCurve
    for meth in TRACED_METHODS:
        count = _count_theta if meth == "theta" else None
        setattr(curve, meth, _wrap(tracer, f"network.PhaseCurve.{meth}",
                                   getattr(curve, meth), count))


def span_table(tracer: Tracer) -> tuple[dict, dict]:
    """Reduce the recorded spans to per-name calls, total and self seconds,
    and to the counts that depend on the span tree.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded and strictly nested, so children
    never overlap.  A curve build is a sweep span with a device.* ancestor;
    a dtheta call is an outermost dtheta or dtheta_unchecked span.
    """
    n = len(tracer.names)
    start = np.frombuffer(tracer.start, dtype=float)
    dur = np.frombuffer(tracer.end, dtype=float) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    has_parent = parent >= 0
    self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    names = np.array(tracer.names)
    table = {}
    for name in np.unique(names):
        sel = names == name
        table[str(name)] = {"calls": int(sel.sum()),
                            "total_s": float(dur[sel].sum()),
                            "self_s": float(self_s[sel].sum())}
    under_device = [False] * n
    builds = dtheta_calls = 0
    for i, name in enumerate(tracer.names):
        p = parent[i]
        if p >= 0:
            under_device[i] = under_device[p] or tracer.names[p].startswith("device.")
        builds += name == "network.phase_sweep" and under_device[i]
        dtheta_calls += name in DTHETA_SPANS and (p < 0 or tracer.names[p] not in DTHETA_SPANS)
    return table, {"device.curve_builds": builds,
                   "network.PhaseCurve.dtheta.calls": dtheta_calls}


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer metrics, per traced op, from spans, counts and ``extra``.

    ``extra`` supplies what the harness measures outside the spans, already
    per op: ``eraser.basins``, ``cli.output_bytes`` and
    ``trace.overhead_ratio``.  A ratio whose base is zero reads 0.
    """
    table, derived = span_table(tracer)
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    state_calls = calls("device.state_phase_curve")
    builds = derived["device.curve_builds"]
    refl_points = counts["network.reflection_coefficient.points"]
    modes = counts["fidelity.fidelity_numeric.modes"]
    totals = {
        "network.phase_sweep.calls": calls("network.phase_sweep"),
        "network.phase_sweep.points": counts["network.phase_sweep.points"],
        "network.phase_sweep.self_s": self_s("network.phase_sweep"),
        "network.reflection_coefficient.points": refl_points,
        "network.PhaseCurve.theta.scalar_calls": counts["network.PhaseCurve.theta.scalar_calls"],
        "network.PhaseCurve.theta.vector_points": counts["network.PhaseCurve.theta.vector_points"],
        "network.PhaseCurve.theta.self_s": self_s("network.PhaseCurve.theta"),
        "network.PhaseCurve.dtheta.calls": derived["network.PhaseCurve.dtheta.calls"],
        "device.state_phase_curve.calls": state_calls,
        "device.curve_builds": builds,
        "eraser.solve_eraser.self_s": self_s("eraser.solve_eraser"),
        "eraser.eraser_residuals.calls": calls("eraser.eraser_residuals"),
        "eraser.dispersion_report.calls": calls("eraser.dispersion_report"),
        "fidelity.eraser_quality.self_s": self_s("fidelity.eraser_quality"),
        "fidelity.fidelity_numeric.calls": calls("fidelity.fidelity_numeric"),
        "fidelity.fidelity_numeric.modes": modes,
        "cascade.tune_cascade.calls": calls("cascade.tune_cascade"),
        "cascade.tune_cascade.self_s": self_s("cascade.tune_cascade"),
        "cascade.compare_schemes.self_s": self_s("cascade.compare_schemes"),
        "cli.main.self_s": self_s("cli.main"),
    }
    out = {name: value / ops for name, value in totals.items()}
    out["network.reflection_coefficient.ns_per_point"] = 1e9 * ratio(
        self_s("network.reflection_coefficient"), refl_points)
    out["device.curve_hit_ratio"] = (1.0 - builds / state_calls) if state_calls else 0.0
    out["fidelity.fidelity_numeric.ns_per_mode"] = 1e9 * ratio(
        self_s("fidelity.fidelity_numeric"), modes)
    out.update(extra)
    return {name: out[name] for name in LAYER_METRICS}
