#!/usr/bin/env python3
"""qparity benchmark: four CLI workloads driven in-process through cli.main.

Run from the root of a source checkout; qparity is imported from ./src.

    python3 perfbench/run.py --workload solve-n3-scan --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all                   # every workload, one table
    python3 perfbench/run.py --workload compare-n3-cascade --seed 7 --dump-configs 5

Load is a closed loop: one process, one client, no worker threads; the next
op starts only after the previous one returns.  ``--trace 0`` runs ops until
``--seconds`` have passed and reports the end-to-end metrics, with times
scaled to a reference CPU speed (calibration.py).  ``--trace 1`` runs a
fixed number of ops (sized from ``--seconds``) on an untraced and on a
traced import of qparity in turn and reports the per-layer metrics.
Human-readable lines come first, then a ``REPORT {...}`` line with the
environment, every op that failed or found no solution, and the output
digests, and last the one-line result JSON.
"""

from __future__ import annotations

import os

# one client, no extra threads: keep BLAS single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from calibration import REF_SECONDS, SpeedProbe
from tracing import EXACT_COUNTERS, LAYER_METRICS, Tracer, install, layer_metrics
from workloads import WORKLOADS, PAPER_CONFIG, check, check_paper_solution, generate, prepare, write_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(__file__).resolve().parent / "_work"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 12.0
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10

E2E_UNITS = {"op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(Exception):
    """The benchmark cannot run here (no sources, or set-up failed)."""


# ----------------------------------------------------------------------
# Program under test
# ----------------------------------------------------------------------

def _qparity_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "qparity" or name.startswith("qparity.")}


@dataclass
class Instance:
    """One import of qparity; ``activate`` makes it the one sys.modules holds,
    so imports the package does at call time resolve inside it."""

    qp: object
    cli: object
    modules: dict

    def activate(self) -> None:
        sys.modules.update(self.modules)


def fresh_qparity() -> Instance:
    """Import qparity from ./src anew, dropping every cached module state."""
    for name in _qparity_modules():
        del sys.modules[name]
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        qp = importlib.import_module("qparity")
        cli = importlib.import_module("qparity.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import qparity from {SRC.name}/: {exc}") from exc
    if Path(qp.__file__).resolve().parent != (SRC / "qparity").resolve():
        raise SetupError(f"qparity imported from {qp.__file__}, not from this checkout")
    return Instance(qp, cli, _qparity_modules())


def invoke(cli, argv: list) -> tuple[int, str, str]:
    """cli.main in-process with captured stdout/stderr; returns (rc, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _timed_setup(workload: str, seed: int, count: int, work: Path):
    inst = fresh_qparity()
    ops = generate(workload, seed, count)
    write_json(work / "paper.json", PAPER_CONFIG)
    rc, err = 0, ""
    if WORKLOADS[workload].fixed_solve:
        rc, _, err = invoke(inst.cli, ["solve", str(work / "paper.json"),
                                       "--out", str(work / "paper_solution.json")])
    return inst, ops, rc, err


def setup(workload: str, seed: int, count: int, work: Path, probe: SpeedProbe):
    """Import qparity, generate the op inputs, and solve the fixed paper point.

    Returns (wall seconds, scaled seconds, qparity instance, op inputs).  The
    check of the fixed solution is not timed.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (inst, ops, rc, err), wall, scaled = probe.measure(_timed_setup, workload, seed, count, work)
    if rc != 0:
        raise SetupError(f"fixed paper solve exited {rc}: {err.strip()}")
    if WORKLOADS[workload].fixed_solve:
        reason = check_paper_solution(json.loads((work / "paper_solution.json").read_text()))
        if reason:
            raise SetupError(f"fixed paper solve: {reason}")
    return wall, scaled, inst, ops


# ----------------------------------------------------------------------
# Closed-loop op runner
# ----------------------------------------------------------------------

def _invoke_op(inst: Instance, argv: list, index: int, tracer: Tracer | None):
    """invoke() inside an "op" span when traced; an exception becomes rc -1."""
    if tracer is not None:
        tracer.op_id, tracer.active = index, True
        span = tracer.open("op")
    try:
        return (*invoke(inst.cli, argv), None)
    except Exception:  # the op raised: record it, keep the loop going
        return -1, "", "", " | ".join(traceback.format_exc().strip().splitlines()[-3:])
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.active = False


def run_op(workload: str, inst: Instance, index: int, op: dict, work: Path,
           probe: SpeedProbe, tracer: Tracer | None = None) -> dict:
    """Run one op through cli.main, time it, digest and check its outputs."""
    inst.activate()
    argv, outputs = prepare(workload, index, op, work)
    for path in outputs:
        path.unlink(missing_ok=True)
    (rc, out, err, exc_text), seconds, scaled = probe.measure(
        _invoke_op, inst, argv, index, tracer)
    digest = hashlib.sha256(f"{rc}\n{out}".encode())
    nbytes = len(out.encode())
    for path in outputs:
        if path.exists():
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            nbytes += len(data)
    if exc_text is not None:
        status, reason = "failed", exc_text
    else:
        try:
            status, reason = check(inst.qp, workload, index, op, rc, outputs)
        except Exception as exc:  # malformed output the check could not read
            status, reason = "failed", f"check raised {type(exc).__name__}: {exc}"
    basins = 0
    if status == "ok" and WORKLOADS[workload].solve_op:
        basins = len(json.loads(outputs[0].read_text())["basins"])
    return {"index": index, "seconds": seconds, "scaled_seconds": scaled, "rc": rc, "status": status,
            "reason": reason, "stderr": err.strip()[-300:],
            "digest": digest.hexdigest(), "output_bytes": nbytes, "basins": basins}


def tail(times: list) -> dict | None:
    """Highest ladder percentile with at least ten ops beyond it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            rank = max(1, math.ceil(p / 100.0 * n))
            return {"value": ordered[rank - 1], "unit": "s", "percentile": p, "ops": n}
    return None


def summarize(workload: str, records: list, ops: list) -> dict:
    attempted = len(records)
    failed = [r for r in records if r["status"] == "failed"]
    no_solution = [r for r in records if r["status"] == "no_solution"]

    def listing(rs):
        return [{"index": r["index"], "input": ops[r["index"]], "rc": r["rc"],
                 "reason": r["reason"], "stderr": r["stderr"]} for r in rs]

    return {
        "attempted": attempted,
        "failed": len(failed),
        "op_tail_s": tail([r["scaled_seconds"] for r in records]),
        "fail_ratio": {"value": len(failed) / attempted, "unit": "ratio"},
        "no_solution_ratio": ({"value": len(no_solution) / attempted, "unit": "ratio"}
                              if WORKLOADS[workload].solve_op else None),
        "failed_ops": listing(failed),
        "no_solution_ops": listing(no_solution),
        "op_seconds": [round(r["seconds"], 6) for r in records],
        "op_scaled_seconds": [round(r["scaled_seconds"], 6) for r in records],
        "op_digests": [r["digest"][:16] for r in records],
        "outputs_sha256": hashlib.sha256(
            "".join(r["digest"] for r in records).encode()).hexdigest(),
    }


# ----------------------------------------------------------------------
# Environment block
# ----------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def loadavg() -> list | None:
    text = _read("/proc/loadavg")
    return [float(v) for v in text.split()[:3]] if text else None


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "qparity").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "loadavg_start": loadavg(),
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Set up SETUP_REPEATS times, then run ops until ``seconds`` have passed.

    Reported times are scaled by the reference kernel (calibration.py).
    """
    count = max(8, int(seconds * WORKLOADS[workload].max_rate))
    probe = SpeedProbe()
    setups = [setup(workload, seed, count, work, probe) for _ in range(SETUP_REPEATS)]
    _, _, inst, ops = setups[-1]
    records = []
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            break
        records.append(run_op(workload, inst, index, op, work, probe))
    summary = summarize(workload, records, ops)
    metrics = {
        "op_p50_s": statistics.median(r["scaled_seconds"] for r in records),
        "setup_s": statistics.median(s[1] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary["wall"] = {"op_p50_s": statistics.median(r["seconds"] for r in records),
                       "setup_s": statistics.median(s[0] for s in setups),
                       "setup_samples_s": [s[0] for s in setups]}
    summary["reference_kernel_s"] = {
        "nominal": REF_SECONDS, "samples": len(probe.samples),
        "median": statistics.median(probe.samples),
        "min": min(probe.samples), "max": max(probe.samples)}
    return summary, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced_op_count(workload: str, seconds: float) -> int:
    """Fixed op count of a traced run, so its counters repeat exactly."""
    return max(1, round(seconds / 2.0 / WORKLOADS[workload].nominal_op_s))


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    """Run each op on an untraced and on a traced qparity instance, in turn.

    The two instances are separate fresh imports, so their caches evolve
    identically; interleaving the ops keeps drift and warm-up out of the
    overhead ratio, and their output digests must agree.
    """
    limit = traced_op_count(workload, seconds)
    probe = SpeedProbe()
    _, _, plain_inst, ops = setup(workload, seed, limit, work / "plain", probe)
    _, _, traced_inst, _ = setup(workload, seed, limit, work / "traced", probe)
    tracer = Tracer()
    install(tracer, traced_inst.modules)
    plain, traced = [], []
    for index, op in enumerate(ops[:limit]):
        plain.append(run_op(workload, plain_inst, index, op, work / "plain", probe))
        traced.append(run_op(workload, traced_inst, index, op, work / "traced", probe, tracer))
    summary = summarize(workload, plain + traced, ops)
    mismatched = [a["index"] for a, b in zip(plain, traced) if a["digest"] != b["digest"]]
    if mismatched:
        summary["failed"] += len(mismatched)
        summary["digest_mismatch_ops"] = mismatched
    solved = [r for r in traced if r["status"] == "ok" and WORKLOADS[workload].solve_op]
    extra = {
        "eraser.basins": statistics.fmean(r["basins"] for r in solved) if solved else 0.0,
        "cli.output_bytes": statistics.fmean(r["output_bytes"] for r in traced),
        "trace.overhead_ratio": (statistics.median(r["scaled_seconds"] for r in traced)
                                 / statistics.median(r["scaled_seconds"] for r in plain)),
    }
    per_layer = layer_metrics(tracer, len(traced), extra)
    summary["traced_ops"] = len(traced)
    summary["spans"] = len(tracer.names)
    summary["exact_counters"] = {k: per_layer[k] for k in EXACT_COUNTERS}
    summary["should_move"] = {k: v[2] for k, v in LAYER_METRICS.items()}
    return summary, {k: {"value": per_layer[k], "unit": LAYER_METRICS[k][0]}
                     for k in LAYER_METRICS}


def run_one(ns) -> int:
    env = environment(ns.seed)
    work = WORK_ROOT / f"{ns.workload}-{os.getpid()}"
    try:
        runner = run_traced if ns.trace else run_untraced
        summary, metrics = runner(ns.workload, ns.seed, ns.seconds, work)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    env["loadavg_end"] = loadavg()
    wl = WORKLOADS[ns.workload]
    print(f"workload {ns.workload}: {wl.why}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not ns.trace:
        if summary["op_tail_s"]:
            t = summary["op_tail_s"]
            print(f"  op_tail_s = {t['value']:.6g} s (p{t['percentile']:g} of {t['ops']} ops)")
        else:
            print(f"  op_tail_s: omitted, {summary['attempted']} ops are too few")
        for key in ("fail_ratio", "no_solution_ratio"):
            if summary[key]:
                print(f"  {key} = {summary[key]['value']:.6g} {summary[key]['unit']}")
    for r in summary["failed_ops"]:
        print(f"  FAILED op {r['index']}: {r['reason']}  input={json.dumps(r['input'])}")
    for r in summary["no_solution_ops"]:
        print(f"  no solution (exit 4) op {r['index']}: input={json.dumps(r['input'])}")
    report = {"workload": ns.workload, "why": wl.why, "seconds": ns.seconds,
              "trace": ns.trace, "environment": env, **summary, "metrics": metrics}
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def run_all(ns) -> int:
    """Every workload in its own child process (so peak RSS is per workload)."""
    rows = []
    for name in WORKLOADS:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", name, "--seed", str(ns.seed),
                              "--seconds", str(ns.seconds), "--trace", str(ns.trace)],
                             capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            return res.returncode
        rows.append((name, json.loads(res.stdout.strip().splitlines()[-1])))
    print("summary:")
    for name, result in rows:
        values = "  ".join(f"{k}={m['value']:.4g}{m['unit']}" for k, m in result["metrics"].items())
        print(f"  {name:20s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {values}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dump-configs", type=int, metavar="N",
                   help="print the first N generated op inputs and exit")
    ns = p.parse_args(argv)
    if ns.seconds <= 0:
        p.error("--seconds must be > 0")
    if ns.dump_configs is not None:
        if ns.workload == "all":
            p.error("--dump-configs needs one workload")
        for i, op in enumerate(generate(ns.workload, ns.seed, ns.dump_configs)):
            print(json.dumps({"index": i, **op}, sort_keys=True))
        return 0
    return run_all(ns) if ns.workload == "all" else run_one(ns)


if __name__ == "__main__":
    sys.exit(main())
