"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about 30 s)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from run import E2E_UNITS
from tracing import EXACT_COUNTERS, LAYER_METRICS, Tracer, install, span_table
from workloads import ACCEPTANCE_PULSE, FOUR_QUBIT_CONFIG, PAPER_CONFIG, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _report(stdout: str) -> dict:
    line = next(l for l in stdout.splitlines() if l.startswith("REPORT "))
    return json.loads(line[len("REPORT "):])


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in LAYER_METRICS.items()]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_are_seed_stable_prefixes(workload):
    ops = generate(workload, 5, 12)
    assert ops == generate(workload, 5, 12)
    assert ops[:4] == generate(workload, 5, 4)
    assert ops[1:] != generate(workload, 6, 12)[1:]


def test_op_zero_is_the_acceptance_input():
    assert generate("solve-n3-scan", 9, 1)[0]["config"] == PAPER_CONFIG
    assert generate("solve-n4-free", 9, 1)[0]["config"] == FOUR_QUBIT_CONFIG
    assert generate("fidelity-n3-pulses", 9, 1)[0] == ACCEPTANCE_PULSE
    cavity = generate("compare-n3-cascade", 9, 1)[0]["cascade"]["cavity"]
    assert cavity == {"f_GHz": 10.0, "C_couple_fF": 10.0}


def test_self_time_and_tree_counts():
    tracer = Tracer()
    # cli.main [0, 10] > solve_eraser [1, 9] > state_phase_curve [2, 4] > sweep [2.5, 3.5]
    #                                         > sweep [5, 6], with no device span above it
    for name in ("cli.main", "eraser.solve_eraser", "device.state_phase_curve",
                 "network.phase_sweep"):
        tracer.open(name)
    tracer.close(tracer.stack[-1])
    tracer.close(tracer.stack[-1])
    tracer.open("network.phase_sweep")
    for _ in range(3):
        tracer.close(tracer.stack[-1])
    tracer.start = array("d", [0, 1, 2, 2.5, 5])
    tracer.end = array("d", [10, 9, 4, 3.5, 6])
    table, derived = span_table(tracer)
    assert table["cli.main"]["self_s"] == pytest.approx(2.0)
    assert table["eraser.solve_eraser"]["self_s"] == pytest.approx(5.0)
    assert table["device.state_phase_curve"]["self_s"] == pytest.approx(1.0)
    assert table["network.phase_sweep"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert derived == {"device.curve_builds": 1, "network.PhaseCurve.dtheta.calls": 0}


def test_install_wraps_every_consumer_namespace(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for name in [m for m in sys.modules if m.split(".")[0] == "qparity"]:
        monkeypatch.delitem(sys.modules, name)
    import qparity
    import qparity.cli  # noqa: F401  (main is traced too)
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "qparity"}
    original_theta = mods["qparity.network"].PhaseCurve.theta
    tracer = Tracer()
    install(tracer, mods)
    sweep = mods["qparity.network"].phase_sweep
    assert hasattr(sweep, "__wrapped__")
    assert mods["qparity.device"].phase_sweep is sweep
    assert mods["qparity.cascade"].phase_sweep is sweep
    assert qparity.phase_sweep is sweep
    assert mods["qparity.cli"].solve_eraser is mods["qparity.eraser"].solve_eraser
    assert mods["qparity.network"].PhaseCurve.theta.__wrapped__ is original_theta


@pytest.mark.parametrize("workload,seconds", [("fidelity-n3-pulses", "1"),
                                              ("solve-n3-scan", "2")])
def test_traced_runs_repeat_exactly(workload, seconds):
    runs = [_bench("--workload", workload, "--seed", "3", "--seconds", seconds,
                   "--trace", "1") for _ in range(2)]
    reports = []
    for res in runs:
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        reports.append(_report(res.stdout))
    first, second = reports
    assert set(first["exact_counters"]) == set(EXACT_COUNTERS)
    assert first["exact_counters"] == second["exact_counters"]
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["metrics"]["network.reflection_coefficient.points"]["value"] > 0


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    res = _bench("--workload", "solve-n3-scan", "--seconds", "1", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
