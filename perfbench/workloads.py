"""The four benchmark workloads: seeded inputs, CLI arguments and output checks.

Every input is generated from the workload seed; the program only ever sees
the generated config files and CLI arguments.  Op 0 of each workload is a
fixed acceptance input (the paper device, the 4-qubit device, the
alpha^2 = 5, T = 1 us pulse, the 10 GHz / 10 fF cascade cavity); later ops
are seeded variations around it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

EXIT_OK, EXIT_NO_SOLUTION = 0, 4

PAPER_CONFIG = {
    "schema_version": "1",
    "n_qubits": 3,
    "modes": [{"f_GHz": 9.99, "C_couple_fF": 10.0},
              {"f_GHz": 10.01, "C_couple_fF": 10.0}],
    "chi_MHz": "solve",
    "Z0_ohms": 50.0,
    "resonator_model": "stub",
}
FOUR_QUBIT_CONFIG = {
    "schema_version": "1",
    "n_qubits": 4,
    "modes": [{"f_GHz": 9.97, "C_couple_fF": 10.0},
              {"f_GHz": 10.0, "C_couple_fF": 10.0},
              {"f_GHz": 10.03, "C_couple_fF": 10.0}],
    "chi_MHz": "solve",
}
ACCEPTANCE_CASCADE = {
    "schema_version": "1",
    "kind": "cascade",
    "n_qubits": 3,
    "cavity": {"f_GHz": 10.0, "C_couple_fF": 10.0},
    "chi_MHz": "tune",
}
ACCEPTANCE_PULSE = {"alpha_sq": 5.0, "T_us": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    solve_op: bool        # one op is a `qparity solve`
    fixed_solve: bool     # set-up solves the paper device once
    nominal_op_s: float   # sizes the fixed op count of a traced run
    max_rate: float       # ops/s the config list is sized for


WORKLOADS = {w.name: w for w in (
    Workload("solve-n3-scan",
             "qparity solve on a new n=3 two-mode device per op: every phase curve "
             "is built cold, ~95% of the time is network.phase_sweep",
             True, False, 2.0, 100.0),
    Workload("solve-n4-free",
             "qparity solve --free-modes on the 4-qubit three-mode device: the only "
             "free-gap Gauss-Newton path, and it overruns the 1024-entry curve cache",
             True, False, 50.0, 10.0),
    Workload("fidelity-n3-pulses",
             "qparity fidelity on one fixed paper solution with a seeded pulse per op: "
             "cached curves, vectorised theta reads and the 4001-mode sum",
             False, True, 0.035, 2000.0),
    Workload("compare-n3-cascade",
             "qparity compare of the paper device against a seeded cascade cavity: "
             "~85% is tune_cascade, a brentq search over scalar theta/dtheta calls",
             False, True, 1.2, 200.0),
)}


def _parallel(n: int, freqs_ghz, c_ff: float) -> dict:
    return {"schema_version": "1", "n_qubits": n,
            "modes": [{"f_GHz": round(f, 6), "C_couple_fF": round(c_ff, 3)}
                      for f in freqs_ghz],
            "chi_MHz": "solve"}


# Seeded ops come in blocks of this many; within a block every parameter
# visits each of BLOCK equal slices of its range once (a Latin hypercube), so
# a run's median op is steady even when a run holds only a few ops.
BLOCK = 4

# Seeded parameter ranges per workload, in the units of the generated input.
RANGES = {
    "solve-n3-scan": ((9.6, 10.4), (0.014, 0.030), (7.0, 13.0)),      # f_c GHz, gap GHz, C fF
    "solve-n4-free": ((9.95, 10.05), (0.025, 0.035), (9.0, 11.0)),    # f_c GHz, gap GHz, C fF
    "fidelity-n3-pulses": ((0.5, 10.0), (0.3, 3.0)),                  # alpha^2, T us
    "compare-n3-cascade": ((9.5, 10.5), (5.0, 15.0)),                 # f GHz, C fF
}


def _stratified(rng: random.Random, ranges):
    while True:
        columns = []
        for lo, hi in ranges:
            slots = list(range(BLOCK))
            rng.shuffle(slots)
            columns.append([lo + (hi - lo) * (k + rng.random()) / BLOCK for k in slots])
        yield from zip(*columns)


def _op(workload: str, params: tuple) -> dict:
    if workload == "solve-n3-scan":
        # couplers vary together: the paper device family has one C
        fc, gap, c_ff = params
        return {"config": _parallel(3, (fc - gap / 2, fc + gap / 2), c_ff)}
    if workload == "solve-n4-free":
        fc, gap, c_ff = params
        return {"config": _parallel(4, (fc - gap, fc, fc + gap), c_ff)}
    if workload == "fidelity-n3-pulses":
        alpha_sq, t_us = params
        return {"alpha_sq": round(alpha_sq, 4), "T_us": round(t_us, 4)}
    f_ghz, c_ff = params
    cascade = dict(ACCEPTANCE_CASCADE,
                   cavity={"f_GHz": round(f_ghz, 6), "C_couple_fF": round(c_ff, 3)})
    return {"cascade": cascade}


FIXED_OP = {
    "solve-n3-scan": {"config": PAPER_CONFIG},
    "solve-n4-free": {"config": FOUR_QUBIT_CONFIG},
    "fidelity-n3-pulses": ACCEPTANCE_PULSE,
    "compare-n3-cascade": {"cascade": ACCEPTANCE_CASCADE},
}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` op inputs of a workload; a prefix is seed-stable.

    Op 0 is the workload's fixed acceptance input; later ops are seeded.
    """
    params = _stratified(random.Random(f"{workload}:{seed}"), RANGES[workload])
    return [FIXED_OP[workload]] + [_op(workload, next(params)) for _ in range(count - 1)]


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def prepare(workload: str, index: int, op: dict, work: Path) -> tuple[list, list]:
    """Write the op's input files; return (cli argv, output paths)."""
    if WORKLOADS[workload].solve_op:
        cfg, out = work / f"op{index}.json", work / "solution.json"
        write_json(cfg, op["config"])
        argv = ["solve", str(cfg), "--out", str(out)]
        if workload == "solve-n4-free":
            argv.append("--free-modes")
        return argv, [out]
    if workload == "fidelity-n3-pulses":
        out_json, out_csv = work / "fidelity.json", work / "fidelity.csv"
        argv = ["fidelity", str(work / "paper.json"), str(work / "paper_solution.json"),
                "--alpha-sq", repr(op["alpha_sq"]), "--T-us", repr(op["T_us"]),
                "--out-json", str(out_json), "--out-csv", str(out_csv)]
        return argv, [out_json, out_csv]
    cfg, out = work / f"cascade{index}.json", work / "compare.json"
    write_json(cfg, op["cascade"])
    return ["compare", str(work / "paper.json"), str(cfg), "--out", str(out)], [out]


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def check_paper_solution(sol: dict) -> str | None:
    """The worked design point: 9.804 GHz, 5.77 MHz, |dtheta| = 172.9 deg."""
    f_p, chi = sol["f_p_Hz"] / 1e9, sol["chi_Hz"] / 1e6
    dth = abs(sol["delta_theta_deg"])
    if abs(f_p - 9.804) > 0.005 or abs(chi - 5.77) > 0.15 or abs(dth - 172.9) > 1.0:
        return f"paper point off: f_p={f_p} GHz chi={chi} MHz |dtheta|={dth} deg"
    return None


def check_solution(qp, config: dict, sol: dict) -> str | None:
    """Residuals below 1e-6 rad, recomputed on the device rebuilt from the JSON."""
    n = config["n_qubits"]
    if len(sol["residuals_rad"]) != n - 1 or not _finite(sol):
        return "solution JSON malformed"
    caps = [m["C_couple_fF"] * 1e-15 for m in config["modes"]]
    dev = qp.ParityDevice.equal_coupling(
        n, tuple(qp.Mode(w, c) for w, c in zip(sol["mode_omega_rad_s"], caps)),
        sol["chi_rad_s"], z0=config.get("Z0_ohms", 50.0),
        resonator_model=config.get("resonator_model", "stub"),
        band=tuple(sol["band_rad_s"]))
    worst = float(max(abs(r) for r in qp.eraser_residuals(dev, sol["omega_p_rad_s"])))
    if not worst < 1e-6:
        return f"recomputed residual {worst:.3e} rad >= 1e-6"
    return None


def check_fidelity(index: int, data: dict) -> str | None:
    pairs = data.get("pairs", [])
    if len(pairs) != 6:
        return f"{len(pairs)} pairs, expected 6"
    values = [p["F_numeric"] for p in pairs]
    if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in values):
        return f"F outside [0, 1]: {values}"
    if index == 0:
        cross = max(p["F_numeric"] for p in pairs if p["branch"] == "even-odd")
        if not cross < 2e-4:
            return f"cross-parity F {cross:.3e} >= 2e-4 at alpha^2=5, T=1 us"
    return None


def check_compare(index: int, data: dict) -> str | None:
    keys = ("parallel", "cascade", "b_ratio_parallel_over_cascade",
            "cascade_quadratic_closed_match")
    if any(k not in data for k in keys) or not _finite(data):
        return "comparison JSON malformed or not finite"
    if index == 0:
        par, cas = data["parallel"], data["cascade"]
        worst = max(data["cascade_quadratic_closed_match"].values())
        if not (cas["b_max_s"] <= par["b_max_s"] / 100.0 and cas["b2_max_s2"] > 0.0
                and worst < 1e-4):
            return (f"criterion 9 failed: b cascade {cas['b_max_s']:.3e} vs parallel "
                    f"{par['b_max_s']:.3e}, b2 {cas['b2_max_s2']:.3e}, match {worst:.3e}")
    return None


def check(qp, workload: str, index: int, op: dict, rc: int, outputs: list) -> tuple[str, str | None]:
    """Classify one finished op as ('ok' | 'no_solution' | 'failed', reason).

    Exit 4 on a generated device is an answer, not a failure; on op 0, a
    fixed acceptance input, it is a failure, as are exits 2 and 3.
    """
    if rc == EXIT_NO_SOLUTION and WORKLOADS[workload].solve_op and index > 0:
        return "no_solution", None
    if rc != EXIT_OK:
        return "failed", f"exit code {rc}"
    data = json.loads(outputs[0].read_text())
    if WORKLOADS[workload].solve_op:
        reason = (check_paper_solution(data) if workload == "solve-n3-scan" and index == 0
                  else None) or check_solution(qp, op["config"], data)
    elif workload == "fidelity-n3-pulses":
        reason = check_fidelity(index, data)
        if reason is None and len(outputs[1].read_text().splitlines()) != 7:
            reason = "fidelity CSV does not have 6 rows"
    else:
        reason = check_compare(index, data)
    return ("failed", reason) if reason else ("ok", None)
