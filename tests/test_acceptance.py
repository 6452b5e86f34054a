"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion; any failure raises with the measured values.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from qparity.cli import main
from qparity.device import Mode, ParityDevice, QubitState, build_state_network
from qparity.eraser import eraser_residuals, solve_eraser
from qparity.fidelity import (
    ProbePulse,
    build_mode_grid,
    eraser_quality,
    fidelity_even_odd,
    fidelity_linear_closed,
    fidelity_numeric,
    fidelity_quadratic_closed,
    quadratic_closed_radical,
)
from qparity.cascade import compare_schemes
from qparity.estimates import peak_power, purcell_t1
from qparity.network import phase_sweep, reflection_coefficient

TWO_PI = 2.0 * math.pi

PAPER_CONFIG = {
    "schema_version": "1",
    "n_qubits": 3,
    "modes": [
        {"f_GHz": 9.99, "C_couple_fF": 10.0},
        {"f_GHz": 10.01, "C_couple_fF": 10.0},
    ],
    "chi_MHz": "solve",
    "Z0_ohms": 50.0,
    "resonator_model": "stub",
}


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def solved_via_cli(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    cfg = root / "paper.json"
    cfg.write_text(json.dumps(PAPER_CONFIG))
    out = root / "sol.json"
    t0 = time.perf_counter()
    rc = main(["solve", str(cfg), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return json.loads(out.read_text()), elapsed


@pytest.fixture(scope="module")
def solved_device(solved_via_cli):
    sol, _ = solved_via_cli
    dev = ParityDevice.equal_coupling(
        3,
        tuple(Mode(w, 10e-15) for w in sol["mode_omega_rad_s"]),
        sol["chi_rad_s"],
        band=tuple(sol["band_rad_s"]),
    )
    return dev, sol["omega_p_rad_s"]


@pytest.fixture(scope="module")
def four_qubit_solution():
    dev = ParityDevice.equal_coupling(
        4, (Mode(TWO_PI * 9.97e9, 10e-15), Mode(TWO_PI * 10.0e9, 10e-15),
            Mode(TWO_PI * 10.03e9, 10e-15)), TWO_PI * 8e6)
    t0 = time.perf_counter()
    sol = solve_eraser(dev, free=("chi", "mode_frequencies"))
    return sol, time.perf_counter() - t0


def test_criterion_1_worked_solution(solved_via_cli):
    sol, elapsed = solved_via_cli
    f_p = sol["f_p_Hz"]
    chi = sol["chi_Hz"]
    dth = abs(sol["delta_theta_deg"])
    assert abs(f_p - 9.804e9) < 5e6, f"f_p = {f_p / 1e9} GHz"
    assert abs(chi - 5.77e6) < 0.15e6, f"chi = {chi / 1e6} MHz"
    assert abs(dth - 172.9) < 1.0, f"dtheta = {dth} deg"
    assert elapsed < 60.0, f"solve took {elapsed:.1f} s"
    _report("1", f"f_p={f_p / 1e9:.6f} GHz, chi={chi / 1e6:.4f} MHz, "
                 f"dtheta={dth:.2f} deg, runtime {elapsed:.1f} s "
                 "(chi read as chi/2pi, stub resonator model)")


def test_criterion_2_winding_4pi_every_state(solved_device):
    dev, _ = solved_device
    worst = 0.0
    for k in range(8):
        state = QubitState(tuple(int(b) for b in f"{k:03b}"))
        net = build_state_network(dev, state)
        prof = phase_sweep(net, TWO_PI * 9.6e9, TWO_PI * 10.2e9, z0=dev.z0)
        worst = max(worst, abs(abs(prof.winding) - 4.0 * math.pi))
    assert worst < 1e-3, f"worst |winding - 4pi| = {worst}"
    _report("2", f"all 8 states wind 4pi over 9.6-10.2 GHz "
                 f"(worst deviation {worst:.2e} rad)")


def test_criterion_3_residuals_below_1e6(solved_device):
    dev, omega_p = solved_device
    r = eraser_residuals(dev, omega_p)
    assert np.max(np.abs(r)) < 1e-6, f"residuals {r}"
    _report("3", f"|wt0-wt2-2pi| = {abs(r[0]):.2e}, "
                 f"|wt1-wt3-2pi| = {abs(r[1]):.2e} rad")


def test_criterion_4_four_qubit_feasibility(four_qubit_solution):
    sol, elapsed = four_qubit_solution
    assert elapsed < 600.0, f"solve took {elapsed:.1f} s"
    r = np.abs(sol.residuals)
    assert len(r) == 3 and np.max(r) < 1e-6, f"residuals {r}"
    dev = sol.device
    lo, hi = dev.band
    worst = 0.0
    for w in range(5):
        net = build_state_network(dev, QubitState.of_weight(4, w))
        prof = phase_sweep(net, lo, hi, z0=dev.z0)
        worst = max(worst, abs(abs(prof.winding) - 6.0 * math.pi))
    assert worst < 1e-3, f"worst |winding - 6pi| = {worst}"
    gaps = np.diff([m.omega for m in dev.modes]) / TWO_PI / 1e6
    _report("4", f"3-mode spacings {gaps[0]:.2f}/{gaps[1]:.2f} MHz, "
                 f"max residual {np.max(r):.2e} rad, 6pi winding "
                 f"(worst dev {worst:.2e}), runtime {elapsed:.1f} s")


def test_criterion_5_closed_forms():
    w_band = 1e6
    worst_lin, worst_quad = 0.0, 0.0
    for alpha_sq in (1.0, 5.0, 25.0):
        pulse = ProbePulse(math.sqrt(alpha_sq), TWO_PI * 9.804e9, w_band)
        for x in (0.01, 0.1, 0.5):
            b = x / w_band
            t1 = lambda w: b * (np.asarray(w) - pulse.omega_p)
            t0 = lambda w: np.zeros_like(np.asarray(w, dtype=float))
            d = abs(fidelity_numeric(t1, t0, pulse)
                    - fidelity_linear_closed(pulse.alpha, b, w_band))
            worst_lin = max(worst_lin, d)
            b2 = x / w_band ** 2
            t2 = lambda w: b2 * (np.asarray(w) - pulse.omega_p) ** 2
            d = abs(fidelity_numeric(t2, t0, pulse)
                    - fidelity_quadratic_closed(pulse.alpha, b2, w_band))
            worst_quad = max(worst_quad, d)
    assert worst_lin < 1e-6, f"linear mismatch {worst_lin}"
    assert worst_quad < 1e-6, f"quadratic mismatch {worst_quad}"
    worst_dual = max(
        abs(fidelity_quadratic_closed(math.sqrt(5.0), x / w_band ** 2, w_band)
            - quadratic_closed_radical(math.sqrt(5.0), x / w_band ** 2, w_band))
        for x in np.linspace(0.0, 10.0, 201))
    assert worst_dual < 1e-12, f"dual-form mismatch {worst_dual}"
    _report("5", f"numeric vs closed: linear {worst_lin:.2e}, quadratic "
                 f"{worst_quad:.2e}; dual quadratic forms {worst_dual:.2e}")


def test_criterion_6_even_odd_overlap(solved_device):
    # alpha = 1+2j carries exactly 5 photons, so the closed form is exact
    exact = fidelity_even_odd(1 + 2j, math.pi)
    assert exact == math.exp(-10.0), "closed form not exact"
    dev, omega_p = solved_device
    sol = solve_eraser(dev)  # re-verify on the reconstructed device
    pulse = ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)
    reports = eraser_quality(sol, pulse)
    cross = max(r.f_numeric for r in reports if r.branch == "even-odd")
    assert cross < 2e-4, f"cross-parity F = {cross}"
    _report("6", f"F(pi, 5 photons) = e^-10 exactly; device cross-parity "
                 f"F_numeric max = {cross:.3e} < 2e-4")


def test_criterion_7_estimates():
    t1 = purcell_t1(TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 5.77e6)
    assert 150e-6 < t1 < 210e-6, f"T1 = {t1 * 1e6} us"
    _, dbm = peak_power(5.0, TWO_PI * 9.804e9, 1e-6)
    assert abs(dbm - (-135.0)) < 0.5, f"P = {dbm} dBm"
    _report("7", f"Purcell T1 = {t1 * 1e6:.1f} us in [150, 210]; "
                 f"peak power = {dbm:.2f} dBm within -135+/-0.5")


def test_criterion_8_invariant_suites(solved_device):
    from test_network import random_network

    rng = np.random.default_rng(20260810)
    omegas = TWO_PI * rng.uniform(7e9, 13e9, size=1000)
    worst_r = max(
        abs(abs(reflection_coefficient(random_network(rng), float(omegas[i]), 50.0)) - 1.0)
        for i in range(1000))
    assert worst_r < 1e-9, f"unimodularity violated by {worst_r}"

    dev, omega_p = solved_device
    from qparity.device import state_phase_curve

    collapse_exact = all(
        state_phase_curve(dev, QubitState((0, 1, 1))).theta(w)
        == state_phase_curve(dev, QubitState((1, 0, 1))).theta(w)
        == state_phase_curve(dev, QubitState((1, 1, 0))).theta(w)
        for w in (TWO_PI * 9.7e9, omega_p, TWO_PI * 10.1e9))
    assert collapse_exact, "weight collapse not exact"

    norm = build_mode_grid(TWO_PI * 9.804e9, 1e6).weight_norm
    assert 1.0 - 1e-6 <= norm <= 1.0, f"sum C_i^2 = {norm}"

    pulse = ProbePulse.from_duration(math.sqrt(5.0), omega_p, 1e-6)
    from qparity.device import weight_phase_curve

    t0 = weight_phase_curve(dev, 0).theta
    t2 = weight_phase_curve(dev, 2).theta
    conv = abs(
        fidelity_numeric(t0, t2, pulse, build_mode_grid(omega_p, 1e6, points=4001))
        - fidelity_numeric(t0, t2, pulse, build_mode_grid(omega_p, 1e6, points=8001)))
    assert conv < 1e-8, f"mode-sum convergence {conv}"
    _report("8", f"|r|-1 worst {worst_r:.2e} over 1000 networks; collapse "
                 f"exact; sum C_i^2 = {norm:.9f}; grid convergence {conv:.2e}")


def test_criterion_9_cascade_comparison(solved_device):
    dev, _ = solved_device
    sol = solve_eraser(dev)
    cavity = ParityDevice.equal_coupling(1, (Mode(TWO_PI * 10e9, 10e-15),), sol.chi)
    pulse = ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)
    rep = compare_schemes(sol, cavity, pulse)
    assert rep.cascade.b_max <= rep.parallel.b_max / 100.0, (
        f"b ratio only {rep.b_ratio}")
    assert rep.cascade.b2_max > 0.0
    worst = max(rep.quadratic_match.values())
    assert worst < 1e-4, f"quadratic-form mismatch {worst}"
    _report("9", f"|b| cascade/parallel = {rep.cascade.b_max:.2e}/"
                 f"{rep.parallel.b_max:.2e} (ratio {rep.b_ratio:.1e}); "
                 f"b2 = {rep.cascade.b2_max:.2e} s^2 nonzero; quadratic "
                 f"fidelity match {worst:.2e}")
