"""Eraser condition solver: residual structure, roots, feasibility, reports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qparity.device import Mode, ParityDevice, QubitState
from qparity.eraser import (
    EraserDegenerate,
    EraserSolution,
    InfeasibleDevice,
    NoSolution,
    contrast,
    dispersion_report,
    eraser_residuals,
    make_solution,
    min_modes_required,
    solution_to_dict,
    solve_eraser,
)
from qparity.network import wrap_phase

TWO_PI = 2.0 * math.pi


def two_mode_device(n, chi=TWO_PI * 5e6):
    return ParityDevice.equal_coupling(
        n, (Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15)), chi)


def four_qubit_device():
    """The acceptance 4-qubit device: three modes 30 MHz apart."""
    return ParityDevice.equal_coupling(
        4, tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (9.97, 10.0, 10.03)),
        TWO_PI * 5e6)


# ----------------------------------------------------------------------
# residual structure
# ----------------------------------------------------------------------

def test_residual_count_three_qubits(paper_device):
    r = eraser_residuals(paper_device, TWO_PI * 9.8e9)
    assert len(r) == 2


def test_residual_count_four_qubits():
    dev = ParityDevice.equal_coupling(
        4, (Mode(TWO_PI * 9.97e9, 10e-15), Mode(TWO_PI * 10.0e9, 10e-15),
            Mode(TWO_PI * 10.03e9, 10e-15)), TWO_PI * 8e6)
    assert len(eraser_residuals(dev, TWO_PI * 9.8e9)) == 3


def test_residual_count_single_qubit():
    dev = ParityDevice.equal_coupling(1, (Mode(TWO_PI * 1e10, 1e-14),), TWO_PI * 5e6)
    assert len(eraser_residuals(dev, TWO_PI * 9.8e9)) == 0


def test_residuals_use_weight_pairs(paper_device):
    from qparity.device import phase_for_state

    wp = TWO_PI * 9.82e9
    r = eraser_residuals(paper_device, wp)
    th = [phase_for_state(paper_device, QubitState.of_weight(3, w), wp)
          for w in range(4)]
    assert r[0] == pytest.approx(th[0] - th[2] - TWO_PI, abs=1e-12)
    assert r[1] == pytest.approx(th[1] - th[3] - TWO_PI, abs=1e-12)


# ----------------------------------------------------------------------
# the worked two-mode solution
# ----------------------------------------------------------------------

def test_paper_solution_values(paper_solution):
    f_p = paper_solution.omega_p / TWO_PI
    chi = paper_solution.chi / TWO_PI
    dth = abs(math.degrees(paper_solution.delta_theta))
    assert f_p == pytest.approx(9.804e9, abs=5e6)
    assert chi == pytest.approx(5.77e6, abs=0.15e6)
    assert dth == pytest.approx(172.9, abs=1.0)


def test_solution_verification_loop(paper_solution):
    r = eraser_residuals(paper_solution.device, paper_solution.omega_p)
    assert np.max(np.abs(r)) < 1e-9
    assert tuple(r) == paper_solution.residuals


def test_solution_reports_conventions(paper_solution):
    d = solution_to_dict(paper_solution)
    assert "chi/2pi" in d["chi_convention"]
    assert d["low_contrast"] is False
    assert len(d["basins"]) >= 1


def test_grid_start_independence(paper_device):
    sols = [solve_eraser(paper_device, grid_points=g) for g in (33, 65, 129)]
    fps = [s.omega_p for s in sols]
    chis = [s.chi for s in sols]
    assert max(fps) - min(fps) < TWO_PI * 10.0
    assert max(chis) - min(chis) < TWO_PI * 10.0


def test_permutation_symmetry_of_residuals(paper_device):
    # residuals depend on states only through Hamming weight, so any qubit
    # permutation leaves them exactly unchanged; spot-check via phases
    from qparity.device import phase_for_state

    wp = TWO_PI * 9.81e9
    assert phase_for_state(paper_device, QubitState((0, 0, 1)), wp) \
        == phase_for_state(paper_device, QubitState((1, 0, 0)), wp)


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 2), (4, 3),
                                        (5, 3), (6, 4), (7, 4), (8, 5)])
def test_min_modes_required(n, expected):
    assert min_modes_required(n) == expected


def test_refuses_single_mode_three_qubits():
    dev = ParityDevice.equal_coupling(3, (Mode(TWO_PI * 1e10, 1e-14),), TWO_PI * 5e6)
    with pytest.raises(InfeasibleDevice):
        solve_eraser(dev)


def test_refuses_two_modes_four_qubits():
    dev = ParityDevice.equal_coupling(
        4, (Mode(TWO_PI * 9.99e9, 1e-14), Mode(TWO_PI * 10.01e9, 1e-14)),
        TWO_PI * 5e6)
    with pytest.raises(InfeasibleDevice):
        solve_eraser(dev)


def test_four_qubits_fixed_modes_needs_freed_frequencies():
    dev = ParityDevice.equal_coupling(
        4, (Mode(TWO_PI * 9.97e9, 1e-14), Mode(TWO_PI * 10.0e9, 1e-14),
            Mode(TWO_PI * 10.03e9, 1e-14)), TWO_PI * 8e6)
    with pytest.raises(NoSolution):
        solve_eraser(dev)


def test_solver_requires_equal_chi(paper_device):
    from dataclasses import replace

    rows = list(paper_device.chi_matrix)
    rows[0] = (TWO_PI * 1e6, TWO_PI * 2e6)
    dev = replace(paper_device, chi_matrix=tuple(rows))
    with pytest.raises(ValueError):
        solve_eraser(dev)


# ----------------------------------------------------------------------
# two-qubit and one-qubit cases
# ----------------------------------------------------------------------

def test_two_qubit_brute_force_scan_shows_sign_change():
    # independent existence oracle for the n=2 root: the lone residual
    # changes sign across the omega_p grid at fixed chi
    dev = two_mode_device(2, TWO_PI * 5.5e6)
    wps = TWO_PI * np.linspace(9.75e9, 9.9e9, 1001)
    r = eraser_residuals(dev, wps)[0]
    assert r.min() < 0.0 < r.max()


def test_two_qubit_solution(two_qubit_solution):
    # one condition leaves (omega_p, chi) a root family; the contrast row
    # picks its delta_theta = pi point
    sol = two_qubit_solution
    assert abs(sol.residuals[0]) < 1e-9
    assert abs(abs(sol.delta_theta) - math.pi) < 1e-8


def test_single_qubit_solution_has_no_conditions():
    # no conditions: every point is a root, and the contrast row takes the
    # solve to delta_theta = pi, as tune_cascade does for a cascade cavity
    for model in ("stub", "lumped"):
        for modes in (1, 2, 3):
            dev = ParityDevice.equal_coupling(
                1, tuple(Mode(TWO_PI * (10.0 + 0.02 * k) * 1e9, 1e-14)
                         for k in range(modes)),
                TWO_PI * 5e6, resonator_model=model)
            for free in (("chi",), ("chi", "mode_frequencies")):
                sol = solve_eraser(dev, free=free)
                assert sol.residuals == ()
                assert abs(abs(sol.delta_theta) - math.pi) < 1e-8, (model, modes, free)


@pytest.fixture(scope="module")
def two_qubit_solution():
    return solve_eraser(two_mode_device(2))


def test_two_qubit_stub_device_missed_by_a_chi_scan():
    # a chi-by-chi root search with a golden-section polish returned
    # |delta_theta| = 2.671 rad here; a dense residual scan finds 3.114 rad
    dev = ParityDevice.equal_coupling(
        2, (Mode(TWO_PI * 9.456886e9, 12.6115e-15),
            Mode(TWO_PI * 9.468626e9, 12.6115e-15)), TWO_PI * 5e6)
    sol = solve_eraser(dev)
    assert abs(sol.residuals[0]) < 1e-9
    assert abs(sol.delta_theta) >= 3.11


def test_four_qubit_free_modes_reach_pi():
    # three conditions, four unknowns (omega_p, chi and two gaps): the
    # contrast row closes the system at delta_theta = pi, where the first
    # Gauss-Newton root sat at -74.35 deg
    sol = solve_eraser(four_qubit_device(), free=("chi", "mode_frequencies"))
    assert np.max(np.abs(sol.residuals)) < 1e-9
    assert abs(abs(sol.delta_theta) - math.pi) < 1e-8
    assert sol.basins[0][2] == sol.delta_theta


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    case=st.sampled_from([(2, 2, False), (3, 2, False), (4, 3, True)]),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(9.6, 10.4),
    gap_mhz=st.floats(14.0, 35.0),
    coupler_ff=st.floats(7.0, 13.0),
)
def test_returned_root_reverifies_on_a_rebuilt_device(case, model, f0_ghz, gap_mhz,
                                                      coupler_ff):
    # the solution JSON alone (mode frequencies, chi, band) rebuilds a device
    # on which the probe frequency satisfies every condition
    n, m, free_modes = case
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + k * gap_mhz * 1e6), coupler_ff * 1e-15)
                  for k in range(m))
    dev = ParityDevice.equal_coupling(n, modes, TWO_PI * 5e6, resonator_model=model)
    try:
        sol = solve_eraser(dev, free=("chi", "mode_frequencies") if free_modes
                           else ("chi",))
    except NoSolution:
        assume(False)
    d = solution_to_dict(sol)
    rebuilt = ParityDevice.equal_coupling(
        n, tuple(Mode(w, coupler_ff * 1e-15) for w in d["mode_omega_rad_s"]),
        d["chi_rad_s"], resonator_model=model, band=tuple(d["band_rad_s"]))
    r = eraser_residuals(rebuilt, d["omega_p_rad_s"])
    assert len(r) == n - 1 and np.max(np.abs(r)) < 1e-6


# ----------------------------------------------------------------------
# contrast and dispersion report
# ----------------------------------------------------------------------

def test_contrast_of_synthetic_pi_shift(paper_solution):
    sol = EraserSolution(
        device=paper_solution.device, omega_p=paper_solution.omega_p,
        chi=paper_solution.chi,
        theta_by_weight=(1.0, 1.0 - math.pi, 1.0 - TWO_PI, 1.0 - 3 * math.pi),
        residuals=(0.0, 0.0), delta_theta=math.pi,
        dispersion_b=0.0, dispersion_b2=0.0)
    assert contrast(sol) == pytest.approx(math.pi)


def test_contrast_flags_degenerate(paper_solution):
    sol = EraserSolution(
        device=paper_solution.device, omega_p=paper_solution.omega_p,
        chi=paper_solution.chi,
        theta_by_weight=(1.0, 1.0 - TWO_PI, 1.0 - TWO_PI, 1.0 - 2 * TWO_PI),
        residuals=(0.0, 0.0), delta_theta=0.0,
        dispersion_b=0.0, dispersion_b2=0.0)
    with pytest.raises(EraserDegenerate):
        contrast(sol)


def test_contrast_matches_solution_field(paper_solution):
    assert contrast(paper_solution) == pytest.approx(paper_solution.delta_theta)


def test_dispersion_pair_counting_three_qubits(paper_solution):
    rep = dispersion_report(paper_solution.device, paper_solution)
    assert set(rep.first) == {(0, 2), (1, 3)}


def test_dispersion_b_scale_and_secant_oracle(paper_solution):
    # |b| is of order 1/chi; cross-check one pair against dense-sweep secants
    dev = paper_solution.device
    wp = paper_solution.omega_p
    rep = dispersion_report(dev, paper_solution)
    b02 = rep.first[(0, 2)]
    assert 0.05 / paper_solution.chi < abs(b02) < 20.0 / paper_solution.chi

    from qparity.device import weight_phase_curve

    h = wp * 1e-5
    secants = []
    for w in (0, 2):
        curve = weight_phase_curve(dev, w)
        secants.append((curve.theta(wp + h) - curve.theta(wp - h)) / (2 * h))
    assert b02 == pytest.approx(secants[0] - secants[1], rel=1e-4)


def test_make_solution_rebuilds_the_solved_point(paper_solution):
    sol = make_solution(paper_solution.device, paper_solution.omega_p,
                        paper_solution.basins)
    assert sol == paper_solution


def test_dispersion_report_four_qubit_pair_count():
    from qparity.eraser import _same_parity_pairs

    pairs = _same_parity_pairs(4)
    assert set(pairs) == {(0, 2), (0, 4), (2, 4), (1, 3)}


# ----------------------------------------------------------------------
# solver edge behavior
# ----------------------------------------------------------------------

def test_widely_separated_modes_low_contrast():
    dev = ParityDevice.equal_coupling(
        3, (Mode(TWO_PI * 9.8e9, 10e-15), Mode(TWO_PI * 10.2e9, 10e-15)),
        TWO_PI * 5e6)
    sol = solve_eraser(dev)
    assert np.max(np.abs(sol.residuals)) < 1e-9
    assert abs(sol.delta_theta) < math.radians(30.0)
    assert solution_to_dict(sol)["low_contrast"] is True


def test_solver_rejects_bad_arguments(paper_device):
    with pytest.raises(ValueError):
        solve_eraser(paper_device, free=("mode_frequencies",))
    with pytest.raises(ValueError):
        solve_eraser(paper_device, free=("chi", "z0"))
    with pytest.raises(ValueError):
        solve_eraser(paper_device, tol=1e-15)


def test_theta_by_weight_consistent_with_delta(paper_solution):
    th = paper_solution.theta_by_weight
    assert wrap_phase(th[0] - th[1]) == pytest.approx(paper_solution.delta_theta)


def test_refuses_single_mode_two_qubits():
    dev = ParityDevice.equal_coupling(2, (Mode(TWO_PI * 1e10, 1e-14),), TWO_PI * 5e6)
    with pytest.raises(InfeasibleDevice):
        solve_eraser(dev)


@pytest.mark.parametrize("f0_ghz,split_mhz,cc_ff", [
    (10.644, 22.0, 17.9),
    (10.567, 33.2, 6.9),
    (8.702, 19.9, 18.9),
])
def test_solver_handles_varied_devices(f0_ghz, split_mhz, cc_ff):
    dev = ParityDevice.equal_coupling(
        3, (Mode(TWO_PI * f0_ghz * 1e9, cc_ff * 1e-15),
            Mode(TWO_PI * (f0_ghz + split_mhz * 1e-3) * 1e9, cc_ff * 1e-15)),
        TWO_PI * 5e6)
    sol = solve_eraser(dev)
    r = eraser_residuals(sol.device, sol.omega_p)
    assert np.max(np.abs(r)) < 1e-9
    assert abs(sol.delta_theta) > 0.0


def test_lumped_model_solves_nearby():
    # the lumped-LC representation lands close in (f_p, chi) but reads a
    # couple of degrees higher contrast than the tan-stub form
    dev = ParityDevice.equal_coupling(
        3, (Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15)),
        TWO_PI * 5e6, resonator_model="lumped")
    sol = solve_eraser(dev)
    assert np.max(np.abs(sol.residuals)) < 1e-9
    assert sol.omega_p / TWO_PI == pytest.approx(9.804e9, abs=5e6)
    assert sol.chi / TWO_PI == pytest.approx(5.77e6, abs=0.15e6)
    assert math.degrees(abs(sol.delta_theta)) == pytest.approx(175.0, abs=1.0)


# ----------------------------------------------------------------------
# Gauss-Newton internals
# ----------------------------------------------------------------------

def _cell_by_cell_minima(norm, wps, chi_grid, top_k, fail_norm):
    """Reference rule: cells below fail_norm and no larger than any cell of
    their 3x3 window, sorted by (norm, omega_p), ties in row-major order."""
    cands = []
    for i in range(norm.shape[0]):
        for j in range(norm.shape[1]):
            v = norm[i, j]
            if v < fail_norm and v <= norm[max(0, i - 1):i + 2, max(0, j - 1):j + 2].min():
                cands.append((v, float(wps[j]), float(chi_grid[i])))
    cands.sort(key=lambda t: (t[0], t[1]))
    return cands[:top_k]


@pytest.mark.parametrize("levels", [3, 4, 6])
@pytest.mark.parametrize("seed", range(4))
def test_grid_minima_match_the_cell_by_cell_rule(paper_device, monkeypatch,
                                                  levels, seed):
    # few norm levels make plateaus and exact ties; NaN cells and cells at or
    # above GRID_FAIL_NORM are never basins
    from qparity import eraser

    rng = np.random.default_rng(seed)
    chi_grid = np.geomspace(*eraser.DEFAULT_CHI_RANGE, 9)
    band, points = (TWO_PI * 9.6e9, TWO_PI * 10.4e9), 40
    norm = rng.integers(0, levels, (len(chi_grid), points)) * 0.5
    norm[rng.random(norm.shape) < 0.05] = np.nan
    rows = dict(zip(chi_grid.tolist(), norm))
    monkeypatch.setattr(eraser, "eraser_residuals",
                        lambda dev, wps: rows[dev.chi][None])
    wps = np.linspace(*band, points)
    for top_k in (eraser.GRID_TOP_K, norm.size):  # the solver's cut, then every cell
        monkeypatch.setattr(eraser, "GRID_TOP_K", top_k)
        cands, _ = eraser._grid_candidates(paper_device, band, chi_grid, points)
        expected = _cell_by_cell_minima(norm, wps, chi_grid, top_k,
                                        eraser.GRID_FAIL_NORM)
        assert len(expected) > 0
        assert cands == expected


@pytest.mark.parametrize("free_gaps", [False, True])
def test_jacobian_matches_central_difference(free_gaps):
    from dataclasses import replace

    from qparity.device import weight_phase_curve
    from qparity.eraser import _jacobian, _weight_curves, _with_gaps

    if free_gaps:
        modes = tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (9.97, 10.0, 10.03))
        dev0 = ParityDevice.equal_coupling(4, modes, TWO_PI * 5e6)
        x = TWO_PI * np.array([9.79e9, 16e6, 30e6, 30e6])
    else:
        dev0 = two_mode_device(3)
        x = TWO_PI * np.array([9.804e9, 5.77e6])
    dev0 = replace(dev0, band=(TWO_PI * 9.5e9, TWO_PI * 10.5e9))

    def device(x):
        return (_with_gaps(dev0, x[2:]) if len(x) > 2 else dev0).with_chi(x[1])

    def contrast(x):
        th0, th1 = (weight_phase_curve(device(x), w).theta(x[0]) for w in (0, 1))
        return math.cos(0.5 * (th0 - th1))

    curves = _weight_curves(device(x))
    jac = _jacobian(curves, x[0], free_gaps)
    assert jac.shape == (dev0.n - 1, len(x))
    # given the phases, one more row: the gradient of cos(delta_theta/2)
    full = _jacobian(curves, x[0], free_gaps, [c.theta(x[0]) for c in curves])
    assert np.array_equal(full[:-1], jac)
    h = 1e3
    fd_contrast = []
    for k in range(len(x)):
        step = h * (np.arange(len(x)) == k)
        xp, xm = x + step, x - step
        fd = (eraser_residuals(device(xp), xp[0])
              - eraser_residuals(device(xm), xm[0])) / (2.0 * h)
        assert np.max(np.abs(jac[:, k] - fd)) <= 1e-6 * np.max(np.abs(jac[:, k]))
        fd_contrast.append((contrast(xp) - contrast(xm)) / (2.0 * h))
    assert np.max(np.abs(full[-1] - fd_contrast)) <= 1e-6 * np.max(np.abs(full[-1]))


def _solve_work(dev, monkeypatch, **kwargs):
    """Phase curves built, eraser_residuals calls and root solves in
    qparity.network made by one solve."""
    from collections import Counter

    from qparity import eraser, network

    counts = Counter()
    init = network.PhaseCurve.__init__
    residuals = eraser.eraser_residuals
    root_solve = network.brentq

    def counting_init(self, *args, **kwargs):
        counts["curves"] += 1
        init(self, *args, **kwargs)

    def counting_residuals(*args, **kwargs):
        counts["residuals"] += 1
        return residuals(*args, **kwargs)

    def counting_brentq(*args, **kwargs):
        counts["brentq"] += 1
        return root_solve(*args, **kwargs)

    monkeypatch.setattr(network.PhaseCurve, "__init__", counting_init)
    monkeypatch.setattr(eraser, "eraser_residuals", counting_residuals)
    monkeypatch.setattr(network, "brentq", counting_brentq)
    solve_eraser(dev, **kwargs)
    return counts


def test_paper_solve_work_count(paper_device, monkeypatch):
    # deterministic work bound for one paper n = 3 solve: phase curves built
    # (132 of them on the coarse grid), residual calls (the 33 grid rows)
    # and root solves; rebuilding devices for finite differences breaks the
    # first, and locating branch zeros while building a curve the last
    counts = _solve_work(paper_device, monkeypatch)
    assert counts["curves"] <= 154
    assert counts["residuals"] <= 33
    assert counts["brentq"] == 0


def test_two_qubit_solve_work_count(monkeypatch):
    # the coarse grid (99 curves) and two Gauss-Newton solves from its best
    # basin, onto the root and then to delta_theta = pi: 139 curves; a
    # chi-by-chi root search with a golden-section polish built 233
    counts = _solve_work(two_mode_device(2), monkeypatch)
    assert counts["curves"] <= 250


def test_four_qubit_free_solve_work_count(monkeypatch):
    # the coarse grid at the template spacing (165 curves) and two
    # Gauss-Newton solves from its first basin: 269 curves; least-squares
    # passes over five fixed gap scales before freeing the gaps built 3392
    counts = _solve_work(four_qubit_device(), monkeypatch,
                         free=("chi", "mode_frequencies"))
    assert counts["curves"] <= 300
    assert counts["brentq"] == 0
