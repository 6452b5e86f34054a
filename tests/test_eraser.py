"""Eraser condition solver: residual structure, roots, feasibility, reports."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qparity.device import Mode, NonPositiveResult, ParityDevice, QubitState
from qparity.eraser import (
    EraserDegenerate,
    EraserSolution,
    InfeasibleDevice,
    NoSolution,
    _contrast,
    contrast,
    dispersion_report,
    eraser_residuals,
    min_modes_required,
    solution_to_dict,
    solve_eraser,
)
from qparity.network import NetworkError, wrap_phase

TWO_PI = 2.0 * math.pi


def two_mode_device(n, chi=TWO_PI * 5e6):
    return ParityDevice.equal_coupling(
        n, (Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15)), chi)


def four_qubit_device():
    """The acceptance 4-qubit device: three modes 30 MHz apart."""
    return ParityDevice.equal_coupling(
        4, tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (9.97, 10.0, 10.03)),
        TWO_PI * 5e6)


def _mode_mean(dev0):
    """dev0's mode mean, about which the free-gap solve respaces its modes."""
    return float(np.mean([mo.omega for mo in dev0.modes]))


def _respaced(dev0, gaps):
    """dev0's mode frequencies spaced by ``gaps`` about their mean, as the
    free-gap solve respaces them."""
    from qparity.eraser import _gap_frequencies

    return _gap_frequencies(_mode_mean(dev0), np.asarray(gaps, dtype=float).tolist())


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
    from qparity.device import state_phase_curve

    wp = TWO_PI * 9.82e9
    r = eraser_residuals(paper_device, wp)
    th = [state_phase_curve(paper_device, QubitState.of_weight(3, w)).theta(wp)
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


def test_grid_start_independence(monkeypatch, paper_device):
    # the pole-model grid's densities along chi and omega_p are module
    # constants, both moved here per solve.  The fixed-gap paper solve seeds
    # from the model's roots, not the grid; with its gaps freed the roots
    # form a family, seeded from the grid, and the solve goes to its
    # delta_theta = pi point
    from qparity import eraser

    sols = []
    for chi_points, probe_points in ((33, 65), (65, 129), (129, 257)):
        monkeypatch.setattr(eraser, "GRID_POINTS", chi_points)
        monkeypatch.setattr(eraser, "PROBE_POINTS", probe_points)
        sols.append(solve_eraser(paper_device, free=("chi", "mode_frequencies")))
    assert all(abs(s.delta_theta) == pytest.approx(math.pi, abs=1e-9) for s in sols)
    fps = [s.omega_p for s in sols]
    chis = [s.chi for s in sols]
    assert max(fps) - min(fps) < TWO_PI * 10.0
    assert max(chis) - min(chis) < TWO_PI * 10.0


def test_permutation_symmetry_of_residuals(paper_device):
    # residuals depend on states only through Hamming weight, so any qubit
    # permutation leaves them exactly unchanged; spot-check via phases
    from qparity.device import state_phase_curve

    wp = TWO_PI * 9.81e9
    assert state_phase_curve(paper_device, QubitState((0, 0, 1))).theta(wp) \
        == state_phase_curve(paper_device, QubitState((1, 0, 0))).theta(wp)


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


def test_four_qubits_free_the_gaps_unasked():
    # three conditions outnumber (omega_p, chi): the solver frees the mode
    # gaps itself, so the default free=("chi",) gives the freed solve's
    # every field
    dev = four_qubit_device()
    freed = solution_to_dict(solve_eraser(dev, free=("chi", "mode_frequencies")))
    assert solution_to_dict(solve_eraser(dev)) == freed


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

def test_contrast_of_synthetic_pi_shift():
    # a solution's phases are its device's, so made-up phases go to the
    # contrast rule itself
    assert _contrast((1.0, 1.0 - math.pi, 1.0 - TWO_PI, 1.0 - 3 * math.pi)) == \
        pytest.approx(math.pi)


def test_contrast_flags_degenerate():
    with pytest.raises(EraserDegenerate):
        _contrast((1.0, 1.0 - TWO_PI, 1.0 - TWO_PI, 1.0 - 2 * TWO_PI))


def test_contrast_matches_solution_field(paper_solution):
    assert contrast(paper_solution) == pytest.approx(paper_solution.delta_theta)


def test_dispersion_pair_counting_three_qubits(paper_solution):
    rep = dispersion_report(paper_solution)
    assert set(rep.first) == {(0, 2), (1, 3)}


def test_dispersion_b_scale_and_secant_oracle(paper_solution):
    # |b| is of order 1/chi; cross-check one pair against dense-sweep secants
    dev = paper_solution.device
    wp = paper_solution.omega_p
    rep = dispersion_report(paper_solution)
    b02 = rep.first[(0, 2)]
    assert 0.05 / paper_solution.chi < abs(b02) < 20.0 / paper_solution.chi

    from qparity.device import weight_phase_curve

    h = wp * 1e-5
    secants = []
    for w in (0, 2):
        curve = weight_phase_curve(dev, w)
        secants.append((curve.theta(wp + h) - curve.theta(wp - h)) / (2 * h))
    assert b02 == pytest.approx(secants[0] - secants[1], rel=1e-4)


def test_constructor_rebuilds_the_solved_point(paper_solution):
    sol = EraserSolution(paper_solution.device, paper_solution.omega_p,
                         paper_solution.basins)
    assert sol == paper_solution


def test_weight_readers_refuse_an_unequal_chi_matrix(paper_solution):
    # the paper solution with chi_jk scaled by 1 + 0.01 (j + 1)(k + 1): states
    # of one weight are 0.0906 rad (weight 1) and 0.1482 rad (weight 2) apart
    # at omega_p, so no weight row stands for its states, and every reader
    # of the weight table refuses with one message; the per-state curves
    # still read every state, and show the spreads
    import itertools
    from dataclasses import replace

    from qparity.device import (_weight_fold, _weight_table, loaded_poles_by_weight,
                                state_phase_curve)
    from qparity.fidelity import ProbePulse, eraser_quality

    wp = paper_solution.omega_p
    dev = replace(paper_solution.device, chi_matrix=[
        [c * (1.0 + 0.01 * (j + 1) * (k + 1)) for k, c in enumerate(row)]
        for j, row in enumerate(paper_solution.device.chi_matrix)])
    pulse = ProbePulse.from_duration(math.sqrt(5.0), wp, 1e-6)
    # a solution folds its device when built, so the replace is refused there
    readers = [lambda: _weight_table(dev), lambda: _weight_fold(dev, wp),
               lambda: _weight_fold(dev, wp, jets=True), lambda: eraser_residuals(dev, wp),
               lambda: EraserSolution(dev, wp),
               lambda: dispersion_report(replace(paper_solution, device=dev)),
               lambda: eraser_quality(replace(paper_solution, device=dev), pulse),
               lambda: loaded_poles_by_weight(dev)]
    message = ("weight rows stand for every state only under equal coupling, not this "
               "chi matrix; read each state with state_phase_curve")
    for read in readers:
        with pytest.raises(ValueError) as refused:
            read()
        assert type(refused.value) is ValueError and str(refused.value) == message
    spreads = []
    for w in range(4):
        thetas = [state_phase_curve(dev, QubitState(bits)).theta(wp)
                  for bits in itertools.product((0, 1), repeat=3) if sum(bits) == w]
        spreads.append(max(thetas) - min(thetas))
    assert spreads[0] == spreads[3] == 0.0
    assert spreads[1] == pytest.approx(0.0906, abs=5e-5)
    assert spreads[2] == pytest.approx(0.1482, abs=5e-5)


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
    for tol in (1e-15, 0.1 * math.pi, 0.5, 1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be"):
            solve_eraser(paper_device, tol=tol)


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
    their 3x3 window, sorted by (norm, omega_p), ties in row-major order;
    and the best cell, the first NaN in row-major order if there is one (a
    NaN norm is no better than any), else the first least cell."""
    cands, best = [], None
    for i in range(norm.shape[0]):
        for j in range(norm.shape[1]):
            v = norm[i, j]
            if v < fail_norm and v <= norm[max(0, i - 1):i + 2, max(0, j - 1):j + 2].min():
                cands.append((v, float(wps[j]), float(chi_grid[i])))
            if best is None or not math.isnan(best[0]) and (math.isnan(v) or v < best[0]):
                best = (float(v), float(wps[j]), float(chi_grid[i]))
    cands.sort(key=lambda t: (t[0], t[1]))
    return cands[:top_k], best


@pytest.mark.parametrize("levels", [3, 4, 6])
@pytest.mark.parametrize("seed", range(4))
def test_grid_minima_match_the_cell_by_cell_rule(monkeypatch, levels, seed):
    # few norm levels make plateaus and exact ties; NaN cells and cells at or
    # above GRID_FAIL_NORM are never basins, and a cell beside a NaN is none
    # either; -inf and +inf cells join the levels, and the grid may be a
    # single row or column, or all NaN
    from qparity import eraser

    rng = np.random.default_rng(seed)
    band = (TWO_PI * 9.6e9, TWO_PI * 10.4e9)
    for shape, nan_share in (((9, 40), 0.05), ((1, 40), 0.05), ((9, 1), 0.05),
                             ((9, 40), 1.0)):
        chi_grid = np.geomspace(*eraser.DEFAULT_CHI_RANGE, shape[0])
        norm = rng.integers(0, levels, shape) * 0.5
        norm[rng.random(shape) < 0.05] = -np.inf
        norm[rng.random(shape) < 0.05] = np.inf
        norm[rng.random(shape) < nan_share] = np.nan
        wps = np.linspace(*band, shape[1])
        for top_k in (eraser.GRID_TOP_K, norm.size):  # the solver's cut, then every cell
            monkeypatch.setattr(eraser, "GRID_TOP_K", top_k)
            cands, best_cell = eraser._grid_minima(norm, wps, chi_grid)
            expected, expected_best = _cell_by_cell_minima(norm, wps, chi_grid, top_k,
                                                           eraser.GRID_FAIL_NORM)
            assert (len(expected) > 0) == (nan_share < 1.0)
            assert cands == expected
            assert repr(best_cell) == repr(expected_best)


# ----------------------------------------------------------------------
# the pole-model grid against the exact-curve grid
# ----------------------------------------------------------------------

def _exact_grid_seeds(dev0, band, chi_range, square):
    """eraser._seeds on the exact phase curves: the coarse grid's minima
    whatever ``square``, one device and n + 1 curves per chi row; the
    reference for the solver's pole-model roots and grid."""
    from qparity import eraser
    from qparity.device import weight_phase_curve

    chi_grid = np.geomspace(chi_range[0], chi_range[1], eraser.GRID_POINTS)
    wps = np.linspace(band[0], band[1], eraser.PROBE_POINTS)
    norm = np.empty((len(chi_grid), len(wps)))
    for i, chi in enumerate(chi_grid):
        dev = dev0.with_chi(chi)
        r = eraser_residuals(dev, wps)
        if not len(r):  # n = 1
            th = np.array([weight_phase_curve(dev, w).theta(wps) for w in (0, 1)])
            r = np.cos(0.5 * (th[:1] - th[1:]))
        norm[i] = np.sqrt((r ** 2).sum(axis=0))
    return eraser._grid_minima(norm, wps, chi_grid)


def _solve_or_none(dev, free):
    try:
        return solve_eraser(dev, free=free)
    except NoSolution:
        return None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    case=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]),
    free_modes=st.booleans(),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(9.6, 10.4),
    gap_mhz=st.floats(12.0, 40.0),
    couplers_ff=st.lists(st.floats(6.0, 16.0), min_size=3, max_size=3),
    equal=st.booleans(),
)
# the oracle's contrast Gauss-Newton drove a gap below the float spacing of
# the mode frequencies here, and building that device raised ValueError
@example(case=(3, 3), free_modes=True, model="stub", f0_ghz=10.0,
         gap_mhz=19.321627071538963, couplers_ff=[9.375, 6.9375, 6.40625],
         equal=False)
# known counterexamples, one per way the property fails: on a root family
# whose contrast closure fails, the returned root is where Gauss-Newton first
# lands, which depends on the seed; and at a near-tie the two grids disagree
# on which cell is a local minimum, so each grid can miss a basin the other
# finds
@example(case=(3, 2), free_modes=True, model="stub", f0_ghz=10.0, gap_mhz=12.0,
         couplers_ff=[6.5, 6.0, 6.0], equal=False).xfail(
    reason="score 0.67549 against the oracle's 0.67583 on a family without pi",
    raises=AssertionError)
@example(case=(4, 3), free_modes=True, model="stub", f0_ghz=9.786917109243868,
         gap_mhz=12.40929074281045,
         couplers_ff=[12.015984339091844, 8.248147000656324, 6.0482627588196385],
         equal=False).xfail(
    reason="the model grid misses the exact grid's only verifying basin",
    raises=AssertionError)
def test_pole_model_grid_solves_whatever_the_exact_grid_solves(
        case, free_modes, model, f0_ghz, gap_mhz, couplers_ff, equal):
    # the oracle is the same solve seeded from the exact-curve grid, on a
    # square system (n = 3, fixed modes) too, where the solve seeds from the
    # model's roots; where it verifies a root, the pole-model solve verifies
    # one scoring no lower, and on a square system it finds the oracle's
    # root among its basins
    from qparity import eraser

    n, m = case
    free_modes = free_modes or n == 4
    if equal:
        couplers_ff = [couplers_ff[0]] * 3
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + k * gap_mhz * 1e6), c * 1e-15)
                  for k, c in zip(range(m), couplers_ff))
    dev = ParityDevice.equal_coupling(n, modes, TWO_PI * 5e6, resonator_model=model)
    free = ("chi", "mode_frequencies") if free_modes else ("chi",)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eraser, "_seeds", _exact_grid_seeds)
        oracle = _solve_or_none(dev, free)
    assume(oracle is not None)
    sol = _solve_or_none(dev, free)
    assert sol is not None
    assert np.max(np.abs(sol.residuals), initial=0.0) < eraser.DEFAULT_TOL
    score, oracle_score = (abs(math.sin(0.5 * s.delta_theta)) for s in (sol, oracle))
    assert score >= oracle_score - 1e-9
    if n == 3 and not free_modes:
        assert any(wp == pytest.approx(oracle.omega_p, rel=1e-9)
                   and chi == pytest.approx(oracle.chi, rel=1e-9) for wp, chi, _ in sol.basins)


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("coupler_ff", [5.0, 10.0, 20.0])
@pytest.mark.parametrize("gap_mhz", [10.0, 20.0, 40.0])
def test_two_mode_design_rule(model, coupler_ff, gap_mhz):
    # with zeros at +-a about the probe, the state offsets 3 chi, chi, -chi,
    # -3 chi meet both conditions where 3 chi/(9 chi^2 - a^2) = -chi/(chi^2 - a^2):
    # a = sqrt(3) chi, so chi = gap/(2 sqrt 3), whatever the couplers
    gap = TWO_PI * gap_mhz * 1e6
    dev = ParityDevice.equal_coupling(
        3, (Mode(TWO_PI * 10e9, coupler_ff * 1e-15),
            Mode(TWO_PI * 10e9 + gap, coupler_ff * 1e-15)),
        TWO_PI * 5e6, resonator_model=model)
    sol = solve_eraser(dev)
    assert gap / sol.chi == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-5)


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_pole_model_zeros_and_their_pull(model):
    # z_k is the exact curve's zero, and zeta_k = dz_k/d omega_r its pull,
    # against a central difference of exact zeros
    from qparity.eraser import _pole_model
    from qparity.network import PhaseCurve

    modes = (Mode(TWO_PI * 9.99e9, 8e-15), Mode(TWO_PI * 10.01e9, 12e-15))
    dev = ParityDevice.equal_coupling(3, modes, TWO_PI * 5e6, resonator_model=model)
    z, _, zeta = _pole_model(dev)

    def exact_zero(mode, omega_r):
        band = (0.95 * omega_r, omega_r)
        return PhaseCurve([mode.c_couple], [omega_r], dev.z0, band, model).zeros[0]

    h = TWO_PI * 1e3
    for k, mo in enumerate(modes):
        assert z[k] == pytest.approx(exact_zero(mo, mo.omega), rel=1e-13)
        fd = (exact_zero(mo, mo.omega + h) - exact_zero(mo, mo.omega - h)) / (2 * h)
        assert zeta[k] == pytest.approx(fd, rel=1e-5)


def test_pole_model_slopes_match_central_difference():
    from qparity.eraser import _model_point, _model_thetas, _pole_model

    dev = two_mode_device(3)
    model = _pole_model(dev)
    wp, chi = TWO_PI * 9.803e9, TWO_PI * 5.7e6
    _, d_wp, d_chi = _model_point(model, 3, wp, chi)
    h_wp, h_chi = TWO_PI * 1e3, TWO_PI * 1e2
    fd_wp = (_model_thetas(model, 3, wp + h_wp, chi)
             - _model_thetas(model, 3, wp - h_wp, chi)) / (2 * h_wp)
    fd_chi = (_model_thetas(model, 3, wp, chi + h_chi)
              - _model_thetas(model, 3, wp, chi - h_chi)) / (2 * h_chi)
    assert np.allclose(d_wp, fd_wp, rtol=1e-6, atol=0.0)
    assert np.allclose(d_chi, fd_chi, rtol=1e-6, atol=0.0)


def _model_hexes(point) -> list:
    return [[float(x).hex() for x in entry] for entry in point]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(1.0, 12.0),
    gaps_mhz=st.lists(st.floats(5.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    points=st.lists(st.tuples(st.floats(-0.05, 0.05), st.floats(-3.0, 2.5)),
                    min_size=12, max_size=12),
    on_zero=st.tuples(st.integers(0, 6), st.integers(0, 2), st.floats(-3.0, 2.5)),
)
def test_float_model_point_matches_numpy_scalar_reference(n, m, model, f0_ghz, gaps_mhz,
                                                          couplers_ff, points, on_zero):
    # the model polish's float point against the numpy-scalar loop it
    # replaced (tests/model_reference.py), every entry by .hex(): at random
    # (omega_p, chi) around the zeros, at an offset of exactly 0 (weight w's
    # zero k moved onto omega_p: atan's argument and the slopes are inf or
    # nan there), and at a chi so large that offset**2 overflows
    from model_reference import reference_model_point

    from qparity.eraser import _model_point, _pole_model

    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    pole_model = _pole_model(ParityDevice.equal_coupling(n, modes, TWO_PI * 5e6,
                                                         resonator_model=model))
    z, _, zeta = pole_model
    chis = [10.0 ** (e + 7.0) for _, e in points]
    cases = [(z[0] * (1.0 + rel), chi) for (rel, _), chi in zip(points, chis)]
    w, k, e = on_zero[0] % (n + 1), on_zero[1] % m, on_zero[2]
    chi = 10.0 ** (e + 7.0)
    cases.append((z[k] + (n - 2 * w) * chi * zeta[k], chi))
    cases.append((z[0], 1e200))
    for wp, chi in cases:
        wp, chi = np.float64(wp), np.float64(chi)  # as the polish passes them
        assert (_model_hexes(_model_point(pole_model, n, wp, chi))
                == _model_hexes(reference_model_point(pole_model, n, wp, chi)))
    wp, chi = cases[-2]  # the zero offset leaves weight w's slope non-finite
    assert not np.isfinite(reference_model_point(pole_model, n, wp, chi)[1][w])


@pytest.mark.parametrize("n", [3, 4])
def test_model_grid_folds_every_weight_as_the_weight_loop(paper_device, n):
    # the grid's one broadcast pass over the weight axis against the
    # weight-by-weight loop it replaced (tests/model_reference.py), bit for
    # bit, on the solver's own grid of the paper and the n = 4 device, and
    # at one scalar point with weight 1's zero 0 moved onto omega_p
    from model_reference import reference_model_thetas

    from qparity import eraser

    dev = paper_device if n == 3 else four_qubit_device()
    model = eraser._pole_model(dev)
    search, _ = eraser._solver_band(dev, eraser.DEFAULT_CHI_RANGE)
    chi_grid = np.geomspace(*eraser.DEFAULT_CHI_RANGE, eraser.GRID_POINTS)
    wps = np.linspace(*search, eraser.PROBE_POINTS)
    chi = TWO_PI * 5e6
    for wp, chi in ((wps[None, :], chi_grid[:, None]),
                    (model[0][0] + (n - 2) * chi * model[2][0], chi)):
        th = eraser._model_thetas(model, n, wp, chi)
        expected = reference_model_thetas(model, n, wp, chi)
        assert th.shape == expected.shape
        assert (th.view(np.int64) == expected.view(np.int64)).all()


def test_pole_model_seeds_the_paper_root(paper_device, paper_solution):
    # one model root, the m = 2 closed form: 3e-6 and 4e-6 from the exact
    # root in omega_p and chi (the residues differ by 0.6% and the model
    # keeps only the poles), where exact residuals are 7e-3 rad.  The
    # grid's one basin, polished on the model, is the same point to rounding
    from qparity import eraser

    search, _ = eraser._solver_band(paper_device, eraser.DEFAULT_CHI_RANGE)
    model = eraser._pole_model(paper_device)
    (wp, chi), = eraser._model_roots(model, search, eraser.DEFAULT_CHI_RANGE)
    assert wp == pytest.approx(paper_solution.omega_p, rel=1e-5)
    assert chi == pytest.approx(paper_solution.chi, rel=1e-5)
    r = eraser_residuals(paper_device.with_chi(chi), wp)
    assert np.max(np.abs(r)) < 1e-2
    (_, wp_grid, chi_grid), = eraser._seeds(paper_device, search, eraser.DEFAULT_CHI_RANGE,
                                            square=False)[0]
    assert wp == pytest.approx(wp_grid, rel=1e-15)
    assert chi == pytest.approx(chi_grid, rel=1e-13)


@pytest.mark.parametrize("d_wp_hz, d_chi_hz, basins", [
    (5e3, 0.0, 1), (20e3, 0.0, 2), (0.0, 0.5e3, 1), (0.0, 2e3, 2)],
    ids=["wp-5kHz", "wp-20kHz", "chi-500Hz", "chi-2kHz"])
def test_assemble_ranks_roots_closer_than_the_root_rule_as_one_basin(
        paper_device, paper_solution, d_wp_hz, d_chi_hz, basins):
    # _same_root, the one root identity of _model_roots and _assemble:
    # verified roots within 10 kHz in omega_p and 1 kHz in chi are one
    # basin, the first one met; farther apart, both are ranked
    from qparity import eraser
    from qparity.device import _weight_fold

    x = np.array([paper_solution.omega_p, paper_solution.chi])
    xs = [x, x + TWO_PI * np.array([d_wp_hz, d_chi_hz])]
    roots = [(y, _weight_fold(paper_device.with_chi(y[1]), y[0], jets=True)) for y in xs]
    sol = eraser._assemble(paper_device, _mode_mean(paper_device), roots, eraser.DEFAULT_TOL)
    assert sorted((wp, chi) for wp, chi, _ in sol.basins) == [tuple(y) for y in xs[:basins]]


def _random_two_to_four_mode_device(m: int, seed: int):
    """An n = 3 device on m random modes: 1-12 GHz, gaps of 5-60 MHz,
    couplers of 3-20 fF, the stub or the lumped model."""
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0.0], np.cumsum(rng.uniform(5.0, 60.0, m - 1))])
    f0 = rng.uniform(1.0, 12.0)
    modes = tuple(Mode(TWO_PI * (f0 * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, rng.uniform(3.0, 20.0, m)))
    return ParityDevice.equal_coupling(3, modes, TWO_PI * 5e6,
                                       resonator_model=rng.choice(["stub", "lumped"]))


def _dense_model_grid_roots(monkeypatch, model, band, chi_range, rows=600, cols=4000):
    """Every root the model polish reaches from each local minimum of the
    residual norm on a dense rows x cols grid over the box (_grid_minima,
    uncut): full Newton steps on the model until none lowers |r|, kept where
    max|r| < 1e-9 rad.  The grid is built 50 chi rows at a time."""
    from qparity import eraser

    chi_grid = np.geomspace(*chi_range, rows)
    wps = np.linspace(*band, cols)
    norm = np.empty((rows, cols))
    for a in range(0, rows, 50):
        r = eraser._residuals(eraser._model_thetas(model, 3, wps[None, :],
                                                   chi_grid[a:a + 50, None]))
        norm[a:a + 50] = np.sqrt((r ** 2).sum(axis=0))
    monkeypatch.setattr(eraser, "GRID_TOP_K", norm.size)
    evaluate, point = eraser._model_stage(model, 3, band, chi_range)
    roots = []
    for _, wp, chi in eraser._grid_minima(norm, wps, chi_grid)[0]:
        x0 = np.array([wp, chi])
        x, r, _ = eraser._newton(evaluate, (x0, *point(x0)), 30, 0.0, 1.0)
        if np.max(np.abs(r)) < 1e-9:
            roots.append(x.tolist())
    return roots


def _model_residuals(model, wp, chi):
    from qparity import eraser

    return eraser._residuals(eraser._model_point(model, 3, wp, chi)[0])


@pytest.mark.parametrize("seed", [0, 2])  # devices whose box holds a root for each m
@pytest.mark.parametrize("m", [2, 3, 4])
def test_model_roots_hold_every_root_a_dense_model_grid_reaches(monkeypatch, m, seed):
    # the resultant (the closed form on two modes) against a 600 x 4000
    # grid over the same box, each of its local minima polished on the model
    from qparity import eraser

    dev = _random_two_to_four_mode_device(m, seed)
    model = eraser._pole_model(dev)
    band, _ = eraser._solver_band(dev, eraser.DEFAULT_CHI_RANGE)
    roots = eraser._model_roots(model, band, eraser.DEFAULT_CHI_RANGE)
    assert roots == sorted(roots)
    for wp, chi in roots:
        assert band[0] < wp < band[1]
        assert eraser.DEFAULT_CHI_RANGE[0] <= chi <= eraser.DEFAULT_CHI_RANGE[1]
        assert np.max(np.abs(_model_residuals(model, wp, chi))) < 1e-9
    dense = _dense_model_grid_roots(monkeypatch, model, band, eraser.DEFAULT_CHI_RANGE)
    assert dense
    for wp, chi in dense:
        assert any(wp == pytest.approx(w, rel=1e-9) and chi == pytest.approx(c, rel=1e-6)
                   for w, c in roots), (wp, chi, roots)


@pytest.mark.parametrize("seed", range(4))
def test_model_roots_skip_a_point_where_denominators_vanish(seed):
    # four zeros placed so that, at (wp, chi), weights 0 and 2 each sit on a
    # zero (one y_w denominator of each term of the (0, 2) condition is 0)
    # and so do weights 3 and 1: clearing the denominators makes it a root
    # of both polynomial conditions, while the model's own residuals are
    # 2 pi there (the zero counts are off).  It is never returned, and every
    # returned root keeps each weight off its zeros
    from qparity import eraser

    rng = np.random.default_rng(seed)
    wp, chi = TWO_PI * 10e9, TWO_PI * 5e6
    zeta, z0k = rng.uniform(0.9, 1.0, 4), -rng.uniform(1e7, 6e7, 4)
    z = wp + chi * np.array([-3.0, 1.0, 3.0, -1.0]) * zeta
    order = np.argsort(z)
    model = np.array([z[order], z0k[order], zeta[order]])
    band = (z.min() - TWO_PI * 150e6, z.max() + TWO_PI * 150e6)

    def cleared(sign):
        c = wp - model[0]
        pairs = (c - 3 * sign * chi * model[2]) * (c + sign * chi * model[2])
        return sum(model[1][k] * model[2][k] * np.prod(np.delete(pairs, k)) for k in range(4))

    scale = np.max(np.abs(model[1])) * (np.max(np.abs(wp - model[0])) + 3 * chi) ** 6
    assert abs(cleared(1.0)) < 1e-12 * scale and abs(cleared(-1.0)) < 1e-12 * scale
    assert np.abs(_model_residuals(model, wp, chi)) == pytest.approx([TWO_PI] * 2)
    roots = eraser._model_roots(model, band, eraser.DEFAULT_CHI_RANGE)
    assert roots
    for w, c in roots:
        assert abs(w - wp) > TWO_PI * 1e3 or abs(c - chi) > TWO_PI * 1e3
        assert np.max(np.abs(_model_residuals(model, w, c))) < 1e-9
        offsets = w - (model[0] + np.array([[3.0], [1.0], [-1.0], [-3.0]]) * c * model[2])
        assert np.min(np.abs(offsets)) > 1e-6 * np.ptp(model[0])


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_two_mode_model_root_is_the_design_rule(model):
    # m = 2 in closed form: with equal residues and pulls the probe sits
    # midway between the zeros and chi = (zero spacing)/(2 sqrt 3 zeta);
    # on equal-coupler devices chi = gap/(2 sqrt 3) to the residues' and
    # pulls' spread, 2e-5 at a 40 MHz gap
    from qparity import eraser

    z, k, zeta = TWO_PI * 10e9, -3.7e7, 0.96
    for spacing in (TWO_PI * 10e6, TWO_PI * 40e6):
        symmetric = np.array([[z, z + spacing], [k, k], [zeta, zeta]])
        band = (z - TWO_PI * 200e6, z + TWO_PI * 200e6)
        (wp, chi), = eraser._model_roots(symmetric, band, eraser.DEFAULT_CHI_RANGE)
        assert wp == pytest.approx(z + 0.5 * spacing, rel=1e-15)
        assert chi == pytest.approx(spacing / (2.0 * math.sqrt(3.0) * zeta), rel=1e-13)
    for coupler_ff in (5.0, 10.0, 20.0):
        for gap_mhz in (10.0, 20.0, 40.0):
            gap = TWO_PI * gap_mhz * 1e6
            dev = ParityDevice.equal_coupling(
                3, (Mode(TWO_PI * 10e9, coupler_ff * 1e-15),
                    Mode(TWO_PI * 10e9 + gap, coupler_ff * 1e-15)),
                TWO_PI * 5e6, resonator_model=model)
            band, _ = eraser._solver_band(dev, eraser.DEFAULT_CHI_RANGE)
            (wp, chi), = eraser._model_roots(eraser._pole_model(dev), band,
                                             eraser.DEFAULT_CHI_RANGE)
            assert gap / chi == pytest.approx(2.0 * math.sqrt(3.0), rel=2e-5)


def _refusing_point(case):
    """(template, omega_p, chi, gaps) of a solver point whose weight curves
    refuse to build or to give jets; the template pulls by 5 MHz, not by the
    point's chi, since a point's fold reads neither its chi nor a band."""
    band = (TWO_PI * 0.5e9, TWO_PI * 20e9)
    paper = [(9.99, 10e-15), (10.01, 10e-15)]
    low = [(1.0, 10e-15), (1.01, 10e-15)]
    three = [(9.97, 10e-15), (10.0, 10e-15), (10.03, 10e-15)]
    # a mode 1 ulp above a 1 MHz chi: weight 2 of 3 pulls it to 1e-9 rad/s,
    # where a 1e-300 ohm tank's C overflows, and weight 3 below zero
    ulp_above = np.nextafter(TWO_PI * 1e6, np.inf) / TWO_PI / 1e9
    spec = {"pull-below-zero": (4, low, 50.0, "stub", 400e6),
            "jets-overflow": (3, [(9.99, 1e285), (10.01, 10e-15)], 50.0, "stub", 5.77e6),
            "no-lumped-tank": (3, paper, 1e-300, "lumped", 5.77e6),
            "z0-squared": (3, paper, 1e155, "stub", 5.77e6),
            "mode-below-zero": (4, three, 50.0, "stub", 5.77e6),
            # a weight's curve refuses its own table before a later weight's pull
            "z0-squared-before-pull": (4, low, 1e155, "stub", 400e6),
            "tank-before-pull": (3, [(ulp_above, 10e-15)], 1e-300, "lumped", 1e6)}[case]
    n, modes, z0, model, chi_hz = spec
    dev0 = ParityDevice.equal_coupling(
        n, tuple(Mode(TWO_PI * f * 1e9, c) for f, c in modes), TWO_PI * 5e6, z0=z0,
        resonator_model=model, band=band)
    gaps = TWO_PI * np.array([20e9, 20e9]) if case == "mode-below-zero" else None
    return dev0, TWO_PI * (1e9 if modes is low else 9.8e9), TWO_PI * chi_hz, gaps


REFUSALS = {
    "pull-below-zero": "shifts drove mode frequency",
    "jets-overflow": "phase derivatives at omega=",
    "no-lumped-tank": "no lumped equivalent in float range",
    "z0-squared": "need 0 < z0 with z0**2 in float range",
    "mode-below-zero": "mode omega must be finite and > 0",
    "z0-squared-before-pull": "need 0 < z0 with z0**2 in float range",
    "tank-before-pull": "no lumped equivalent in float range",
}
# the stacked table refuses every pull to or below zero before any table
# check, where building the curves in weight order meets a table first
PULL_FIRST = {"z0-squared-before-pull", "tank-before-pull"}


@pytest.mark.parametrize("case, exc", [
    ("pull-below-zero", NonPositiveResult),
    ("jets-overflow", NetworkError),
    ("no-lumped-tank", ValueError),
    ("z0-squared", ValueError),
    ("mode-below-zero", ValueError),
    ("z0-squared-before-pull", ValueError),
    ("tank-before-pull", ValueError),
])
def test_curve_free_evaluation_refuses_as_the_curves_do(case, exc):
    # a Gauss-Newton start folds its weight rows without building a device
    # or a curve, whatever the search box, and still ends in the exception
    # and message that building that device and each weight's curve, and
    # reading its jets, did, except that a pull to or below zero comes first
    from qparity.device import _pulled_rows, weight_phase_curve
    from qparity.eraser import DEFAULT_CHI_RANGE, _exact_stage

    dev0, wp, chi, gaps = _refusing_point(case)
    omegas = None if gaps is None else _respaced(dev0, gaps)
    with pytest.raises(exc, match=re.escape(REFUSALS[case])) as curve_path:
        dev = dev0 if omegas is None else dev0.with_mode_frequencies(omegas)
        dev = dev.with_chi(chi)
        for w in range(dev.n + 1):
            weight_phase_curve(dev, w).jets(wp)
    _, start = _exact_stage(dev0, _mode_mean(dev0), dev0.band, DEFAULT_CHI_RANGE)
    with pytest.raises(exc) as stacked:
        start(np.array([wp, chi, *([] if gaps is None else gaps)]))
    expected = curve_path.value
    if case in PULL_FIRST:
        # the first pull to or below zero in weight, then mode, order
        with pytest.raises(NonPositiveResult) as pull:
            for w in range(dev.n + 1):
                signs = [-1.0 if b else 1.0 for b in QubitState.of_weight(dev.n, w).bits]
                _pulled_rows([mo.omega for mo in dev.modes], dev.chi_matrix, [signs])
        expected = pull.value
    assert type(stacked.value) is type(expected)
    assert str(stacked.value) == str(expected)


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("free_gaps", [False, True])
def test_weight_fold_reads_no_band(model, free_gaps):
    # phases hold at any omega > 0, so a point's theta and jets are the same
    # bits whatever band its device carries, none included (the default
    # band of a 500 MHz device reaches f < 0); a solver point's fold of its
    # weight rows reads them too, whatever band its template carries and
    # whatever chi it pulls by; probes inside, beside and beyond every band
    from qparity.device import _rows_jets, _weight_fold, _weight_rows

    freqs = (9.97, 10.0, 10.03) if free_gaps else (9.99, 10.01)
    modes = tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in freqs)
    n, chi = (4, TWO_PI * 5.49e6) if free_gaps else (3, TWO_PI * 5.77e6)
    bands = [None, (TWO_PI * 9.5e9, TWO_PI * 10.5e9), (TWO_PI * 1e6, TWO_PI * 1e12),
             (TWO_PI * 11e9, TWO_PI * 12e9)]
    templates = [ParityDevice.equal_coupling(n, modes, c, resonator_model=model, band=b)
                 for b in bands for c in (chi, TWO_PI * 500e6)]
    omegas = (_respaced(templates[0], TWO_PI * np.array([16e6, 30e6])) if free_gaps
              else [mo.omega for mo in modes])
    rows = _weight_rows(omegas, chi, n)
    grid = TWO_PI * np.linspace(9.7e9, 10.3e9, 61)
    probes = TWO_PI * np.array([9.804e9, 10.6e9, 20e9, 0.2e9])
    reference = templates[0].with_mode_frequencies(omegas).with_chi(chi)
    theta = _weight_fold(reference, grid)
    jets = [_weight_fold(reference, wp, jets=True) for wp in probes]
    for dev0 in templates:
        dev = dev0.with_mode_frequencies(omegas).with_chi(chi)
        assert np.array_equal(_weight_fold(dev, grid), theta)
        for wp, want in zip(probes, jets):
            for got in (_weight_fold(dev, wp, jets=True), _rows_jets(dev0, rows, wp)):
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mean_ghz=st.floats(0.1, 20.0),
       gaps_mhz=st.lists(st.one_of(st.floats(1e-3, 500.0), st.sampled_from([1e-9, 3e3])),
                         min_size=1, max_size=11))
def test_gap_frequencies_are_the_numpy_respacing(mean_ghz, gaps_mhz):
    # the free-gap respacing runs on Python floats: the bits of the numpy
    # form it replaced (offsets by cumsum, less their np.mean, plus the
    # mean), for 2 to 12 modes, on both sides of np.mean's switch from
    # adding in order to adding pairwise at 8 terms
    from qparity.eraser import _gap_frequencies

    mean, gaps = TWO_PI * mean_ghz * 1e9, [TWO_PI * g * 1e6 for g in gaps_mhz]
    offs = np.concatenate([[0.0], np.cumsum(gaps)])
    offs -= offs.mean()
    want = mean + offs
    assert [x.hex() for x in _gap_frequencies(mean, gaps)] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("free_gaps", [False, True])
def test_jacobian_matches_central_difference(free_gaps):
    from dataclasses import replace

    from qparity.device import weight_phase_curve
    from qparity.device import _weight_fold
    from qparity.eraser import _jacobian

    if free_gaps:
        modes = tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (9.97, 10.0, 10.03))
        dev0 = ParityDevice.equal_coupling(4, modes, TWO_PI * 5e6)
        x = TWO_PI * np.array([9.79e9, 16e6, 30e6, 30e6])
    else:
        dev0 = two_mode_device(3)
        x = TWO_PI * np.array([9.804e9, 5.77e6])
    dev0 = replace(dev0, band=(TWO_PI * 9.5e9, TWO_PI * 10.5e9))

    def device(x):
        if len(x) > 2:
            return dev0.with_mode_frequencies(_respaced(dev0, x[2:])).with_chi(x[1])
        return dev0.with_chi(x[1])

    def contrast(x):
        th0, th1 = (weight_phase_curve(device(x), w).theta(x[0]) for w in (0, 1))
        return math.cos(0.5 * (th0 - th1))

    jets = _weight_fold(device(x), x[0], jets=True)
    jac = _jacobian(jets, free_gaps)
    assert jac.shape == (dev0.n - 1, len(x))
    # with the contrast row, one more row: the gradient of cos(delta_theta/2)
    full = _jacobian(jets, free_gaps, contrast=True)
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


# ----------------------------------------------------------------------
# the one Newton loop, and the exact stage's domain
# ----------------------------------------------------------------------

def _one_unknown(residual, derivative, visited, inside=lambda x: True):
    """(evaluate, point) for _newton on one unknown: point(x) gives the
    residual and its Jacobian at x, x kept, and appends x to ``visited``;
    evaluate(x) is point(x) where inside(x) holds, else None."""
    def point(x):
        visited.append(float(x[0]))
        return np.array([residual(x[0])]), lambda: np.array([[derivative(x[0])]]), float(x[0])

    return (lambda x: point(x) if inside(x) else None), point


def _start(point, x0: float):
    """_newton's start: the point x0 and what point gives there."""
    x = np.array([x0])
    return (x, *point(x))


def test_newton_evaluates_its_start_point_outside_the_domain():
    # grid seeds may sit on the band's edges: the start comes evaluated as
    # given, and only trial points are screened
    from qparity.eraser import _newton

    visited = []
    evaluate, point = _one_unknown(lambda x: x - 3.0, lambda x: 1.0, visited, lambda x: False)
    x, r, kept = _newton(evaluate, _start(point, -1.0), 30, 1e-9, 1e-10)
    assert visited == [-1.0] and kept == -1.0
    assert x.tolist() == [-1.0] and r.tolist() == [-4.0]


def test_newton_full_steps_stop_at_the_first_rejected_step():
    # Newton on atan from 2 overshoots to -3.5, where |atan| is larger: with
    # full steps only (the model stage) that ends the loop, and halving (the
    # exact stage) goes on to the root
    from qparity.eraser import _newton

    visited = []
    newton_atan, point = _one_unknown(math.atan, lambda x: 1.0 / (1.0 + x * x), visited)
    x, r, _ = _newton(newton_atan, _start(point, 2.0), 8, 0.0, 1.0)
    assert x.tolist() == [2.0] and len(visited) == 2
    assert abs(math.atan(visited[1])) > math.atan(2.0)
    x, r, _ = _newton(newton_atan, _start(point, 2.0), 30, 1e-12, 1e-10)
    assert abs(r[0]) < 1e-12
    # a full step outside the domain ends it too, unevaluated
    visited.clear()
    newton_atan, point = _one_unknown(math.atan, lambda x: 1.0 / (1.0 + x * x), visited,
                                      lambda x: x[0] > 0.0)
    x, _, _ = _newton(newton_atan, _start(point, 2.0), 8, 0.0, 1.0)
    assert x.tolist() == [2.0] and visited == [2.0]


@pytest.mark.parametrize("shortest, fractions", [(1e-10, 34), (1.0, 1)])
def test_newton_halving_ends_below_the_shortest_step(shortest, fractions):
    # every trial point is screened out: the steps tried are the Newton step
    # times 1, 1/2, ..., down to the last fraction at least ``shortest``
    # (2**-33 > 1e-10 > 2**-34)
    from qparity.eraser import _newton

    tried, visited = [], []

    def inside(x):
        tried.append(float(x[0]))
        return False

    evaluate, point = _one_unknown(lambda x: x - 1.0, lambda x: 1.0, visited, inside)
    _newton(evaluate, _start(point, 0.0), 30, 1e-9, shortest)
    assert tried == [2.0 ** -k for k in range(fractions)]
    assert visited == [0.0]


def test_newton_never_evaluates_a_trial_that_rounds_back_to_x():
    # above 2**53 the float spacing is 2.  With r = (x - 2**53) - 1.5 the
    # step 1.5 lands on 2**53 + 2 and is taken; the next step, -0.5, rounds
    # back to that x, and so would every shorter one: the loop ends there
    # unevaluated.  With r = (x - 2**53) - 0.9 no trial leaves the start
    from qparity.eraser import _newton

    top = 2.0 ** 53
    for offset, expected in ((1.5, [top, top + 2.0]), (0.9, [top])):
        visited = []
        evaluate, point = _one_unknown(lambda x: (x - top) - offset, lambda x: 1.0, visited)
        x, _, _ = _newton(evaluate, _start(point, top), 30, 1e-12, 1e-10)
        assert visited == expected and x.tolist() == expected[-1:]


def test_newton_tol_stops_the_loop_before_a_step():
    from qparity.eraser import _newton

    steps = []

    def evaluate(x):
        def jacobian():
            steps.append(float(x[0]))
            return np.array([[1.0], [0.0]])

        return np.array([x[0] - 1.0, 2e-10]), jacobian, None

    start = np.array([1.0 + 5e-10])
    x, r, _ = _newton(evaluate, (start, *evaluate(start)), 30, 1e-9, 1e-10)
    assert steps == [] and x.tolist() == start.tolist()
    # max|r| is not below a tol equal to it, and a tol of 0 never stops it
    for tol in (start[0] - 1.0, 0.0):
        steps.clear()
        x, r, _ = _newton(evaluate, (start, *evaluate(start)), 30, tol, 1e-10)
        assert steps[0] == start[0]
        assert abs(x[0] - 1.0) < 1e-15 and r[1] == 2e-10


def test_newton_ends_where_least_squares_fails():
    # lstsq raises LinAlgError on a nan Jacobian; the loop returns its start
    from qparity.eraser import _newton

    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(np.array([[math.nan]]), np.array([1.0]), rcond=None)
    visited = []
    evaluate, point = _one_unknown(lambda x: x - 1.0, lambda x: math.nan, visited)
    x, r, _ = _newton(evaluate, _start(point, 0.0), 30, 1e-9, 1e-10)
    assert visited == [0.0] and x.tolist() == [0.0] and r.tolist() == [-1.0]


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("n, free_gaps", [(3, False), (4, True)])
def test_exact_stage_domain_is_where_the_weight_table_refuses(model, n, free_gaps):
    # chi steps ulp by ulp about omega_low/n, so the lowest mode's weight-n
    # pull runs through zero a few ulps each side: a trial point is outside
    # the domain exactly where the point's stacked weight table refuses it
    from qparity.device import _weight_table
    from qparity.eraser import DEFAULT_CHI_RANGE, _exact_stage

    band = (TWO_PI * 0.1e9, TWO_PI * 2e9)
    modes = tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (0.6, 0.62, 0.64))
    dev0 = ParityDevice.equal_coupling(n, modes, TWO_PI * 5e6, resonator_model=model,
                                       band=band)
    evaluate, _ = _exact_stage(dev0, _mode_mean(dev0), band, DEFAULT_CHI_RANGE)
    gaps = TWO_PI * np.array([25e6, 15e6]) if free_gaps else np.array([])
    point_dev = dev0.with_mode_frequencies(_respaced(dev0, gaps)) if free_gaps else dev0
    chi = point_dev.modes[0].omega / n
    for _ in range(8):
        chi = np.nextafter(chi, 0.0)
    refusals = []
    for _ in range(17):
        try:
            _weight_table(point_dev.with_chi(chi))
            refusals.append(False)
        except NonPositiveResult:
            refusals.append(True)
        assert (evaluate(np.array([TWO_PI * 0.65e9, chi, *gaps])) is None) == refusals[-1]
        chi = np.nextafter(chi, np.inf)
    assert refusals[0] is False and refusals[-1] is True  # the pull crossed zero


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    case=st.sampled_from([(3, 2), (3, 3), (4, 3)]),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(0.3, 1.3),
    gap_ghz=st.floats(0.001, 0.05),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
)
# trial steps pulled the lowest mode below zero here, and the solve raised
# NonPositiveResult ("shifts drove mode frequency to ...")
@example(case=(4, 3), model="stub", f0_ghz=0.6537931765382204,
         gap_ghz=0.017653057358439837,
         couplers_ff=[15.788318928102584, 13.857957961873346, 4.954421896632994])
@example(case=(3, 2), model="lumped", f0_ghz=0.3422961048077406,
         gap_ghz=0.015606405350742442,
         couplers_ff=[6.786909522645731, 11.604688928540604, 3.0])
def test_low_frequency_free_gap_solve_ends_in_a_root_or_a_refusal(case, model, f0_ghz,
                                                                  gap_ghz, couplers_ff):
    # modes low enough for n chi to reach them: no trial step aborts a solve
    n, m = case
    modes = tuple(Mode(TWO_PI * (f0_ghz + k * gap_ghz) * 1e9, c * 1e-15)
                  for k, c in zip(range(m), couplers_ff))
    dev = ParityDevice.equal_coupling(n, modes, TWO_PI * 5e6, resonator_model=model)
    try:
        sol = solve_eraser(dev, free=("chi", "mode_frequencies"))
    except (NoSolution, InfeasibleDevice):
        return
    assert np.max(np.abs(sol.residuals)) < 1e-9
    assert np.max(np.abs(eraser_residuals(sol.device, sol.omega_p))) < 1e-9


def _solve_work(dev, monkeypatch, **kwargs):
    """Work of one CLI solve payload, solve_eraser then solution_to_dict:
    phase curves built, eraser_residuals calls and network-tree evaluations
    (network._impedance_parts, which every point and root solve of the
    oracle sweep goes through) over both, the fold passes of solve_eraser
    (every call of the theta fold _fold or the float fold _jets, at either
    order: one stacked fold of every weight counts one) and those of
    solution_to_dict.  "jets" and "solve_jets" count the order-2 _jets
    passes among those fold passes on their own, "pole_passes" the order-1
    passes of solution_to_dict (the loaded-pole search's), and
    "zero_passes" and "solve_zero_passes" the bracketed Newton passes of
    the series-zero search (network._series_zeros: every Newton pass calls
    _pair_factors once, and only a zero pass does so outside _jets).  All
    are patched where qparity.network resolves them, which every caller
    goes through."""
    from collections import Counter

    from qparity import eraser, network

    counts = Counter()
    init = network.PhaseCurve.__init__
    residuals = eraser.eraser_residuals
    tree = network._impedance_parts
    pair_factors = network._pair_factors

    def counting_init(self, *args, **kwargs):
        counts["curves"] += 1
        init(self, *args, **kwargs)

    def counting_residuals(*args, **kwargs):
        counts["residuals"] += 1
        return residuals(*args, **kwargs)

    def counting_tree(*args, **kwargs):
        counts["tree evaluations"] += 1
        return tree(*args, **kwargs)

    def counting_pair_factors(*args, **kwargs):
        counts["zero_passes"] += 1
        return pair_factors(*args, **kwargs)

    fold, jets = network._fold, network._jets

    def counting_fold(*args, **kwargs):
        counts["folds"] += 1
        return fold(*args, **kwargs)

    def counting_jets(stub, z0, rows, ws, order):
        counts["folds"] += 1
        counts["jets"] += order == 2
        counts["pole_passes"] += order == 1
        counts["zero_passes"] -= 1
        return jets(stub, z0, rows, ws, order)

    monkeypatch.setattr(network.PhaseCurve, "__init__", counting_init)
    monkeypatch.setattr(eraser, "eraser_residuals", counting_residuals)
    monkeypatch.setattr(network, "_impedance_parts", counting_tree)
    monkeypatch.setattr(network, "_pair_factors", counting_pair_factors)
    monkeypatch.setattr(network, "_fold", counting_fold)
    monkeypatch.setattr(network, "_jets", counting_jets)
    sol = solve_eraser(dev, **kwargs)
    solve_curves, counts["solve_folds"] = counts["curves"], counts["folds"]
    counts["solve_jets"] = counts["jets"]
    counts["solve_zero_passes"] = counts["zero_passes"]
    assert counts["pole_passes"] == 0  # no solver step locates a pole
    eraser.solution_to_dict(sol)
    counts["pole_curves"] = counts["curves"] - solve_curves
    counts["curves"] = solve_curves
    counts["folds"] -= counts["solve_folds"]
    counts["jets"] -= counts["solve_jets"]
    counts["zero_passes"] -= counts["solve_zero_passes"]
    return counts


def test_free_gap_solve_pays_once_per_point(monkeypatch):
    # every point of the n = 4 free-gap solve respaces its modes once, for
    # its weight rows' screen and its fold alike, and folds them once,
    # except the start of each delta_theta = pi stage: that is stage 1's
    # root, read from its own fold.  _assemble respaces the winner's modes
    # once more, for its device
    from collections import Counter

    from qparity import eraser

    counts, derived, points, reading = Counter(), [], [], []
    gap_frequencies, rows_jets, exact_stage = (
        eraser._gap_frequencies, eraser._rows_jets, eraser._exact_stage)

    def counting_gaps(mean, gaps):
        derived.append(reading[-1] if reading else None)  # the point respaced
        return gap_frequencies(mean, gaps)

    def counting_fold(*args, **kwargs):
        counts["folds"] += 1
        return rows_jets(*args, **kwargs)

    def read(x, call):
        points.append(x)
        reading.append(x)
        try:
            return call()
        finally:
            reading.pop()

    def counting_stage(*args, **kwargs):
        evaluate, point = exact_stage(*args, **kwargs)

        def counting_evaluate(x):
            trial = read(x, lambda: evaluate(x))
            counts["points read"] += trial is not None
            return trial

        def counting_point(x, *jets):
            counts["points read"] += 1
            counts["held starts"] += bool(jets)
            return read(x, lambda: point(x, *jets))

        return counting_evaluate, counting_point

    monkeypatch.setattr(eraser, "_gap_frequencies", counting_gaps)
    monkeypatch.setattr(eraser, "_rows_jets", counting_fold)
    monkeypatch.setattr(eraser, "_exact_stage", counting_stage)
    solve_eraser(four_qubit_device(), free=("chi", "mode_frequencies"))
    assert counts["held starts"] >= 1 and counts["folds"] == 18
    assert counts["folds"] == counts["points read"] - counts["held starts"]
    # points holds every x, so no two distinct points share an id; a
    # contrast stage's start is stage 1's last point, respaced there, and
    # the last respacing is _assemble's, outside every stage call
    stage_points = {id(x) for x in points}
    assert derived[-1] is None
    assert len({id(x) for x in derived[:-1]}) == len(derived) - 1 == len(stage_points)
    assert {id(x) for x in derived[:-1]} == stage_points


def test_paper_solve_work_count(paper_device, monkeypatch):
    # deterministic work bound for one paper n = 3 solve: phase curves built
    # (none: each Gauss-Newton point folds its stacked weight table once, and
    # ranking the roots and building the solution reuse those jets; one
    # curve per weight and point built 18, and the exact-curve coarse grid
    # 154), residual calls (the pole-model grid makes none; the exact grid
    # made 33) and root solves; locating branch zeros while folding the
    # last.  3 fold passes, one per Gauss-Newton point (a fold per curve and
    # point, plus a theta fold per root to rank it, made 18), and 3 Newton
    # passes for the pole model's series zeros.  The payload's 8 loaded
    # poles take no curve (one per weight before) and 6 fold passes over
    # the stacked weight table: the band-edge phases (_fold), then 5
    # bracketed Newton passes of the float fold _jets at order 1 (one
    # brentq per pole made 8 root solves), after 3 Newton passes for the
    # zero table.  Those passes make theta and theta' only: none runs it
    # at order 2, whose theta'' and d theta/d w_r the search never reads
    # (5 did)
    counts = _solve_work(paper_device, monkeypatch)
    assert counts["curves"] == 0
    assert counts["solve_folds"] <= 3
    assert counts["solve_zero_passes"] == 3
    assert counts["residuals"] == 0
    assert counts["tree evaluations"] == 0
    assert counts["pole_curves"] == 0
    assert counts["folds"] <= 6
    assert counts["folds"] - counts["pole_passes"] == 1
    assert counts["pole_passes"] == 5
    assert counts["zero_passes"] == 3
    assert counts["jets"] == 0


def test_two_qubit_solve_work_count(monkeypatch):
    # two Gauss-Newton solves from the pole-model grid's best basin, onto
    # the root and then to delta_theta = pi: 12 stacked folds and no curve,
    # one per point, the second solve starting on the root's own fold (13
    # when it folded the root again; one curve per weight and point built
    # 46, the exact-curve grid added 99 (139), and a chi-by-chi root search
    # with a golden-section polish built 233).  The payload's loaded poles
    # run no order-2 fold pass
    counts = _solve_work(two_mode_device(2), monkeypatch)
    assert counts["curves"] == 0
    assert counts["solve_folds"] <= 12
    assert counts["residuals"] == 0
    assert counts["tree evaluations"] == 0
    assert counts["jets"] == 0


def test_four_qubit_free_solve_work_count(monkeypatch):
    # two Gauss-Newton solves from the pole-model grid's first basin at the
    # template spacing: 18 stacked folds, one per point, the second solve
    # starting on the root's own fold, and no curve or device per point (19
    # when it folded the root again; one curve per weight and point built
    # 104 and folded each once; the exact-curve grid added 165 curves, and
    # least-squares passes over five fixed gap scales before freeing the
    # gaps built 3392).
    # The payload's 15 loaded poles take no curve (one per weight before)
    # and 6 fold passes, as the paper's 8 do: one _fold of the band edges
    # and 5 order-1 _jets passes (15 brentq root solves before), none of
    # them at order 2, after 3 Newton passes for the zero table
    counts = _solve_work(four_qubit_device(), monkeypatch,
                         free=("chi", "mode_frequencies"))
    assert counts["curves"] == 0
    assert counts["solve_folds"] <= 18
    assert counts["residuals"] == 0
    assert counts["tree evaluations"] == 0
    assert counts["pole_curves"] == 0
    assert counts["folds"] <= 6
    assert counts["folds"] - counts["pole_passes"] == 1
    assert counts["pole_passes"] == 5
    assert counts["zero_passes"] == 3
    assert counts["jets"] == 0


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_search_passes_make_few_numpy_calls(model, monkeypatch):
    # each bracketed Newton pass of the payload's zero and loaded-pole
    # searches makes only its pass kernel's numpy calls: the array of its
    # stub pairs' x with their cos and sin (_pair_factors; none for a
    # tank), and in a pole pass, the float fold _jets at order 1, one
    # arctan over its rows.  An exact-stage point's fold (_rows_jets, the
    # float fold at order 2 through _fold_jets) makes the same factor calls
    # and arctan, and its array build: the table read into lists and one
    # array of every entry (ten calls on a stub, nine on a tank, when its
    # divisions ran in numpy).  The bracket updates, branch parts, zero
    # counts, recurrence and divisions run on Python floats
    from collections import Counter

    from qparity import device, eraser, network

    sol = solve_eraser(ParityDevice.equal_coupling(3, two_mode_device(3).modes, TWO_PI * 5e6,
                                                   resonator_model=model))
    counts, inside = Counter(), []

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr):
                return attr

            def call(*args, **kwargs):
                counts["numpy calls"] += bool(inside)
                return attr(*args, **kwargs)

            return call

    def kernel(name, run):
        def counting_kernel(*args):
            counts[f"{name} order {args[4]}" if name == "_jets" else name] += 1
            inside.append(name)
            try:
                return run(*args)
            finally:
                inside.pop()

        return counting_kernel

    monkeypatch.setattr(network, "np", CountingNumpy())
    for name in ("_pair_factors", "_jets"):
        monkeypatch.setattr(network, name, kernel(name, getattr(network, name)))
    monkeypatch.setattr(device, "_fold_jets", kernel("_fold_jets", network._fold_jets))
    eraser.solution_to_dict(sol)
    pole_passes = counts["_jets order 1"]
    zero_passes = counts["_pair_factors"] - pole_passes
    assert pole_passes == 5 and zero_passes == (3 if model == "stub" else 0)
    assert counts["_jets order 2"] == counts["_fold_jets"] == 0
    factor_calls = 3 if model == "stub" else 0  # np.array, np.cos, np.sin
    assert counts["numpy calls"] == (pole_passes + zero_passes) * factor_calls + pole_passes

    counts.clear()
    dev = sol.device
    rows = device._weight_rows([mo.omega for mo in dev.modes], dev.chi, dev.n)
    jets = device._rows_jets(dev, rows, sol.omega_p)
    assert counts["_fold_jets"] == counts["_jets order 2"] == counts["_pair_factors"] == 1
    assert counts["numpy calls"] == factor_calls + 1 + 2  # np.asarray and np.array
    assert all(np.array_equal(got, held) for got, held in zip(jets, sol.jets))
