"""State-dependent device networks, common-anchor phases, derivatives."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_network import build_state_network, shifted_frequency

from qparity.device import (
    Mode,
    NonPositiveResult,
    ParityDevice,
    QubitState,
    analysis_band,
    loaded_poles_by_weight,
    state_phase_curve,
    weight_phase_curve,
)
from qparity.network import Capacitor, Parallel, Series, phase_sweep

TWO_PI = 2.0 * math.pi
CHI_PAPER = TWO_PI * 5.77e6
W_A = TWO_PI * 9.99e9


# ----------------------------------------------------------------------
# qubit states and couplings
# ----------------------------------------------------------------------

def test_qubit_state_validation():
    s = QubitState((0, 1, 1))
    assert s.n == 3 and s.weight == 2
    with pytest.raises(ValueError):
        QubitState((0, 2, 1))
    with pytest.raises(ValueError):
        QubitState(())
    with pytest.raises(ValueError):
        QubitState((0,) * 9)


def test_qubit_state_refuses_bits_that_are_not_0_or_1():
    # a bit is compared with 0 and 1 before it is converted, so 0.5 and 1.9
    # are refused where int() would truncate them to 0 and 1
    for bits in [(0.5, 1.9), (0, 1.9), (1, 0.5), (0, -1), (0, 2), (float("nan"), 1), ("1", 0)]:
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            QubitState(bits)
    for bits in [(0.0, 1.0), (np.int64(0), np.int8(1)), (False, True),
                 (np.bool_(True), np.float64(0.0)), np.array([1, 0])]:
        state = QubitState(bits)
        assert state.bits == (int(bits[0]), int(bits[1]))
        assert all(type(b) is int for b in state.bits)


def test_state_of_weight():
    assert QubitState.of_weight(4, 2).bits == (0, 0, 1, 1)
    with pytest.raises(ValueError):
        QubitState.of_weight(3, 4)


# ----------------------------------------------------------------------
# shifted frequencies
# ----------------------------------------------------------------------

def test_shift_all_zeros_adds_n_chi():
    w = shifted_frequency(W_A, [CHI_PAPER] * 3, QubitState((0, 0, 0)))
    assert w == pytest.approx(W_A + 3 * CHI_PAPER, rel=1e-14)


def test_shift_weight_symmetry():
    states = [QubitState(b) for b in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    vals = {shifted_frequency(W_A, [CHI_PAPER] * 3, s) for s in states}
    assert len(vals) == 1


def test_shift_full_flip_differs_by_6chi():
    w0 = shifted_frequency(W_A, [CHI_PAPER] * 3, QubitState((0, 0, 0)))
    w1 = shifted_frequency(W_A, [CHI_PAPER] * 3, QubitState((1, 1, 1)))
    assert w0 - w1 == pytest.approx(6 * CHI_PAPER, rel=1e-12)


def test_shift_rejects_unphysical():
    with pytest.raises(NonPositiveResult):
        shifted_frequency(1.0, [2.0], QubitState((1,)))


def test_pulled_rows_refuse_the_first_pull_in_row_then_mode_order():
    # rows (2.5, -0.9) and (-0.5, 4.9): row 0's second mode comes first,
    # though the first mode reaches zero in row 1
    from qparity.device import _pulled_rows

    chi_matrix = [[0.5, 3.0], [2.0, 0.1]]
    assert _pulled_rows([1.0, 2.0], chi_matrix, [(1.0, 1.0)]) == [[3.5, 5.1]]
    with pytest.raises(NonPositiveResult, match=re.escape("-9.000e-01 rad/s")):
        _pulled_rows([1.0, 2.0], chi_matrix, [(-1.0, 1.0), (1.0, -1.0)])


def _weight_table_oracle(dev):
    """dev's weight table summed pull by pull: the pulled-state rule
    (_pulled_rows) with dev's n x m chi matrix, then each row's curve
    table (network._curve_table), stacked."""
    from qparity.device import _pulled_rows, _weight_signs
    from qparity.network import _curve_table

    rows = _pulled_rows([mo.omega for mo in dev.modes], dev.chi_matrix, _weight_signs(dev.n))
    return np.array([_curve_table([mo.c_couple for mo in dev.modes], row, dev.z0,
                                  dev.resonator_model) for row in rows])


def _table_or_refusal(build):
    """The table's shape and entries by .hex(), or the refusal's type and
    message."""
    try:
        table = build()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return table.shape, [x.hex() for x in table.ravel().tolist()]


OMEGAS = st.one_of(
    st.floats(TWO_PI * 0.1e9, TWO_PI * 20e9),
    st.floats(1e-310, 1e308),  # tanks out of float range, pulls to or below zero
    st.sampled_from([1.5e308, 0.0, -1.0, math.nan, math.inf]))
CHIS = st.one_of(
    # decimal MHz values: their sequential +-chi sums round
    st.integers(1, 99_999).map(lambda k: TWO_PI * 1e6 * (k / 1000)),
    st.floats(1e-300, 1e308),
    st.sampled_from([0.2e308, math.nan]))
W_ULP = np.nextafter(W_A, math.inf)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), m=st.integers(1, 4), model=st.sampled_from(["stub", "lumped"]),
       omegas=st.lists(OMEGAS, min_size=4, max_size=4), chi=CHIS, ordered=st.booleans())
# a pull to or below zero (row 2, mode 1), a pull past float range (row 0:
# 1.5e308 + 0.4e308 is inf), a bad omega, a mode with no lumped tank,
# modes one ulp apart and modes that coincide, and chi one ulp either side
# of pulling the lowest mode to zero
@example(n=3, m=2, model="stub", omegas=[TWO_PI * 9.99e9, 1e6, 1.0, 1.0],
         chi=TWO_PI * 5.77e6, ordered=False)
@example(n=2, m=1, model="stub", omegas=[1.5e308] * 4, chi=0.2e308, ordered=False)
@example(n=4, m=3, model="lumped", omegas=[1e9, math.nan, 2e9, 1.0], chi=TWO_PI * 5.77e6,
         ordered=False)
@example(n=1, m=2, model="lumped", omegas=[1e9, 1e308, 1.0, 1.0], chi=1e6, ordered=False)
@example(n=3, m=2, model="stub", omegas=[W_A, W_ULP, 1.0, 1.0], chi=CHI_PAPER, ordered=False)
@example(n=3, m=2, model="stub", omegas=[W_A, W_A, 1.0, 1.0], chi=CHI_PAPER, ordered=False)
@example(n=4, m=1, model="stub", omegas=[W_A] * 4, chi=float(np.nextafter(W_A / 4, 0.0)),
         ordered=False)
@example(n=4, m=1, model="stub", omegas=[W_A] * 4, chi=float(np.nextafter(W_A / 4, math.inf)),
         ordered=False)
def test_weight_table_sums_each_rows_pull_once(n, m, model, omegas, chi, ordered):
    # _weight_table pulls its rows by the one pull rule, _pulled_rows; the
    # solver's screen of trial points, _weight_rows, sums each row's pull
    # once under one chi, as every mode of a weight row is pulled by the
    # same sum, and its rows are still _pulled_rows' (chi in every entry of
    # the n x m chi matrix) bit for bit.  It gives none exactly where a
    # device with these modes and this chi is refused: by ParityDevice
    # (mode order, a bad omega or chi), or by its weight table's pulls, to
    # or below zero or past float range.  A device that is built reads the
    # table of the pulled-state rule's rows, or the same refusal with the
    # same message
    from qparity.device import _pulled_rows, _weight_rows, _weight_signs, _weight_table

    omegas = omegas[:m]
    if ordered:
        omegas = sorted(omegas)
    rows = _weight_rows(omegas, chi, n)
    if rows is not None:
        want_rows = _pulled_rows(omegas, ((chi,) * m,) * n, _weight_signs(n))
        assert ([[x.hex() for x in row] for row in rows]
                == [[x.hex() for x in row] for row in want_rows])
    couplers = [5e-15 + 1e-15 * k for k in range(m)]
    try:
        dev = ParityDevice.equal_coupling(n, tuple(map(Mode, omegas, couplers)), chi,
                                          resonator_model=model)
    except ValueError:
        assert rows is None
        return
    want = _table_or_refusal(lambda: _weight_table_oracle(dev))
    assert _table_or_refusal(lambda: _weight_table(dev)) == want
    pull_refused = want[0] is NonPositiveResult or (
        want[0] is ValueError and want[1].startswith("omega_r["))
    assert (rows is None) == pull_refused


# ----------------------------------------------------------------------
# device construction
# ----------------------------------------------------------------------

def test_device_invariants():
    modes = (Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15))
    dev = ParityDevice.equal_coupling(3, modes, CHI_PAPER)
    assert dev.m == 2 and dev.chi == CHI_PAPER
    with pytest.raises(ValueError):
        ParityDevice.equal_coupling(3, modes[::-1], CHI_PAPER)
    with pytest.raises(ValueError):
        ParityDevice.equal_coupling(3, modes, CHI_PAPER, resonator_model="exact")


PAPER_MODES = (Mode(W_A, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15))
BAD_POSITIVE = [math.nan, math.inf, -1.0, 0.0]


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_every_chi_entry_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match=r"chi_matrix\[0\]\[0\] must be finite"):
        ParityDevice.equal_coupling(3, PAPER_MODES, bad)
    rows = ((CHI_PAPER, CHI_PAPER), (CHI_PAPER, CHI_PAPER), (CHI_PAPER, bad))
    with pytest.raises(ValueError, match=r"chi_matrix\[2\]\[1\] must be finite"):
        ParityDevice(n=3, modes=PAPER_MODES, chi_matrix=rows)


@pytest.mark.parametrize("bad", BAD_POSITIVE)
def test_mode_fields_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="mode omega must be finite"):
        Mode(bad, 10e-15)
    with pytest.raises(ValueError, match="mode c_couple must be finite"):
        Mode(W_A, bad)


@pytest.mark.parametrize("band", [(W_A, math.inf), (math.nan, W_A), (-W_A, W_A),
                                  (W_A, W_A)],
                         ids=["hi-inf", "lo-nan", "lo-negative", "empty"])
def test_device_band_edges_must_be_finite_and_ordered(band):
    with pytest.raises(ValueError, match="band needs finite"):
        ParityDevice.equal_coupling(3, PAPER_MODES, CHI_PAPER, band=band)


@pytest.mark.parametrize("z0", [math.nan, math.inf, 0.0])
def test_device_z0_must_be_finite_and_positive(z0):
    with pytest.raises(ValueError, match="z0 must be finite"):
        ParityDevice.equal_coupling(3, PAPER_MODES, CHI_PAPER, z0=z0)


def test_equal_chi_is_read_from_the_matrix():
    assert ParityDevice.equal_coupling(3, PAPER_MODES, CHI_PAPER).equal_chi
    plain = ParityDevice(n=3, modes=PAPER_MODES, chi_matrix=((CHI_PAPER, CHI_PAPER),) * 3)
    assert plain == ParityDevice.equal_coupling(3, PAPER_MODES, CHI_PAPER)
    assert plain.equal_chi and plain.chi == CHI_PAPER
    skewed = ParityDevice(n=3, modes=PAPER_MODES,
                          chi_matrix=((CHI_PAPER, CHI_PAPER),) * 2 + ((CHI_PAPER, 1e6),))
    assert not skewed.equal_chi
    with pytest.raises(ValueError):
        skewed.chi
    with pytest.raises(ValueError):
        skewed.with_chi(CHI_PAPER)


def test_build_state_network_two_branches(paper_device):
    net = build_state_network(paper_device, QubitState((0, 0, 0)))
    assert isinstance(net, Parallel) and len(net.children) == 2
    for branch in net.children:
        assert isinstance(branch, Series)
        cap = branch.children[0]
        assert isinstance(cap, Capacitor) and cap.c == pytest.approx(10e-15)


def test_build_state_network_single_mode_degenerate():
    dev = ParityDevice.equal_coupling(2, (Mode(TWO_PI * 1e10, 1e-14),), CHI_PAPER)
    net = build_state_network(dev, QubitState((0, 1)))
    assert isinstance(net, Series)


def test_equal_weight_states_build_identical_trees(paper_device):
    nets = [build_state_network(paper_device, QubitState(b))
            for b in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    assert nets[0] == nets[1] == nets[2]


def test_stub_model_uses_quarter_wave(paper_device):
    from qparity.network import QuarterWaveStub

    net = build_state_network(paper_device, QubitState((0, 0, 0)))
    resonator = net.children[0].children[1]
    assert isinstance(resonator, QuarterWaveStub)
    shift = 3 * paper_device.chi
    assert resonator.omega_r == pytest.approx(TWO_PI * 9.99e9 + shift, rel=1e-14)


# ----------------------------------------------------------------------
# common-anchor phases
# ----------------------------------------------------------------------

def test_all_states_anchor_on_principal_branch(paper_device):
    lo, _ = analysis_band(paper_device)
    thetas = [state_phase_curve(paper_device, QubitState.of_weight(3, w)).theta(lo)
              for w in range(4)]
    for t in thetas:
        assert -math.pi < t <= math.pi
    assert max(thetas) - min(thetas) < 0.1


def test_hamming_weight_collapse_is_exact(paper_device):
    w = TWO_PI * 9.85e9
    vals = [state_phase_curve(paper_device, QubitState(b)).theta(w)
            for b in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]
    assert vals[0] == vals[1] == vals[2]


def test_parity_pair_structure(paper_device):
    # at most n+1 distinct curves, one per Hamming weight
    lo, hi = analysis_band(paper_device)
    grid = np.linspace(lo, hi, 257)
    curves = {state_phase_curve(paper_device, QubitState(tuple(
        int(b) for b in f"{k:03b}"))).theta(grid).tobytes() for k in range(8)}
    assert len(curves) == 4


def test_band_readers_refuse_a_default_band_below_zero(paper_device):
    # at 500 MHz, 3 chi and the margins take the paper device's default band
    # below f = 0: the pole search and the curves, which search in it,
    # refuse, while the weight fold, which reads no band, does not
    from dataclasses import replace

    from qparity.device import _weight_fold

    dev = paper_device.with_chi(TWO_PI * 500e6)
    assert dev.band is None
    message = re.escape("need finite 0 < band[0] < band[1], got (-")
    for read in (analysis_band, loaded_poles_by_weight,
                 lambda d: state_phase_curve(d, QubitState((0, 1, 1)))):
        with pytest.raises(NonPositiveResult, match=message):
            read(dev)
    assert np.isfinite(_weight_fold(dev, TWO_PI * 9.8e9)).all()
    # a band the device is given is its window, and is not refused
    poles = loaded_poles_by_weight(replace(dev, band=(TWO_PI * 8e9, TWO_PI * 12e9)))
    assert all(len(row) and np.all(np.diff(row) > 0.0) for row in poles)
    assert all(TWO_PI * 8e9 < p < TWO_PI * 12e9 for row in poles for p in row)


def test_eraser_phase_difference_at_solution(paper_solution):
    dev = paper_solution.device
    wp = paper_solution.omega_p
    d1 = state_phase_curve(dev, QubitState((0, 0, 0))).theta(wp) \
        - state_phase_curve(dev, QubitState((0, 1, 1))).theta(wp)
    d2 = state_phase_curve(dev, QubitState((0, 0, 1))).theta(wp) \
        - state_phase_curve(dev, QubitState((1, 1, 1))).theta(wp)
    assert d1 == pytest.approx(TWO_PI, abs=1e-8)
    assert d2 == pytest.approx(TWO_PI, abs=1e-8)


def test_monotone_chi_response(paper_device):
    # larger chi spreads the weight-0 and weight-n poles further apart
    seps = []
    for chi in (TWO_PI * 2e6, TWO_PI * 8e6):
        dev = paper_device.with_chi(chi)
        lo, hi = analysis_band(dev)
        p0 = phase_sweep(build_state_network(dev, QubitState((0, 0, 0))),
                         lo, hi, z0=dev.z0).poles
        p3 = phase_sweep(build_state_network(dev, QubitState((1, 1, 1))),
                         lo, hi, z0=dev.z0).poles
        seps.append(p0[0] - p3[0])
    assert seps[1] > seps[0] > 0.0
    assert seps[1] == pytest.approx(seps[0] * 4.0, rel=0.05)


def test_unequal_chi_breaks_weight_collapse():
    modes = (Mode(TWO_PI * 9.99e9, 1e-14), Mode(TWO_PI * 10.01e9, 1e-14))
    chi_matrix = ((TWO_PI * 4e6, TWO_PI * 4e6), (TWO_PI * 7e6, TWO_PI * 7e6))
    dev = ParityDevice(n=2, modes=modes, chi_matrix=chi_matrix)
    assert not dev.equal_chi
    w = TWO_PI * 9.82e9
    t01 = state_phase_curve(dev, QubitState((0, 1))).theta(w)
    t10 = state_phase_curve(dev, QubitState((1, 0))).theta(w)
    assert t01 != t10


# ----------------------------------------------------------------------
# derivatives
# ----------------------------------------------------------------------

def test_derivative_flat_far_from_resonance(paper_device):
    lo, _ = analysis_band(paper_device)
    d = state_phase_curve(paper_device, QubitState((0, 0, 0))).dtheta(lo * 1.001)
    assert abs(d) < 1e-9


def test_derivative_negative_near_features(paper_device):
    d = state_phase_curve(paper_device, QubitState((0, 0, 0))).dtheta(TWO_PI * 9.81e9)
    assert d < 0.0


def test_derivative_matches_dense_secant_oracle(paper_solution):
    # independent oracle: secant slopes from a fresh dense sweep whose grid
    # spacing is 1e-5 relative, never touching the anchored evaluator
    dev = paper_solution.device
    wp = paper_solution.omega_p
    h = wp * 1e-5
    for weight in range(4):
        d = weight_phase_curve(dev, weight).dtheta(wp, order=1)
        net = build_state_network(dev, QubitState.of_weight(3, weight))
        prof = phase_sweep(net, wp - 3 * h, wp + 3 * h, base_points=64,
                           z0=dev.z0)
        lo = int(np.searchsorted(prof.grid, wp - h))
        hi = int(np.searchsorted(prof.grid, wp + h))
        secant = (prof.theta[hi] - prof.theta[lo]) \
            / (prof.grid[hi] - prof.grid[lo])
        assert d == pytest.approx(secant, rel=1e-4)


def test_second_derivative_matches_first_derivative_secant(paper_solution):
    dev = paper_solution.device
    wp = paper_solution.omega_p
    curve = weight_phase_curve(dev, 0)
    d2 = curve.dtheta(wp, order=2)
    h = wp * 1e-6
    sec = (curve.dtheta(wp + h) - curve.dtheta(wp - h)) / (2.0 * h)
    assert d2 == pytest.approx(sec, rel=1e-3)


def test_derivative_finite_at_loaded_pole(paper_device, mp_phase):
    import mpmath as mp

    curve = state_phase_curve(paper_device, QubitState((0, 0, 0)))
    pole = curve.poles[0]
    theta, res = mp_phase(paper_device, 0)
    for order in (1, 2):
        d = curve.dtheta(pole, order)
        assert math.isfinite(d)
        assert d == pytest.approx(
            float(mp.diff(lambda f: theta(f, res), mp.mpf(pole), order)), rel=1e-9)


def test_derivative_order_validation(paper_device):
    curve = state_phase_curve(paper_device, QubitState((0, 0, 0)))
    with pytest.raises(ValueError):
        curve.dtheta(TWO_PI * 9.7e9, order=3)
