"""Closed-form phase curves against independent oracles: the adaptive sweep,
50-digit mpmath, and Foster's theorem on random devices."""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparity.cascade import _bit_curves
from qparity.device import (
    Mode,
    ParityDevice,
    QubitState,
    analysis_band,
    build_state_network,
    state_phase_curve,
    weight_phase_curve,
)
from qparity.network import (
    Capacitor,
    Inductor,
    PhaseCurve,
    Series,
    phase_sweep,
    reflection_coefficient,
)

TWO_PI = 2.0 * math.pi
PAPER_MODES = (Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15))


def paper(model: str = "stub", chi_mhz: float = 5.77) -> ParityDevice:
    return ParityDevice.equal_coupling(3, PAPER_MODES, TWO_PI * chi_mhz * 1e6,
                                       resonator_model=model)


def three_mode() -> ParityDevice:
    modes = tuple(Mode(TWO_PI * f * 1e9, 10e-15) for f in (9.97, 10.0, 10.03))
    return ParityDevice.equal_coupling(4, modes, TWO_PI * 5e6)


def device_curves(dev: ParityDevice):
    return [weight_phase_curve(dev, w) for w in range(dev.n + 1)]


def device_pairs(dev: ParityDevice):
    """(phase curve, oracle tree) of each weight."""
    return [(curve, build_state_network(dev, QubitState.of_weight(dev.n, w)))
            for w, curve in enumerate(device_curves(dev))]


def cascade_pairs():
    single = ParityDevice.equal_coupling(1, (Mode(TWO_PI * 10e9, 10e-15),), TWO_PI * 5e6)
    return [(curve, build_state_network(single, QubitState((bit,))))
            for bit, curve in enumerate(_bit_curves(single))]


CURVE_SETS = {
    "paper-stub": lambda: device_pairs(paper("stub")),
    "paper-lumped": lambda: device_pairs(paper("lumped")),
    "n4-three-mode": lambda: device_pairs(three_mode()),
    "cascade-cavity": cascade_pairs,
}


def assert_matches_sweep(curve: PhaseCurve, net, tol: float = 1e-11,
                         slope_ulps: float = 0.0):
    """theta against the adaptive sweep of the same one-port, to ``tol``;
    with ``slope_ulps``, plus that many ulps of omega times |theta'|, the
    rounding any double-precision evaluation makes where the phase is steep."""
    prof = phase_sweep(net, *curve.band, z0=curve.z0)
    err = np.abs(curve.theta(prof.grid) - prof.theta)
    over = np.flatnonzero(err > tol)
    bound = tol + slope_ulps * np.array(
        [np.spacing(prof.grid[i]) * abs(curve.dtheta(prof.grid[i])) for i in over])
    assert np.all(err[over] <= bound), \
        f"closed form vs sweep: {np.max(err):.3e} rad"
    return prof


@pytest.mark.parametrize("name", sorted(CURVE_SETS))
def test_closed_form_matches_sweep(name):
    for curve, net in CURVE_SETS[name]():
        prof = assert_matches_sweep(curve, net)
        assert len(curve.poles) == len(prof.poles)
        assert np.allclose(curve.poles, prof.poles, rtol=0.0, atol=1e-3)


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("chi_mhz", [1.0, 5.77, 20.0])
def test_continuous_at_every_branch_zero(model, chi_mhz):
    for curve in device_curves(paper(model, chi_mhz)):
        assert len(curve.zeros) == 2
        for z in curve.zeros:
            pts = [z]
            below = above = z
            for _ in range(40):
                below = np.nextafter(below, 0.0)
                above = np.nextafter(above, np.inf)
                pts += [below, above]
            theta = curve.theta(np.sort(pts))
            assert np.max(np.abs(np.diff(theta))) < 1e-6
            # one scalar read agrees with the vectorised one
            assert curve.theta(float(z)) == theta[40]


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_theta_does_not_depend_on_the_band(model):
    # the lower edge of this band sits above the branch zeros near 9.79 GHz,
    # which the DC-referenced phase still counts
    dev = paper(model)
    narrow = replace(dev, band=(TWO_PI * 9.80e9, TWO_PI * 10.20e9))
    grid = np.linspace(*narrow.band, 801)
    for wide, clipped in zip(device_curves(dev), device_curves(narrow)):
        assert np.array_equal(clipped.theta(grid), wide.theta(grid))


def _mp_reactance(branch: Series):
    """50-digit reactance z0 tan((pi/2) w/w_r) - 1/(w C_c) of a coupler +
    stub branch, and its series zero (its root below w_r)."""
    mp.mp.dps = 50
    c_c = mp.mpf(branch.children[0].c)
    z0 = mp.mpf(branch.children[1].z0)
    w_r = mp.mpf(branch.children[1].omega_r)

    def x_of(f):
        return z0 * mp.tan(mp.pi / 2 * f / w_r) - 1 / (f * c_c)

    return x_of, mp.findroot(x_of, w_r * (1 - c_c / (2 * mp.pi / (4 * w_r * z0))))


@pytest.mark.parametrize("chi_mhz", [1.0, 5.77, 20.0])
def test_stub_zeros_match_50_digit_roots(chi_mhz):
    for curve, net in device_pairs(paper("stub", chi_mhz)):
        expected = sorted(float(_mp_reactance(b)[1]) for b in net.children)
        assert curve.zeros == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("chi_mhz", [1.0, 5.77, 20.0])
def test_lumped_zeros_match_the_tank_formula(chi_mhz):
    for curve, net in device_pairs(paper("lumped", chi_mhz)):
        expected = []
        for branch in net.children:
            tank = {type(e): e for e in branch.children[1].children}
            c_total = tank[Capacitor].c + branch.children[0].c
            expected.append(1.0 / math.sqrt(tank[Inductor].l * c_total))
        assert curve.zeros == pytest.approx(sorted(expected), rel=1e-12)


def _mp_theta(dev: ParityDevice, weight: int, omega: float) -> float:
    """Unwrapped phase at 50 digits: arg r minus 2*pi per branch zero in
    [lo, omega), with the zeros solved by mpmath from the tan form."""
    mp.mp.dps = 50
    lo = mp.mpf(analysis_band(dev)[0])
    w = mp.mpf(omega)
    z0 = mp.mpf(dev.z0)
    state = QubitState.of_weight(dev.n, weight)
    admittance = mp.mpf(0)
    zeros_below = 0
    for branch in build_state_network(dev, state).children:
        x_of, zero = _mp_reactance(branch)
        zeros_below += lo <= zero < w
        admittance += 1 / (1j * x_of(w))
    z = 1 / admittance
    return float(mp.arg((z - z0) / (z + z0)) - 2 * mp.pi * zeros_below)


def test_theta_against_50_digit_oracle():
    dev = paper("stub")
    curves = device_curves(dev)
    points = [TWO_PI * f for f in (9.7e9, 9.804e9, 9.95e9, 10.0e9, 10.05e9)]
    points += [z * (1.0 + s) for z in curves[0].zeros for s in (-1e-9, 1e-9)]
    for w, curve in enumerate(curves):
        for omega in points:
            assert curve.theta(omega) == pytest.approx(
                _mp_theta(dev, w, omega), abs=1e-11)


@pytest.mark.parametrize("make", [lambda: paper("stub"), lambda: paper("lumped"),
                                  three_mode], ids=["paper-stub", "paper-lumped",
                                                    "n4-three-mode"])
def test_derivatives_against_50_digit_oracle(make, mp_phase):
    dev = make()
    points = [TWO_PI * f for f in (9.7e9, 9.804e9, 9.95e9, 10.0e9, 10.05e9)]
    for w, curve in enumerate(device_curves(dev)):
        theta, res = mp_phase(dev, w)
        for omega in points:
            om = mp.mpf(omega)
            assert curve.dtheta(omega) == pytest.approx(
                float(mp.diff(lambda f: theta(f, res), om)), rel=1e-9)
            assert curve.dtheta(omega, 2) == pytest.approx(
                float(mp.diff(lambda f: theta(f, res), om, 2)), rel=1e-9)
            d_res = [mp.diff(lambda q: theta(om, res[:k] + [q] + res[k + 1:]), res[k])
                     for k in range(len(res))]
            assert curve.dtheta_dresonance(omega) == pytest.approx(
                [float(d) for d in d_res], rel=1e-9)


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_derivatives_continuous_at_every_branch_zero(model):
    for curve in device_curves(paper(model)) + device_curves(three_mode()):
        for z in curve.zeros:
            pts = np.concatenate([
                [z],
                np.nextafter(z, 0.0) - np.arange(40) * np.spacing(z),
                np.nextafter(z, np.inf) + np.arange(40) * np.spacing(z)])
            for order in (1, 2):
                d = np.array([curve.dtheta(p, order) for p in pts])
                assert np.all(np.isfinite(d))
                assert np.ptp(d) <= 1e-6 * abs(d[0])


def test_sweep_counts_a_pole_on_a_grid_sample():
    # phase_sweep seeds omega_r, the loaded pole of a single-branch network,
    # so theta lands exactly on a 2*pi level there; the pole must count once
    dev = ParityDevice.equal_coupling(2, (Mode(TWO_PI * 8e9, 5e-15),), TWO_PI * 1e6)
    curve = weight_phase_curve(dev, 0)
    net = build_state_network(dev, QubitState.of_weight(2, 0))
    prof = phase_sweep(net, *curve.band, z0=curve.z0)
    assert len(curve.poles) == len(prof.poles) == 1
    assert prof.poles[0] == pytest.approx(curve.poles[0], abs=1e-3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(8.0, 12.0),
    gaps_mhz=st.lists(st.floats(10.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chi_mhz=st.floats(0.5, 20.0),
)
def test_random_equal_chi_devices(n, m, model, f0_ghz, gaps_mhz, couplers_ff,
                                  chi_mhz):
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    dev = ParityDevice.equal_coupling(n, modes, TWO_PI * chi_mhz * 1e6,
                                      resonator_model=model)
    for curve, net in device_pairs(dev):
        prof = assert_matches_sweep(curve, net)
        # Foster: the unwrapped phase never rises
        assert np.all(np.diff(curve.theta(prof.grid)) < 1e-9)
        lo, hi = curve.band
        principal = np.angle(reflection_coefficient(net, [lo, hi], curve.z0))
        winding = (curve.theta(hi) - curve.theta(lo)) - (principal[1] - principal[0])
        assert len(curve.poles) == round(-winding / TWO_PI) == m
        # a pole of Z reflects with r = +1
        r = reflection_coefficient(net, curve.poles, curve.z0)
        assert np.all(np.abs(r - 1.0) < 1e-6)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(8.0, 12.0),
    gaps_mhz=st.lists(st.floats(10.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chis_mhz=st.lists(st.floats(0.5, 20.0), min_size=12, max_size=12),
)
@example(n=1, m=2, model="stub", f0_ghz=8.0, gaps_mhz=[35.0, 10.0],
         couplers_ff=[4.0, 7.5, 3.0], chis_mhz=[1.0, 11.0] + [1.0] * 10)
@example(n=1, m=2, model="lumped", f0_ghz=8.0, gaps_mhz=[34.0, 10.0],
         couplers_ff=[4.0, 7.5, 3.0], chis_mhz=[1.0, 11.0] + [1.0] * 10)
def test_random_unequal_chi_devices(n, m, model, f0_ghz, gaps_mhz, couplers_ff,
                                    chis_mhz):
    # every state of any chi matrix: the table-built curve against the sweep
    # of the state's tree.  In the explicit examples two branches' zeros lie
    # 50-350 kHz apart: the sweep must resolve the full turn of the loaded
    # pole between them, and that pole is so steep that both evaluations
    # can sit ~1e-9 rad from the 50-digit value, which the slope term allows.
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    chi = [[TWO_PI * 1e6 * chis_mhz[j * m + k] for k in range(m)] for j in range(n)]
    dev = ParityDevice(n=n, modes=modes, chi_matrix=chi, resonator_model=model)
    states = [QubitState(bits) for bits in itertools.product((0, 1), repeat=n)]
    for state in states:
        curve = state_phase_curve(dev, state)
        assert_matches_sweep(curve, build_state_network(dev, state), slope_ulps=4.0)
        assert len(curve.poles) == m
    # an all-equal matrix, given to the plain constructor, collapses onto weight
    equal = ParityDevice(n=n, modes=modes, chi_matrix=[[chi[0][0]] * m] * n,
                         resonator_model=model)
    grid = np.linspace(*analysis_band(equal), 513)
    by_weight = {}
    for state in states:
        theta = state_phase_curve(equal, state).theta(grid)
        assert np.array_equal(by_weight.setdefault(state.weight, theta), theta)


GOOD_TABLE = dict(c_couple=(10e-15,), omega_r=(TWO_PI * 10e9,), z0=50.0,
                  band=(TWO_PI * 9e9, TWO_PI * 11e9), model="stub")


@pytest.mark.parametrize("change,message", [
    (dict(c_couple=(math.nan,)), "c_couple[0] must be finite"),
    (dict(c_couple=(10e-15, -1e-15), omega_r=(TWO_PI * 10e9,) * 2),
     "c_couple[1] must be finite"),
    (dict(omega_r=(math.inf,)), "omega_r[0] must be finite"),
    (dict(omega_r=(0.0,)), "omega_r[0] must be finite"),
    (dict(c_couple=(), omega_r=()), "need one c_couple per omega_r"),
    (dict(c_couple=(10e-15,) * 2), "need one c_couple per omega_r"),
    (dict(band=(TWO_PI * 9e9, math.inf)), "need finite 0 < band[0] < band[1]"),
    (dict(band=(math.nan, TWO_PI * 11e9)), "need finite 0 < band[0] < band[1]"),
    (dict(z0=math.nan), "need 0 < z0"),
    (dict(model="exact"), "model must be 'stub' or 'lumped'"),
], ids=["coupler-nan", "coupler-negative", "resonance-inf", "resonance-zero",
        "empty", "lengths", "band-inf", "band-nan", "z0-nan", "model"])
def test_phase_curve_refuses_a_bad_table(change, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PhaseCurve(**{**GOOD_TABLE, **change})
