"""Closed-form phase curves against independent oracles: the adaptive sweep,
50-digit mpmath, and Foster's theorem on random devices."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qparity.cascade import CascadeDevice, _curve
from qparity.device import (
    Mode,
    ParityDevice,
    QubitState,
    analysis_band,
    build_state_network,
    weight_phase_curve,
)
from qparity.network import (
    Capacitor,
    Inductor,
    Parallel,
    PhaseCurve,
    QuarterWaveStub,
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


def cascade_curves():
    dev = CascadeDevice.uniform(3, TWO_PI * 10e9, TWO_PI * 5e6, 10e-15)
    return [_curve(dev, 0, bit) for bit in (0, 1)]


CURVE_SETS = {
    "paper-stub": lambda: device_curves(paper("stub")),
    "paper-lumped": lambda: device_curves(paper("lumped")),
    "n4-three-mode": lambda: device_curves(three_mode()),
    "cascade-cavity": cascade_curves,
}


def assert_matches_sweep(curve: PhaseCurve, tol: float = 1e-11):
    prof = phase_sweep(curve.net, *curve.band, z0=curve.z0)
    err = np.max(np.abs(curve.theta(prof.grid) - prof.theta))
    assert err <= tol, f"closed form vs sweep: {err:.3e} rad"
    return prof


@pytest.mark.parametrize("name", sorted(CURVE_SETS))
def test_closed_form_matches_sweep(name):
    for curve in CURVE_SETS[name]():
        prof = assert_matches_sweep(curve)
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
        c_c = mp.mpf(branch.children[0].c)
        w_r = mp.mpf(branch.children[1].omega_r)

        def x_of(f):
            return z0 * mp.tan(mp.pi / 2 * f / w_r) - 1 / (f * c_c)

        zero = mp.findroot(x_of, w_r * (1 - c_c / (2 * mp.pi / (4 * w_r * z0))))
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
    prof = phase_sweep(curve.net, *curve.band, z0=curve.z0)
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
    for curve in device_curves(dev):
        prof = assert_matches_sweep(curve)
        # Foster: the unwrapped phase never rises
        assert np.all(np.diff(curve.theta(prof.grid)) < 1e-9)
        lo, hi = curve.band
        principal = np.angle(reflection_coefficient(curve.net, [lo, hi], curve.z0))
        winding = (curve.theta(hi) - curve.theta(lo)) - (principal[1] - principal[0])
        assert len(curve.poles) == round(-winding / TWO_PI) == m
        # a pole of Z reflects with r = +1
        r = reflection_coefficient(curve.net, curve.poles, curve.z0)
        assert np.all(np.abs(r - 1.0) < 1e-6)


@pytest.mark.parametrize("net", [
    Capacitor(1e-14),
    Parallel((Inductor(1e-9), Capacitor(1e-13))),
    Series((QuarterWaveStub(50.0, TWO_PI * 10e9), Capacitor(1e-14))),
    Parallel((Series((Capacitor(1e-14), QuarterWaveStub(50.0, TWO_PI * 10e9))),
              Inductor(1e-9))),
])
def test_other_topologies_are_refused(net):
    with pytest.raises(TypeError):
        PhaseCurve(net, 50.0, (TWO_PI * 9e9, TWO_PI * 11e9))
