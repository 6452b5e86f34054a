"""Network primitives: impedances, reflection, phase sweeps, windings."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from qparity.network import (
    Capacitor,
    Inductor,
    Parallel,
    PhaseCurve,
    PoleProximity,
    QuarterWaveStub,
    Series,
    lumped_equivalent,
    network_impedance,
    phase_sweep,
    reflection_coefficient,
    stub_impedance,
    wrap_phase,
)

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------------------
# stub impedance
# ----------------------------------------------------------------------

def test_stub_half_resonance_is_i_z0():
    z = stub_impedance(TWO_PI * 5e9, 50.0, TWO_PI * 10e9)
    assert z == pytest.approx(50j, rel=1e-12)


def test_stub_dc_limit_is_short():
    z = stub_impedance(1.0, 50.0, TWO_PI * 10e9)
    assert abs(z) < 1e-6


def test_stub_against_extended_precision_oracle():
    # 50 * tan(pi/2 * 9.804/9.99), evaluated at 50 decimal digits
    mp.mp.dps = 50
    expected = float(50 * mp.tan(mp.pi / 2 * mp.mpf("9.804") / mp.mpf("9.99")))
    assert expected == pytest.approx(1709.1446685398888, rel=1e-12)
    z = stub_impedance(TWO_PI * 9.804e9, 50.0, TWO_PI * 9.99e9)
    assert z.real == 0.0
    assert z.imag == pytest.approx(expected, rel=1e-12)


def test_stub_pole_raises():
    with pytest.raises(PoleProximity):
        stub_impedance(TWO_PI * 10e9, 50.0, TWO_PI * 10e9)


def test_stub_rejects_bad_inputs():
    with pytest.raises(ValueError):
        stub_impedance(-1.0, 50.0, TWO_PI * 10e9)
    with pytest.raises(ValueError):
        QuarterWaveStub(z0=-50.0, omega_r=1.0)


# ----------------------------------------------------------------------
# lumped equivalent
# ----------------------------------------------------------------------

def test_lumped_equivalent_reference_value():
    # C = pi/(4 omega Z0) = 1/(8 f Z0) = 2.5e-13 F exactly at 10 GHz, 50 ohm
    c, l = lumped_equivalent(TWO_PI * 1e10, 50.0)
    assert c == pytest.approx(2.5e-13, rel=1e-14)
    assert l == pytest.approx(1.0 / ((TWO_PI * 1e10) ** 2 * 2.5e-13), rel=1e-14)


@pytest.mark.parametrize("f_ghz,z0", [(10.0, 50.0), (9.99, 50.0), (4.3, 72.5), (17.2, 31.0)])
def test_lumped_resonance_identity(f_ghz, z0):
    w_r = TWO_PI * f_ghz * 1e9
    c, l = lumped_equivalent(w_r, z0)
    assert 1.0 / math.sqrt(l * c) == pytest.approx(w_r, rel=1e-14)


def test_lumped_scaling_with_z0():
    c1, l1 = lumped_equivalent(TWO_PI * 1e10, 50.0)
    c2, l2 = lumped_equivalent(TWO_PI * 1e10, 100.0)
    assert c2 == pytest.approx(c1 / 2.0, rel=1e-14)
    assert l2 == pytest.approx(l1 * 2.0, rel=1e-14)


# ----------------------------------------------------------------------
# network impedance
# ----------------------------------------------------------------------

def test_parallel_lc_pole_flagged():
    # unit-valued LC so the resonance lands exactly on a float
    net = Parallel((Capacitor(1.0), Inductor(1.0)))
    with pytest.raises(PoleProximity):
        network_impedance(net, 1.0)


def test_series_capacitor_hand_value():
    # 1/(omega C) for 10 fF at 2pi*10 GHz = 1591.5494309189534 ohm
    net = Series((Capacitor(10e-15),))
    z = network_impedance(net, TWO_PI * 1e10)
    assert z == pytest.approx(-1591.5494309189534j, rel=1e-12)


def _two_branch_reference(omega, w_a, w_b, c_c, z0):
    """The double-resonator impedance written out longhand, as an oracle."""
    def branch(w_r):
        c_r, l_r = lumped_equivalent(w_r, z0)
        z_tank = 1j * omega * l_r / (1.0 - omega ** 2 * l_r * c_r)
        return 1.0 / (1j * omega * c_c) + z_tank

    z1, z2 = branch(w_a), branch(w_b)
    return z1 * z2 / (z1 + z2)


def test_two_branch_network_matches_longhand_composition():
    w_a, w_b = TWO_PI * 9.99e9, TWO_PI * 10.01e9
    c_c, z0 = 10e-15, 50.0
    branches = []
    for w_r in (w_a, w_b):
        c_r, l_r = lumped_equivalent(w_r, z0)
        branches.append(Series((Capacitor(c_c),
                                Parallel((Inductor(l_r), Capacitor(c_r))))))
    net = Parallel(tuple(branches))
    omega = TWO_PI * 9.5e9
    expected = _two_branch_reference(omega, w_a, w_b, c_c, z0)
    z = network_impedance(net, omega)
    assert z == pytest.approx(expected, rel=1e-9)


def test_lossless_impedance_is_purely_imaginary():
    net = Parallel((
        Series((Capacitor(5e-15), QuarterWaveStub(50.0, TWO_PI * 9.99e9))),
        Series((Capacitor(10e-15), Inductor(1e-9))),
    ))
    z = network_impedance(net, TWO_PI * 9.7e9)
    assert abs(z.real) <= 1e-9 * abs(z)


# ----------------------------------------------------------------------
# reflection coefficient
# ----------------------------------------------------------------------

def test_reflection_short_is_minus_one():
    # stub at twice its resonance: tan(pi) = 0, an exact short
    net = QuarterWaveStub(50.0, TWO_PI * 5e9)
    r = reflection_coefficient(net, TWO_PI * 10e9, 50.0)
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_reflection_at_pole_is_plus_one():
    net = Parallel((Capacitor(1.0), Inductor(1.0)))
    r = reflection_coefficient(net, 1.0, 1.0)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_reflection_inductive_match_is_i():
    # Z = i*50 against Z0 = 50: r = (i-1)/(i+1) = i
    omega = TWO_PI * 1e9
    net = Inductor(50.0 / omega)
    r = reflection_coefficient(net, omega, 50.0)
    assert r == pytest.approx(1j, rel=1e-12)
    assert np.angle(r) == pytest.approx(math.pi / 2, rel=1e-12)


# ----------------------------------------------------------------------
# random lossless networks: unimodularity and Foster winding
# ----------------------------------------------------------------------

def random_network(rng) -> object:
    """Random tree with at most 6 primitive elements, features near 10 GHz."""
    def leaf():
        kind = rng.integers(0, 3)
        if kind == 0:
            return QuarterWaveStub(z0=float(rng.uniform(20.0, 100.0)),
                                   omega_r=TWO_PI * float(rng.uniform(8e9, 12e9)))
        if kind == 1:
            return Capacitor(float(rng.uniform(1e-15, 1e-13)))
        return Inductor(float(rng.uniform(1e-10, 5e-9)))

    n_leaves = int(rng.integers(1, 7))
    leaves = [leaf() for _ in range(n_leaves)]
    while len(leaves) > 1:
        k = int(rng.integers(2, len(leaves) + 1))
        group, leaves = leaves[:k], leaves[k:]
        combo = Series(tuple(group)) if rng.integers(0, 2) else Parallel(tuple(group))
        leaves.append(combo)
    return leaves[0]


def test_unimodularity_1000_random_networks():
    rng = np.random.default_rng(20260810)
    omegas = TWO_PI * rng.uniform(7e9, 13e9, size=1000)
    worst = 0.0
    for i in range(1000):
        net = random_network(rng)
        r = reflection_coefficient(net, float(omegas[i]), 50.0)
        worst = max(worst, abs(abs(r) - 1.0))
    assert worst < 1e-9


def test_foster_winding_direction_1000_random_networks():
    # the unwrapped reflection phase of a lossless one-port never increases
    rng = np.random.default_rng(777)
    for _ in range(1000):
        net = random_network(rng)
        prof = phase_sweep(net, TWO_PI * 9.4e9, TWO_PI * 10.6e9,
                           base_points=64, z0=50.0)
        steps = np.diff(prof.theta)
        assert np.all(steps < 1e-9), f"phase increased for {net}"


# ----------------------------------------------------------------------
# phase sweep: winding and pole bookkeeping
# ----------------------------------------------------------------------

def test_single_stub_window_winds_2pi():
    net = Series((Capacitor(10e-15), QuarterWaveStub(50.0, TWO_PI * 10e9)))
    prof = phase_sweep(net, TWO_PI * 9.5e9, TWO_PI * 10.5e9, z0=50.0)
    assert prof.winding == pytest.approx(-TWO_PI, abs=1e-6)
    assert len(prof.poles) == 1


def test_two_branch_window_winds_4pi(paper_device):
    from qparity.device import QubitState, build_state_network

    net = build_state_network(paper_device, QubitState((0, 0, 0)))
    prof = phase_sweep(net, TWO_PI * 9.6e9, TWO_PI * 10.2e9, z0=50.0)
    assert abs(prof.winding) == pytest.approx(4.0 * math.pi, abs=1e-6)
    assert len(prof.poles) == 2


def test_pole_count_equals_rounded_phase_change(paper_device):
    from qparity.device import QubitState, build_state_network

    net = build_state_network(paper_device, QubitState((0, 1, 0)))
    prof = phase_sweep(net, TWO_PI * 9.6e9, TWO_PI * 10.2e9, z0=50.0)
    k = round(abs(prof.theta[-1] - prof.theta[0]) / TWO_PI)
    assert k == len(prof.poles) == 2


def test_empty_window_has_no_winding():
    net = Series((Capacitor(10e-15), QuarterWaveStub(50.0, TWO_PI * 10e9)))
    prof = phase_sweep(net, TWO_PI * 7.0e9, TWO_PI * 7.5e9, z0=50.0)
    assert prof.winding == 0.0
    assert len(prof.poles) == 0
    assert np.max(np.abs(prof.theta)) < math.pi
    # matches the pointwise principal-branch phase
    direct = np.angle(reflection_coefficient(net, prof.grid, 50.0))
    assert np.allclose(prof.theta, direct, atol=1e-12)


def test_adjacent_steps_below_quarter_pi(paper_device):
    from qparity.device import QubitState, build_state_network

    net = build_state_network(paper_device, QubitState((0, 0, 0)))
    prof = phase_sweep(net, TWO_PI * 9.6e9, TWO_PI * 10.2e9, z0=50.0)
    assert np.max(np.abs(np.diff(prof.theta))) < math.pi / 4


def test_sweep_is_deterministic():
    net = Series((Capacitor(7e-15), QuarterWaveStub(50.0, TWO_PI * 10e9)))
    a = phase_sweep(net, TWO_PI * 9.5e9, TWO_PI * 10.5e9, z0=50.0)
    b = phase_sweep(net, TWO_PI * 9.5e9, TWO_PI * 10.5e9, z0=50.0)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.poles, b.poles)


def test_sweep_validates_arguments():
    net = Capacitor(1e-14)
    with pytest.raises(ValueError):
        phase_sweep(net, TWO_PI * 10e9, TWO_PI * 9e9)
    with pytest.raises(ValueError):
        phase_sweep(net, TWO_PI * 9e9, TWO_PI * 10e9, base_points=32)


# ----------------------------------------------------------------------
# lumped-vs-stub agreement near resonance
# ----------------------------------------------------------------------

def test_lumped_matches_stub_near_resonance():
    # relative deviation is |delta|/2 + O(delta^2): below 2% for
    # |w - w_r| <= 0.038 w_r, reaching ~2.7% at the 0.05 edge
    z0 = 50.0
    w_r = TWO_PI * 1e10
    c, l = lumped_equivalent(w_r, z0)
    for delta in np.linspace(-0.038, 0.038, 41):
        if abs(delta) < 1e-3:
            continue
        w = w_r * (1.0 + delta)
        z_stub = stub_impedance(w, z0, w_r)
        z_lump = 1j * w * l / (1.0 - w * w * l * c)
        assert abs(z_lump / z_stub - 1.0) < 0.02, f"delta={delta}"
    for delta in (-0.05, 0.05):
        w = w_r * (1.0 + delta)
        z_stub = stub_impedance(w, z0, w_r)
        z_lump = 1j * w * l / (1.0 - w * w * l * c)
        assert 0.02 < abs(z_lump / z_stub - 1.0) < 0.03


# ----------------------------------------------------------------------
# anchored phase curve
# ----------------------------------------------------------------------

def test_phase_curve_matches_profile_samples():
    net = Series((Capacitor(10e-15), QuarterWaveStub(50.0, TWO_PI * 10e9)))
    prof = phase_sweep(net, TWO_PI * 9.5e9, TWO_PI * 10.5e9, z0=50.0)
    curve = PhaseCurve(net, 50.0, (TWO_PI * 9.5e9, TWO_PI * 10.5e9))
    idx = np.linspace(0, len(prof.grid) - 1, 25).astype(int)
    assert np.allclose(curve.theta(prof.grid[idx]), prof.theta[idx], atol=1e-12)


def test_phase_curve_holds_outside_its_band():
    # theta is DC-referenced: the band only windows the zero and pole
    # searches, so values outside it equal those of a curve whose band
    # covers them; only omega <= 0 is refused
    w_r = TWO_PI * 10e9
    c, l = lumped_equivalent(w_r, 50.0)
    net = Parallel((Series((Capacitor(10e-15), Parallel((Inductor(l), Capacitor(c))))),
                    Series((Capacitor(8e-15), QuarterWaveStub(50.0, 1.01 * w_r)))))
    narrow = PhaseCurve(net, 50.0, (TWO_PI * 9.9e9, TWO_PI * 10e9))
    wide = PhaseCurve(net, 50.0, (TWO_PI * 0.1e9, TWO_PI * 40e9))
    ws = TWO_PI * np.array([0.2e9, 5e9, 9.7e9, 10.05e9, 10.2e9, 25e9, 35e9])
    assert np.array_equal(narrow.theta(ws), wide.theta(ws))
    for w in ws:
        assert np.array_equal(np.hstack(narrow._derivatives(w)),
                              np.hstack(wide._derivatives(w)))
    for bad in (0.0, -TWO_PI * 1e9):
        for call in (narrow.theta, narrow.dtheta, narrow.dtheta_dresonance,
                     lambda w: narrow.theta(np.array([w_r, w]))):
            with pytest.raises(ValueError):
                call(bad)


def test_wrap_phase_range_and_fixed_points():
    assert wrap_phase(math.pi) == pytest.approx(math.pi)
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)
    assert wrap_phase(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    vals = wrap_phase(np.linspace(-20.0, 20.0, 1001))
    assert np.all(vals > -math.pi)
    assert np.all(vals <= math.pi)
