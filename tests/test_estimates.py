"""Engineering estimates: Purcell T1, measurement time, probe power, kappa."""

from __future__ import annotations

import math

import pytest

from qparity.estimates import (
    estimate_report,
    kappa_from_coupling,
    measurement_time,
    measurement_time_angular,
    peak_power,
    purcell_t1,
    purcell_t1_angular,
)

TWO_PI = 2.0 * math.pi


def test_purcell_t1_reference_interval():
    t1 = purcell_t1(TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 5.77e6)
    assert 150e-6 < t1 < 210e-6
    assert t1 == pytest.approx(173.3e-6, rel=1e-3)


def test_purcell_t1_inverse_in_chi():
    a = purcell_t1(TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 5e6)
    b = purcell_t1(TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 10e6)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_purcell_identity_with_g_delta():
    # delta^2/(kappa g^2) equals delta/(kappa chi) when chi = g^2/delta
    delta, kappa, g = TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 170e6
    chi = g * g / delta
    assert purcell_t1_angular(delta, kappa, chi) == pytest.approx(
        delta ** 2 / (kappa * g * g), rel=1e-12)


def test_purcell_conventions_differ_by_two_pi():
    args = (TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 5.77e6)
    assert purcell_t1(*args) == pytest.approx(
        TWO_PI * purcell_t1_angular(*args), rel=1e-12)


def test_measurement_time_scales():
    chi = TWO_PI * 5.77e6
    t = measurement_time(chi)
    assert t == pytest.approx(10.0 / 5.77e6, rel=1e-12)
    assert 1e-6 < t < 3e-6
    assert measurement_time(chi, 1.0) == pytest.approx(t / 10.0, rel=1e-12)
    assert measurement_time_angular(chi) == pytest.approx(t / TWO_PI, rel=1e-12)


def test_measurement_time_vanishes_at_large_chi():
    assert measurement_time(1e12) < 1e-10


def test_peak_power_reference():
    watts, dbm = peak_power(5.0, TWO_PI * 9.804e9, 1e-6)
    assert dbm == pytest.approx(-135.0, abs=0.5)
    assert watts == pytest.approx(3.248e-17, rel=1e-3)


def test_peak_power_trivials():
    watts, dbm = peak_power(0.0, TWO_PI * 9.804e9, 1e-6)
    assert watts == 0.0 and dbm == -math.inf
    w1, d1 = peak_power(5.0, TWO_PI * 9.804e9, 1e-6)
    w2, d2 = peak_power(5.0, TWO_PI * 9.804e9, 0.5e-6)
    assert w2 == pytest.approx(2.0 * w1, rel=1e-12)
    assert d2 - d1 == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)


def test_kappa_from_coupling_order_of_magnitude():
    kappa = kappa_from_coupling(10e-15, 50.0, TWO_PI * 1e10)
    assert 1e6 < kappa / TWO_PI < 1e8  # order 10 MHz


def test_kappa_scaling_laws():
    base = kappa_from_coupling(10e-15, 50.0, TWO_PI * 1e10)
    assert kappa_from_coupling(20e-15, 50.0, TWO_PI * 1e10) == pytest.approx(
        4.0 * base, rel=1e-12)
    assert kappa_from_coupling(1e-18, 50.0, TWO_PI * 1e10) < 1e-4 * base


def test_inputs_validated():
    with pytest.raises(ValueError):
        purcell_t1(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        measurement_time(0.0)
    with pytest.raises(ValueError):
        peak_power(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kappa_from_coupling(1e-15, 50.0, 0.0)


@pytest.mark.parametrize("args,name", [
    ((math.nan, 1.0, 1.0), "delta"),
    ((1.0, math.nan, 1.0), "kappa"),
    ((1.0, 1.0, math.nan), "chi"),
])
def test_purcell_t1_refuses_nan_naming_it(args, name):
    # nan fails every comparison, so a "<= 0" test let it through, and
    # T1 came out nan
    for estimate in (purcell_t1, purcell_t1_angular):
        with pytest.raises(ValueError, match=f"^{name} must be > 0, got nan$"):
            estimate(*args)


@pytest.mark.parametrize("args,need", [
    ((math.nan, 1.0, 1.0), "alpha_sq must be >= 0"),
    ((1.0, math.nan, 1.0), "omega_p must be > 0"),
    ((1.0, 1.0, math.nan), "duration must be > 0"),
])
def test_peak_power_refuses_nan_naming_it(args, need):
    # a nan |alpha|^2 passed "< 0" and gave (nan, -inf)
    with pytest.raises(ValueError, match=f"^{need}, got nan$"):
        peak_power(*args)


def test_report_carries_convention_tags():
    rep = estimate_report(TWO_PI * 5e9, TWO_PI * 5e6, TWO_PI * 5.77e6,
                          5.0, TWO_PI * 9.804e9, 1e-6)
    assert "convention_note" in rep["purcell_T1_s"]
    assert "convention_note" in rep["measurement_time_s"]
    assert "convention_note" in rep["peak_power"]
    assert rep["purcell_T1_s"]["cyclic"] == pytest.approx(173.3e-6, rel=1e-3)
    assert rep["measurement_time_s"]["cyclic"] == pytest.approx(1.733e-6, rel=1e-3)
    assert rep["peak_power"]["dBm"] == pytest.approx(-135.0, abs=0.5)
