"""Coherent-pulse overlaps: mode grid, numeric sum vs closed forms, pipeline."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from qparity.fidelity import (
    ProbePulse,
    build_mode_grid,
    eraser_quality,
    fidelity_even_odd,
    fidelity_linear_closed,
    fidelity_numeric,
    fidelity_quadratic_closed,
    linear_expansion,
    quadratic_closed_radical,
    quadratic_expansion,
)

TWO_PI = 2.0 * math.pi
W_P = TWO_PI * 9.804e9


def pulse_with(alpha_sq, bandwidth):
    return ProbePulse(alpha=math.sqrt(alpha_sq), omega_p=W_P, bandwidth=bandwidth)


# ----------------------------------------------------------------------
# mode grid
# ----------------------------------------------------------------------

def test_weights_normalize_default_grid():
    grid = build_mode_grid(W_P, 1e6)
    assert 1.0 - 1e-6 <= grid.weight_norm <= 1.0


def test_weights_normalize_2001_points():
    grid = build_mode_grid(W_P, 1e6, span_sigmas=8.0, points=2001)
    assert 1.0 - 1e-6 <= grid.weight_norm <= 1.0


def test_weights_normalize_fine_spacing():
    # spacing W/1000 over +/- 8 W
    grid = build_mode_grid(W_P, 1e6, span_sigmas=8.0, points=16001)
    assert 1.0 - 1e-6 <= grid.weight_norm <= 1.0


def test_weights_scale_invariance():
    for w in (1e4, 1e6, 1e8):
        grid = build_mode_grid(W_P, w, points=4001)
        assert 1.0 - 1e-6 <= grid.weight_norm <= 1.0


def test_center_weight_is_maximal():
    grid = build_mode_grid(W_P, 1e6)
    assert np.argmax(grid.weights) == len(grid.weights) // 2


def test_grid_validation():
    with pytest.raises(ValueError):
        build_mode_grid(W_P, 1e6, span_sigmas=5.0)
    with pytest.raises(ValueError):
        build_mode_grid(W_P, 1e6, points=4000)
    with pytest.raises(ValueError):
        build_mode_grid(W_P, 1e6, points=101)


@pytest.mark.parametrize("make, field", [
    (lambda: ProbePulse(1.0, 6e10, math.nan), "bandwidth"),
    (lambda: ProbePulse(1.0, 6e10, math.inf), "bandwidth"),
    (lambda: ProbePulse(1.0, math.inf, 1e6), "omega_p"),
    (lambda: ProbePulse(1.0, math.nan, 1e6), "omega_p"),
    (lambda: ProbePulse.from_duration(1.0, 6e10, math.nan), "duration"),
    (lambda: ProbePulse.from_duration(1.0, 6e10, math.inf), "duration"),
    (lambda: build_mode_grid(math.inf, 1e6), "omega_p"),
    (lambda: build_mode_grid(6e10, math.nan), "bandwidth"),
], ids=["bandwidth-nan", "bandwidth-inf", "omega-inf", "omega-nan", "duration-nan",
        "duration-inf", "grid-omega-inf", "grid-bandwidth-nan"])
def test_pulse_fields_must_be_finite_and_positive(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
        make()


def test_pulse_duration_bandwidth_reciprocal():
    p = ProbePulse.from_duration(1.0, W_P, 1e-6)
    assert p.bandwidth == pytest.approx(1e6)
    assert p.duration * p.bandwidth == pytest.approx(1.0)


# ----------------------------------------------------------------------
# numeric mode sum: trivial limits
# ----------------------------------------------------------------------

def test_identical_phases_give_unit_fidelity():
    theta = lambda w: 0.3 * np.sin((w - W_P) / 1e9)
    f = fidelity_numeric(theta, theta, pulse_with(5.0, 1e6))
    assert f == pytest.approx(1.0, abs=1e-15)


def test_vacuum_probe_gives_unit_fidelity():
    t1 = lambda w: np.zeros_like(w)
    t2 = lambda w: np.full_like(w, 2.0)
    f = fidelity_numeric(t1, t2, pulse_with(0.0, 1e6))
    assert f == pytest.approx(1.0, abs=1e-15)


def test_full_turn_offset_drops_out():
    t1 = lambda w: np.zeros_like(w)
    t2 = lambda w: np.full_like(w, -TWO_PI)
    f = fidelity_numeric(t1, t2, pulse_with(5.0, 1e6))
    assert f == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# closed forms vs numeric mode sum (independent paths)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("alpha_sq", [1.0, 5.0, 25.0])
@pytest.mark.parametrize("bw", [0.01, 0.1, 0.5])
def test_linear_closed_matches_numeric(alpha_sq, bw):
    w_band = 1e6
    b = bw / w_band
    t1 = lambda w: b * (np.asarray(w) - W_P)
    t2 = lambda w: np.zeros_like(np.asarray(w, dtype=float))
    f_num = fidelity_numeric(t1, t2, pulse_with(alpha_sq, w_band))
    f_closed = fidelity_linear_closed(math.sqrt(alpha_sq), b, w_band)
    assert f_num == pytest.approx(f_closed, abs=1e-6)


@pytest.mark.parametrize("alpha_sq", [1.0, 5.0, 25.0])
@pytest.mark.parametrize("b2w2", [0.01, 0.1, 0.5])
def test_quadratic_closed_matches_numeric(alpha_sq, b2w2):
    w_band = 1e6
    b2 = b2w2 / w_band ** 2
    t1 = lambda w: b2 * (np.asarray(w) - W_P) ** 2
    t2 = lambda w: np.zeros_like(np.asarray(w, dtype=float))
    f_num = fidelity_numeric(t1, t2, pulse_with(alpha_sq, w_band))
    f_closed = fidelity_quadratic_closed(math.sqrt(alpha_sq), b2, w_band)
    assert f_num == pytest.approx(f_closed, abs=1e-6)


def test_quadratic_dual_forms_agree():
    # complex-sqrt modulus and real-radical are algebraically equal
    alpha = math.sqrt(5.0)
    w_band = 1e6
    for x in np.linspace(0.0, 10.0, 101):
        b2 = x / w_band ** 2
        a = fidelity_quadratic_closed(alpha, b2, w_band)
        b = quadratic_closed_radical(alpha, b2, w_band)
        assert abs(a - b) < 1e-12


def test_linear_closed_reference_values():
    assert fidelity_linear_closed(math.sqrt(5.0), 0.0, 1e6) == 1.0
    # exp(-5 (1 - e^{-0.005})), frozen from a 50-digit evaluation
    mp.mp.dps = 50
    expected = float(mp.e ** (-5 * (1 - mp.e ** (-mp.mpf("0.005")))))
    assert expected == pytest.approx(0.9753707693285237, rel=1e-13)
    got = fidelity_linear_closed(math.sqrt(5.0), 1e-7, 1e6)
    assert got == pytest.approx(expected, rel=1e-12)


def test_linear_closed_large_mismatch_limit():
    # bW -> inf: F -> exp(-|alpha|^2)
    got = fidelity_linear_closed(math.sqrt(5.0), 1.0, 1e6)
    assert got == pytest.approx(math.exp(-5.0), rel=1e-12)


def test_even_odd_reference_values():
    assert fidelity_even_odd(math.sqrt(5.0), math.pi) == pytest.approx(
        math.exp(-10.0), rel=1e-15)
    assert fidelity_even_odd(math.sqrt(5.0), 0.0) == 1.0
    # the worked contrast 172.9 deg stays below e^{-9.8}
    got = fidelity_even_odd(math.sqrt(5.0), math.radians(172.9))
    assert got == pytest.approx(4.717437622241259e-05, rel=1e-12)
    assert got < math.exp(-9.8)


def test_expansions_match_exact_in_regime():
    alpha = math.sqrt(5.0)
    w_band = 1e6
    b = 0.02 / w_band
    assert linear_expansion(alpha, b, w_band) == pytest.approx(
        fidelity_linear_closed(alpha, b, w_band), abs=1e-6)
    b2 = 0.01 / w_band ** 2
    assert quadratic_expansion(alpha, b2, w_band) == pytest.approx(
        fidelity_quadratic_closed(alpha, b2, w_band), abs=1e-6)


def test_quadratic_zero_mismatch_is_unity():
    assert fidelity_quadratic_closed(2.0, 0.0, 1e6) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

def test_linear_closed_monotone_in_each_argument():
    alphas = np.linspace(0.0, 6.0, 13)
    bs = np.linspace(0.0, 3e-6, 13)
    ws = np.linspace(1e5, 3e6, 13)
    f_a = [fidelity_linear_closed(a, 1e-6, 1e6) for a in alphas]
    f_b = [fidelity_linear_closed(2.0, b, 1e6) for b in bs]
    f_w = [fidelity_linear_closed(2.0, 1e-6, w) for w in ws]
    for seq in (f_a, f_b, f_w):
        assert all(x >= y - 1e-15 for x, y in zip(seq, seq[1:]))


def test_fidelities_bounded_random_inputs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        alpha = rng.uniform(0.0, 6.0)
        b = rng.uniform(-3e-6, 3e-6)
        b2 = rng.uniform(-3e-12, 3e-12)
        w = rng.uniform(1e4, 3e6)
        dth = rng.uniform(-math.pi, math.pi)
        for f in (fidelity_linear_closed(alpha, b, w),
                  fidelity_quadratic_closed(alpha, b2, w),
                  fidelity_even_odd(alpha, dth)):
            assert 0.0 <= f <= 1.0


def test_mode_sum_convergence_4001_vs_8001(paper_solution):
    from qparity.device import weight_phase_curve

    dev = paper_solution.device
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    t0 = weight_phase_curve(dev, 0).theta
    t2 = weight_phase_curve(dev, 2).theta
    f_a = fidelity_numeric(t0, t2, pulse, build_mode_grid(pulse.omega_p, pulse.bandwidth, points=4001))
    f_b = fidelity_numeric(t0, t2, pulse, build_mode_grid(pulse.omega_p, pulse.bandwidth, points=8001))
    assert abs(f_a - f_b) < 1e-8


# ----------------------------------------------------------------------
# full pipeline on the solved device
# ----------------------------------------------------------------------

def test_eraser_quality_pipeline(paper_solution):
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    reports = eraser_quality(paper_solution, pulse)
    assert len(reports) == 6  # all weight pairs of 0..3
    for rep in reports:
        assert 0.0 <= rep.f_numeric <= 1.0
        if rep.branch.startswith("same-parity"):
            assert rep.f_numeric > 0.99
            assert rep.f_closed == pytest.approx(rep.f_numeric, abs=1e-4)
        else:
            assert rep.f_numeric < 1e-3
    # cross-parity overlaps cannot beat the contrast bound by more than the
    # bandwidth correction
    bound = fidelity_even_odd(pulse.alpha, paper_solution.delta_theta)
    for rep in reports:
        if rep.branch == "even-odd":
            assert rep.f_numeric <= bound + 1e-4


def test_eraser_quality_cw_limit(paper_solution):
    # W -> 0 (very long pulse): same-parity overlaps approach unity
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-3)
    reports = eraser_quality(paper_solution, pulse)
    for rep in reports:
        if rep.branch.startswith("same-parity"):
            assert rep.f_numeric > 1.0 - 1e-6


def test_equal_weight_pair_is_exactly_unity(paper_solution):
    from qparity.device import weight_phase_curve

    dev = paper_solution.device
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    t1 = weight_phase_curve(dev, 1).theta
    assert fidelity_numeric(t1, t1, pulse) == pytest.approx(1.0, abs=1e-15)
