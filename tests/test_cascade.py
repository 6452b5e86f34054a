"""Sequential-cascade scheme: additivity, tuning, and the scheme comparison."""

from __future__ import annotations

import math

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qparity.cascade import (
    CascadeCavity,
    CascadeDevice,
    cascade_phase,
    compare_schemes,
    tune_cascade,
)
from qparity.cli import main
from qparity.device import Mode, QubitState, _loaded_zero_estimate
from qparity.fidelity import ProbePulse, fidelity_quadratic_closed

TWO_PI = 2.0 * math.pi


def uniform_cascade(n=3, chi=TWO_PI * 5e6):
    return CascadeDevice.uniform(n, TWO_PI * 10e9, chi, 10e-15)


@pytest.fixture(scope="module")
def tuned():
    return tune_cascade(uniform_cascade())


# ----------------------------------------------------------------------
# construction and additivity
# ----------------------------------------------------------------------

def test_cavities_must_share_frequency():
    with pytest.raises(ValueError):
        CascadeDevice(n=2, cavities=(
            CascadeCavity(TWO_PI * 10e9, TWO_PI * 5e6, 1e-14),
            CascadeCavity(TWO_PI * 10.1e9, TWO_PI * 5e6, 1e-14)))


def test_cascade_phase_is_sum_of_cavity_phases():
    dev = uniform_cascade(3)
    w = TWO_PI * 9.83e9
    from qparity.cascade import _curve

    total = cascade_phase(dev, QubitState((0, 1, 0)), w)
    parts = (_curve(dev, 0, 0).theta(w) + _curve(dev, 1, 1).theta(w)
             + _curve(dev, 2, 0).theta(w))
    assert total == parts


def test_single_cavity_cascade_reduces_to_single_phase():
    dev = uniform_cascade(1)
    from qparity.cascade import _curve

    w = TWO_PI * 9.85e9
    assert cascade_phase(dev, QubitState((1,)), w) == _curve(dev, 0, 1).theta(w)


def test_equal_weight_states_have_equal_phase():
    dev = uniform_cascade(3)
    w = TWO_PI * 9.82e9
    vals = {cascade_phase(dev, QubitState(b), w)
            for b in ((0, 1, 1), (1, 0, 1), (1, 1, 0))}
    assert len(vals) == 1


def test_cavity_order_permutation_invariance():
    # distinct per-cavity chis, permuted together with the state bits
    cavities = (
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 4e6, 1e-14),
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 6e6, 1e-14),
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 8e6, 1e-14),
    )
    dev_a = CascadeDevice(n=3, cavities=cavities)
    dev_b = CascadeDevice(n=3, cavities=cavities[::-1])
    w = TWO_PI * 9.81e9
    pa = cascade_phase(dev_a, QubitState((0, 1, 1)), w)
    pb = cascade_phase(dev_b, QubitState((1, 1, 0)), w)
    assert pa == pb


@pytest.mark.parametrize("order", [1, 2])
def test_weight_derivative_is_sum_of_cavity_devices(order):
    # each cavity is a one-qubit, one-mode parity device; the cascade's
    # per-weight response adds their derivatives (distinct per-cavity chis)
    from qparity.cascade import _state_curve
    from qparity.device import Mode, ParityDevice, phase_derivatives

    cavities = (
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 4e6, 1e-14),
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 6e6, 1e-14),
        CascadeCavity(TWO_PI * 10e9, TWO_PI * 8e6, 1e-14),
    )
    dev = CascadeDevice(n=3, cavities=cavities)
    for w in TWO_PI * np.array([9.80e9, 9.81e9, 9.83e9]):
        for weight in range(4):
            state = QubitState.of_weight(3, weight)
            parts = [phase_derivatives(
                ParityDevice.equal_coupling(1, (Mode(c.omega_r, c.c_couple),), c.chi),
                QubitState((b,)), w, order) for c, b in zip(cavities, state.bits)]
            got = _state_curve(dev, state).dtheta(w, order)
            assert got == pytest.approx(sum(parts), rel=1e-12)


# ----------------------------------------------------------------------
# tuning
# ----------------------------------------------------------------------

def test_tuned_step_is_pi(tuned):
    assert tuned.step == pytest.approx(math.pi, abs=1e-9)


def test_tuned_first_order_dispersion_cancels(tuned):
    from qparity.cascade import _curve

    dev = tuned.device
    b2 = _curve(dev, 0, 0).dtheta(tuned.omega_p, 2) \
        - _curve(dev, 0, 1).dtheta(tuned.omega_p, 2)
    assert abs(tuned.b_single) < 1e-3 * abs(b2) * 1e6  # vs b2*W at W = 1 MHz
    assert b2 != 0.0


def test_tuning_bracket_oracle():
    # the 1-D root the tuner solves: step(chi) - pi changes sign on a scan
    dev = uniform_cascade()
    from qparity.cascade import _curve, _symmetric_point

    def step_at(chi):
        trial = dev.with_chi(chi)
        wp = _symmetric_point(trial).omega_p
        return _curve(trial, 0, 0).theta(wp) - _curve(trial, 0, 1).theta(wp)

    lo = step_at(TWO_PI * 0.5e6) - math.pi
    hi = step_at(TWO_PI * 40e6) - math.pi
    assert lo < 0.0 < hi


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(f_ghz=st.floats(9.5, 10.5), c_ff=st.floats(5.0, 15.0), n=st.integers(1, 4),
       model=st.sampled_from(["stub", "lumped"]))
def test_tuned_cascade_is_the_pi_root_at_the_step_maximum(f_ghz, c_ff, n, model):
    # the compare workload's cavity ranges; the oracle is a bracketing root
    # solve of step(chi) - pi, independent of the Newton iteration on chi
    from qparity.cascade import _curve, _symmetric_point

    dev = CascadeDevice.uniform(n, TWO_PI * f_ghz * 1e9, TWO_PI * 5e6, c_ff * 1e-15,
                                resonator_model=model)
    t = tune_cascade(dev)
    chi = t.device.chi
    assert abs(t.step - math.pi) < 1e-9
    b2 = (_curve(t.device, 0, 0).dtheta(t.omega_p, 2)
          - _curve(t.device, 0, 1).dtheta(t.omega_p, 2))
    assert b2 < 0.0  # b' < 0: the step is at its maximum, not a minimum
    assert abs(t.b_single) < 1e-3 * abs(b2) * 1e6
    oracle = brentq(lambda c: _symmetric_point(dev.with_chi(c)).step - math.pi,
                    0.5 * chi, 2.0 * chi)
    assert chi == pytest.approx(oracle, rel=1e-8)


def _old_window_root(dev):
    """Root of b = theta_0' - theta_1' bracketed on the window the tuner
    used to scan: the loaded zero +/- (2 chi + 0.002 omega_r)."""
    from qparity.cascade import _curve

    cav = dev.cavities[0]
    z = _loaded_zero_estimate(Mode(cav.omega_r, cav.c_couple), dev.z0)
    half = 2.0 * cav.chi + 0.002 * cav.omega_r
    c0, c1 = _curve(dev, 0, 0), _curve(dev, 0, 1)
    return brentq(lambda w: c0.dtheta(w) - c1.dtheta(w), z - half, z + half,
                  xtol=1e-3)


@pytest.mark.parametrize("chi_mhz", [1.0, 5.0, 30.0])
def test_untuned_comparison_probes_the_symmetric_point(paper_solution, chi_mhz):
    # tune=False keeps chi and only moves the probe onto the step maximum
    dev = uniform_cascade(chi=TWO_PI * chi_mhz * 1e6)
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    rep = compare_schemes(paper_solution.device, paper_solution, dev, pulse, tune=False)
    assert rep.cascade.chi == dev.chi
    assert abs(rep.cascade.omega_p - _old_window_root(dev)) < 10.0


# stub cavities with no pi root in 0.05-80 MHz: the 60 fF one needs ~192 MHz,
# the 1 fF one at 5 GHz has a step above pi already at 0.05 MHz
NO_PI_ROOT = [pytest.param(10.0, 60.0, id="root-above-range"),
              pytest.param(5.0, 1.0, id="above-pi-at-start")]


@pytest.mark.parametrize("f_ghz, c_ff", NO_PI_ROOT)
def test_cavity_without_pi_root_in_range_is_refused(f_ghz, c_ff):
    dev = CascadeDevice.uniform(3, TWO_PI * f_ghz * 1e9, TWO_PI * 5e6, c_ff * 1e-15)
    with pytest.raises(ValueError, match="never crosses pi over the chi range"):
        tune_cascade(dev)


@pytest.mark.parametrize("f_ghz, c_ff", NO_PI_ROOT)
def test_compare_without_pi_root_exits_3_in_one_line(tmp_path, capsys, f_ghz, c_ff):
    paper, cas = tmp_path / "paper.json", tmp_path / "cascade.json"
    paper.write_text(json.dumps({
        "schema_version": "1", "n_qubits": 3, "chi_MHz": "solve",
        "modes": [{"f_GHz": 9.99, "C_couple_fF": 10.0},
                  {"f_GHz": 10.01, "C_couple_fF": 10.0}]}))
    cas.write_text(json.dumps({
        "schema_version": "1", "kind": "cascade", "n_qubits": 3, "chi_MHz": "tune",
        "cavity": {"f_GHz": f_ghz, "C_couple_fF": c_ff}}))
    out = tmp_path / "cmp.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", str(paper), str(cas), "--out", str(out)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("evaluation error: per-qubit phase step never crosses pi")
    assert "\n" not in err
    assert not out.exists()


def test_tune_cascade_work_count(monkeypatch):
    # two Newton iterations on exact jets: ~30 derivative evaluations and no
    # vector theta or bracketing root solve; the nested brentq search with
    # its 257-point window scans made 630 jets, 70 x 257 theta points and
    # 36 brentq calls
    from collections import Counter

    from qparity import cascade, network

    counts = Counter()
    derivatives, theta = network.PhaseCurve._derivatives, network.PhaseCurve.theta

    def counting_derivatives(self, omega):
        counts["jets"] += 1
        return derivatives(self, omega)

    def counting_theta(self, omega):
        counts["vector theta" if np.ndim(omega) else "scalar theta"] += 1
        return theta(self, omega)

    def counting_brentq(*args, **kwargs):
        counts["brentq"] += 1
        return brentq(*args, **kwargs)

    monkeypatch.setattr(network.PhaseCurve, "_derivatives", counting_derivatives)
    monkeypatch.setattr(network.PhaseCurve, "theta", counting_theta)
    monkeypatch.setattr(network, "brentq", counting_brentq)
    monkeypatch.setattr(cascade, "brentq", counting_brentq, raising=False)
    tune_cascade(uniform_cascade())
    assert counts["jets"] <= 100
    assert counts["vector theta"] == 0
    assert counts["brentq"] == 0


def test_tuned_eraser_conditions_hold(tuned):
    dev = tuned.device
    wp = tuned.omega_p
    th = [cascade_phase(dev, QubitState.of_weight(3, w), wp) for w in range(4)]
    assert th[0] - th[2] - TWO_PI == pytest.approx(0.0, abs=1e-6)
    assert th[1] - th[3] - TWO_PI == pytest.approx(0.0, abs=1e-6)
    from qparity.network import wrap_phase

    assert abs(wrap_phase(th[0] - th[1])) == pytest.approx(math.pi, abs=1e-6)


# ----------------------------------------------------------------------
# scheme comparison
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def comparison(paper_solution):
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    return compare_schemes(paper_solution.device, paper_solution,
                           uniform_cascade(), pulse)


def test_resonator_counts(comparison):
    assert comparison.parallel.resonator_count == 2   # ceil((3+1)/2)
    assert comparison.cascade.resonator_count == 3    # n


def test_cascade_kills_first_order_dispersion(comparison):
    assert comparison.cascade.b_max < comparison.parallel.b_max / 100.0
    assert comparison.cascade.b2_max > 0.0
    assert comparison.b_ratio > 100.0


def test_exact_cancellation_serializes_as_null_ratio(comparison):
    # exact derivatives can cancel the cascade's b to 0.0 at the symmetric
    # point; the report must stay strict JSON
    import json
    from dataclasses import replace

    from qparity.cascade import comparison_to_dict

    data = comparison_to_dict(replace(comparison, b_ratio=math.inf))
    assert data["b_ratio_parallel_over_cascade"] is None
    json.dumps(data, allow_nan=False)
    assert comparison_to_dict(comparison)["b_ratio_parallel_over_cascade"] \
        == comparison.b_ratio


def test_parallel_side_is_the_eraser_quality_table(comparison, paper_solution):
    # both schemes are scored by one pairwise table: the parallel side must
    # read exactly what eraser_quality reports for the solved device
    from qparity.fidelity import eraser_quality

    sol = paper_solution
    pulse = ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)
    table = {r.weights: r for r in eraser_quality(sol.device, sol, pulse)}
    par = comparison.parallel
    assert par.same_parity_fidelity.keys() == {(0, 2), (1, 3)}
    for pair, f in par.same_parity_fidelity.items():
        assert f == table[pair].f_numeric
        assert par.same_parity_closed[pair] == table[pair].f_closed
    assert par.cross_parity_fidelity == table[(0, 1)].f_numeric
    assert par.cross_parity_closed == table[(0, 1)].f_closed
    assert par.b_max == sol.dispersion_b
    assert par.b2_max == sol.dispersion_b2
    assert par.residuals == sol.residuals
    assert par.delta_theta == sol.delta_theta


def test_cascade_fidelity_matches_quadratic_closed(comparison):
    for pair, mismatch in comparison.quadratic_match.items():
        assert mismatch < 1e-4, pair


def test_cascade_residuals_and_contrast(comparison):
    assert np.max(np.abs(comparison.cascade.residuals)) < 1e-6
    assert abs(comparison.cascade.delta_theta) == pytest.approx(math.pi, abs=1e-6)


def test_comparison_fidelity_sanity(comparison):
    for metrics in (comparison.parallel, comparison.cascade):
        for f in metrics.same_parity_fidelity.values():
            assert 0.99 < f <= 1.0
        assert metrics.cross_parity_fidelity < 1e-3


def test_quadratic_penalty_scale(comparison, paper_solution):
    # the cascade's same-parity penalty is the closed-form quadratic one
    pulse_w = 1e6
    b2 = comparison.cascade.b2_max
    f_pred = fidelity_quadratic_closed(math.sqrt(5.0), 0.5 * b2, pulse_w)
    worst = min(comparison.cascade.same_parity_fidelity.values())
    assert worst == pytest.approx(f_pred, abs=1e-4)
