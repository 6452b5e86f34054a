"""Sequential-cascade scheme: additivity, tuning, and the scheme comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qparity.cascade import (
    CascadeCavity,
    CascadeDevice,
    cascade_phase,
    compare_schemes,
    tune_cascade,
)
from qparity.device import QubitState
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


# ----------------------------------------------------------------------
# tuning
# ----------------------------------------------------------------------

def test_tuned_step_is_pi(tuned):
    assert tuned.step == pytest.approx(math.pi, abs=1e-6)


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
        wp = _symmetric_point(trial)
        return _curve(trial, 0, 0).theta(wp) - _curve(trial, 0, 1).theta(wp)

    lo = step_at(TWO_PI * 0.5e6) - math.pi
    hi = step_at(TWO_PI * 40e6) - math.pi
    assert lo < 0.0 < hi


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
