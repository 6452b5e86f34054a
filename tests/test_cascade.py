"""Sequential-cascade scheme: additivity, tuning, and the scheme comparison."""

from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qparity.cascade import (CHI_RANGE, STEP_TOL, _cascade_sums, _newton_symmetric,
                             compare_schemes, tune_cascade)
from qparity.cli import main
from qparity.device import (Mode, ParityDevice, QubitState, _loaded_zero_estimate,
                            _weight_fold, state_phase_curve, weight_phase_curve)
from qparity.fidelity import ProbePulse, fidelity_quadratic_closed

TWO_PI = 2.0 * math.pi


def cavity(f_ghz=10.0, chi=TWO_PI * 5e6, c_ff=10.0, model="stub"):
    """A cascade cavity: one qubit on one mode."""
    return ParityDevice.equal_coupling(1, (Mode(TWO_PI * f_ghz * 1e9, c_ff * 1e-15),),
                                       chi, resonator_model=model)


@pytest.fixture(scope="module")
def tuned():
    return tune_cascade(cavity())


# ----------------------------------------------------------------------
# construction and additivity
# ----------------------------------------------------------------------

def test_cascade_phase_is_sum_of_cavity_phases():
    cav = cavity()
    w = TWO_PI * 9.83e9
    total = _cascade_sums(_weight_fold(cav, w), [QubitState((0, 1, 0))])[0]
    parts = (weight_phase_curve(cav, 0).theta(w) + weight_phase_curve(cav, 1).theta(w)
             + weight_phase_curve(cav, 0).theta(w))
    assert total == parts


def test_single_cavity_cascade_reduces_to_single_phase():
    cav = cavity()
    w = TWO_PI * 9.85e9
    assert (_cascade_sums(_weight_fold(cav, w), [QubitState((1,))])
            == [weight_phase_curve(cav, 1).theta(w)])


def test_equal_weight_states_have_equal_phase():
    cav = cavity()
    w = TWO_PI * 9.82e9
    vals = set(_cascade_sums(_weight_fold(cav, w),
                             [QubitState(b) for b in ((0, 1, 1), (1, 0, 1), (1, 1, 0))]))
    assert len(vals) == 1


@pytest.mark.parametrize("order", [1, 2])
def test_weight_derivative_is_sum_of_cavity_devices(order):
    # the cascade's response in any state adds the cavity's per-bit
    # derivatives, whatever order the bits come in
    cav = cavity()
    for w in TWO_PI * np.array([9.80e9, 9.81e9, 9.83e9]):
        jets = np.vstack(_weight_fold(cav, w, jets=True)).T  # rows by bit
        for bits in itertools.product((0, 1), repeat=3):
            parts = [state_phase_curve(cav, QubitState((b,))).dtheta(w, order)
                     for b in bits]
            got = _cascade_sums(jets, [QubitState(bits)])[0][order]
            assert got == pytest.approx(sum(parts), rel=1e-12)


TOO_BIG = [
    pytest.param(ParityDevice.equal_coupling(
        2, (Mode(TWO_PI * 10e9, 10e-15),), TWO_PI * 5e6), id="2-qubit"),
    pytest.param(ParityDevice.equal_coupling(
        1, (Mode(TWO_PI * 10e9, 10e-15), Mode(TWO_PI * 10.02e9, 10e-15)),
        TWO_PI * 5e6), id="2-mode"),
]


@pytest.mark.parametrize("dev", TOO_BIG)
def test_only_a_one_qubit_one_mode_cavity_is_accepted(dev, paper_solution):
    with pytest.raises(ValueError, match="1-qubit, 1-mode"):
        tune_cascade(dev)
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    with pytest.raises(ValueError, match="1-qubit, 1-mode"):
        compare_schemes(paper_solution, dev, pulse, tune=False)


# ----------------------------------------------------------------------
# tuning
# ----------------------------------------------------------------------

def _step(t):
    """The per-qubit phase step theta_0 - theta_1 of a tuned cavity."""
    return t.theta_by_weight[0] - t.theta_by_weight[1]


def _b_single(t):
    """Its first-order mismatch theta_0' - theta_1', from the kept fold."""
    return t.jets[1][0] - t.jets[1][1]


def test_tuned_step_is_pi(tuned):
    assert _step(tuned) == pytest.approx(math.pi, abs=1e-9)


def test_tuned_first_order_dispersion_cancels(tuned):
    cav = tuned.device
    b2 = weight_phase_curve(cav, 0).dtheta(tuned.omega_p, 2) \
        - weight_phase_curve(cav, 1).dtheta(tuned.omega_p, 2)
    assert abs(_b_single(tuned)) < 1e-3 * abs(b2) * 1e6  # vs b2*W at W = 1 MHz
    assert b2 != 0.0


def test_symmetric_point_search_refuses_a_start_without_a_step_maximum():
    # 10% below the loaded zero the per-qubit phase step curves upward
    # (b' >= 0): Newton on b would climb to no maximum
    cav = cavity()
    w = 0.9 * _loaded_zero_estimate(cav.modes[0], cav.z0)
    with pytest.raises(ValueError, match="no symmetric point: the per-qubit phase step "
                                         "has no maximum near f = 8.82522608e"):
        _newton_symmetric(cav, w)


def test_tuning_bracket_oracle():
    # the 1-D root the tuner solves: step(chi) - pi changes sign on a scan
    cav = cavity()

    def step_at(chi):
        trial = cav.with_chi(chi)
        wp = _newton_symmetric(trial).omega_p
        return weight_phase_curve(trial, 0).theta(wp) - weight_phase_curve(trial, 1).theta(wp)

    lo = step_at(TWO_PI * 0.5e6) - math.pi
    hi = step_at(TWO_PI * 40e6) - math.pi
    assert lo < 0.0 < hi


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(f_ghz=st.floats(1.0, 12.0), c_ff=st.floats(2.0, 40.0),
       model=st.sampled_from(["stub", "lumped"]))
def test_tuned_cascade_is_the_pi_root_at_the_step_maximum(f_ghz, c_ff, model):
    # the oracle is a bracketing root solve of step(chi) - pi over the whole
    # CHI_RANGE, each step the chi-held loop's, independent of chi's Newton
    # steps; where the step does not cross pi there, tuning is refused (exit 3)
    dev = cavity(f_ghz, c_ff=c_ff, model=model)

    def excess(c):
        return _step(_newton_symmetric(dev.with_chi(c))) - math.pi

    try:
        crosses = excess(CHI_RANGE[0]) < 0.0 < excess(CHI_RANGE[1])
    except ValueError:  # no step maximum at an end of the range
        crosses = False
    if not crosses:
        with pytest.raises(ValueError, match="never crosses pi over the chi range"):
            tune_cascade(dev)
        return
    t = tune_cascade(dev)
    chi = t.device.chi
    assert abs(_step(t) - math.pi) < 1e-9
    b2 = (weight_phase_curve(t.device, 0).dtheta(t.omega_p, 2)
          - weight_phase_curve(t.device, 1).dtheta(t.omega_p, 2))
    assert b2 < 0.0  # b' < 0: the step is at its maximum, not a minimum
    assert abs(_b_single(t)) < 1e-3 * abs(b2) * 1e6
    assert chi == pytest.approx(brentq(excess, *CHI_RANGE), rel=1e-8)


def test_tuning_stops_only_at_a_pi_step():
    # started on the step maximum of CHI_RANGE's bottom, omega has converged
    # at the first fold while the step is far below pi: chi must go on
    cav = cavity()
    w = _newton_symmetric(cav.with_chi(CHI_RANGE[0])).omega_p
    t = _newton_symmetric(cav, w, tune_chi=True)
    assert abs(_step(t) - math.pi) <= STEP_TOL
    assert t.device.chi == pytest.approx(tune_cascade(cav).device.chi, rel=1e-8)


@pytest.mark.parametrize("model", ["stub", "lumped"])
@pytest.mark.parametrize("tune", [False, True])
def test_the_tuner_keeps_the_fold_compare_scores(paper_solution, model, tune):
    # the fold that stops the loop is the cascade's jets at omega_p, bit for
    # bit a fresh _weight_fold there, and compare_schemes reads it; the
    # tuner's result is the cavity's solution, as one built from the device
    # and omega_p alone
    from qparity.eraser import EraserSolution, _residuals

    dev = cavity(model=model)
    t = tune_cascade(dev) if tune else _newton_symmetric(dev)
    assert t == EraserSolution(t.device, t.omega_p)
    fresh = _weight_fold(t.device, t.omega_p, jets=True)
    assert len(t.jets) == len(fresh)
    for kept, folded in zip(t.jets, fresh):
        assert kept.shape == folded.shape
        assert [v.hex() for v in kept.ravel().tolist()] == \
            [v.hex() for v in folded.ravel().tolist()]
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    rep = compare_schemes(paper_solution, dev, pulse, tune=tune)
    states = [QubitState.of_weight(3, w) for w in range(4)]
    th = np.array(_cascade_sums(np.vstack(fresh).T, states)).T[0]
    assert rep.cascade.omega_p == t.omega_p
    assert rep.cascade.residuals == tuple(float(v) for v in _residuals(th))


def _old_window_root(cav):
    """Root of b = theta_0' - theta_1' bracketed on the window the tuner
    used to scan: the loaded zero +/- (2 chi + 0.002 omega_r)."""
    mode = cav.modes[0]
    z = _loaded_zero_estimate(mode, cav.z0)
    half = 2.0 * cav.chi + 0.002 * mode.omega
    c0, c1 = weight_phase_curve(cav, 0), weight_phase_curve(cav, 1)
    return brentq(lambda w: c0.dtheta(w) - c1.dtheta(w), z - half, z + half,
                  xtol=1e-3)


@pytest.mark.parametrize("chi_mhz", [1.0, 5.0, 30.0])
def test_untuned_comparison_probes_the_symmetric_point(paper_solution, chi_mhz):
    # tune=False keeps chi and only moves the probe onto the step maximum
    dev = cavity(chi=TWO_PI * chi_mhz * 1e6)
    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    rep = compare_schemes(paper_solution, dev, pulse, tune=False)
    assert rep.cascade.chi == dev.chi
    assert abs(rep.cascade.omega_p - _old_window_root(dev)) < 10.0


# stub cavities with no pi root in 0.05-80 MHz: the 60 fF one needs ~192 MHz,
# the 1 fF one at 5 GHz has a step above pi already at 0.05 MHz
NO_PI_ROOT = [pytest.param(10.0, 60.0, id="root-above-range"),
              pytest.param(5.0, 1.0, id="above-pi-at-start")]


@pytest.mark.parametrize("f_ghz, c_ff", NO_PI_ROOT)
def test_cavity_without_pi_root_in_range_is_refused(f_ghz, c_ff):
    dev = cavity(f_ghz, c_ff=c_ff)
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
    # one Newton loop on exact jets, omega and chi stepping together: 6 fold
    # passes, each the jets of both bit states (the nested loops before,
    # Newton in omega inside Newton in chi, took 18), and no vector theta
    # or network-tree evaluation (network._impedance_parts, which every
    # point and root solve of the oracle sweep goes through); the nested
    # brentq search with its 257-point window scans made 630 jets,
    # 70 x 257 theta points and 36 brentq calls.  A fold pass is a call of
    # the theta fold or of the jets kernel, patched where qparity.network
    # resolves them
    from collections import Counter

    from qparity import network

    counts = Counter()
    jets, theta = network.PhaseCurve.jets, network.PhaseCurve.theta
    tree = network._impedance_parts

    def counting(name):
        fold = getattr(network, name)

        def counting_fold(*args, **kwargs):
            counts["folds"] += 1
            return fold(*args, **kwargs)

        return counting_fold

    def counting_jets(self, omega):
        counts["jets"] += 1
        return jets(self, omega)

    def counting_theta(self, omega):
        counts["vector theta" if np.ndim(omega) else "scalar theta"] += 1
        return theta(self, omega)

    def counting_tree(*args, **kwargs):
        counts["tree evaluations"] += 1
        return tree(*args, **kwargs)

    for name in ("_fold", "_jets"):
        monkeypatch.setattr(network, name, counting(name))
    monkeypatch.setattr(network.PhaseCurve, "jets", counting_jets)
    monkeypatch.setattr(network.PhaseCurve, "theta", counting_theta)
    monkeypatch.setattr(network, "_impedance_parts", counting_tree)
    tune_cascade(cavity())
    assert counts["folds"] <= 7
    assert counts["jets"] <= 100
    assert counts["vector theta"] == 0
    assert counts["tree evaluations"] == 0


def test_tune_cascade_builds_one_device(monkeypatch):
    # a Newton point is its two pulled rows folded, as the eraser's exact
    # stage folds one, with no device built: tuning the README cavity makes
    # 6 fold passes and builds one ParityDevice, the tuned cavity (a device
    # per step made 6)
    from collections import Counter

    from qparity import network

    counts = Counter()
    cav = cavity()
    post_init, jets = ParityDevice.__post_init__, network._jets

    def counting_post_init(self):
        counts["devices"] += 1
        post_init(self)

    def counting_jets(*args, **kwargs):
        counts["folds"] += 1
        return jets(*args, **kwargs)

    monkeypatch.setattr(ParityDevice, "__post_init__", counting_post_init)
    monkeypatch.setattr(network, "_jets", counting_jets)
    tuned = tune_cascade(cav)
    assert counts == {"devices": 1, "folds": 6}
    assert tuned.device == cav.with_chi(tuned.chi)


def test_tuned_eraser_conditions_hold(tuned):
    dev = tuned.device
    wp = tuned.omega_p
    th = _cascade_sums(_weight_fold(dev, wp), [QubitState.of_weight(3, w) for w in range(4)])
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
    return compare_schemes(paper_solution, cavity(), pulse)


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
    table = {r.weights: r for r in eraser_quality(sol, pulse)}
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


# (f_GHz, C_couple_fF) of the first 20 cavities the seed-0 compare benchmark
# scores, the acceptance cavity first
BENCH_CAVITIES = [
    (10.0, 10.0), (10.215298, 7.067), (9.840559, 9.565), (9.736303, 14.014),
    (10.43404, 11.645), (10.123448, 8.572), (9.763598, 11.454), (10.341532, 6.471),
    (9.521565, 13.661), (9.554462, 7.353), (9.932071, 13.612), (10.102821, 9.776),
    (10.305071, 12.022), (10.277271, 8.852), (9.623467, 7.177), (10.235243, 13.458),
    (9.924144, 10.393), (10.402325, 6.914), (9.515487, 14.63), (9.925646, 8.035),
]


def test_tuned_cascade_step_reports_plus_180(paper_solution):
    # a tuned step lands within STEP_TOL of pi on either side, and wrapping
    # into (-pi, pi] gave +180 on 8 of these and -180 on 12: a sign that is
    # rounding noise
    from json_reference import json_ready

    from qparity.cascade import comparison_to_dict

    pulse = ProbePulse.from_duration(math.sqrt(5.0), paper_solution.omega_p, 1e-6)
    for f_ghz, c_ff in BENCH_CAVITIES:
        rep = compare_schemes(paper_solution, cavity(f_ghz, c_ff=c_ff), pulse)
        cas = json_ready(comparison_to_dict(rep))["cascade"]
        assert cas["delta_theta_deg"] == 180.0, (f_ghz, c_ff)


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_compare_refuses_one_qubit(model):
    # n = 1 has no same-parity pair, so no b_max or same-parity score: a
    # ValueError naming n_qubits before the cascade is tuned
    from qparity import solve_eraser

    sol = solve_eraser(ParityDevice.equal_coupling(
        1, (Mode(TWO_PI * 9.97e9, 10e-15),), TWO_PI * 5e6, resonator_model=model))
    pulse = ProbePulse.from_duration(math.sqrt(5.0), sol.omega_p, 1e-6)
    with pytest.raises(ValueError, match=r"^n_qubits: compare needs at least 2 qubits, "
                                         r"got 1$"):
        compare_schemes(sol, cavity(model=model), pulse)


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
