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
from oracle_network import build_state_network
from scipy.optimize import brentq

from qparity.device import (
    Mode,
    ParityDevice,
    QubitState,
    analysis_band,
    state_phase_curve,
    weight_phase_curve,
)
from qparity.network import (
    Capacitor,
    Inductor,
    PhaseCurve,
    Series,
    _crossings,
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
            for bit, curve in enumerate(device_curves(single))]


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(4.0, 12.0),
    gaps_mhz=st.lists(st.floats(5.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_jets_lead_with_theta_bit_for_bit(m, model, f0_ghz, gaps_mhz, couplers_ff,
                                          fractions):
    # jets folds one scalar frequency where theta folds a one-element array;
    # its theta is theta's own, across the band and on, and one ulp either
    # side of, every branch zero and loaded pole
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    omega_r = [TWO_PI * (f0_ghz * 1e9 + d * 1e6) for d in offsets]
    lo, hi = 0.9 * omega_r[0], 1.05 * omega_r[-1]
    curve = PhaseCurve([c * 1e-15 for c in couplers_ff[:m]], omega_r, 50.0, (lo, hi),
                       model)
    points = [lo + (hi - lo) * f for f in fractions]
    for feature in np.concatenate([curve.zeros, curve.poles]):
        points += [np.nextafter(feature, 0.0), feature, np.nextafter(feature, np.inf)]
    assert len(points) == 4 + 2 * 3 * m
    for w in points:
        assert curve.jets(w)[0].hex() == curve.theta(w).hex()


@pytest.mark.parametrize("model", ["stub", "lumped"])
def test_broadcast_fold_matches_each_curve(model):
    # one jets kernel pass, and one first-order kernel pass, over the
    # stacked branch tables of every weight, one frequency per curve, give
    # each curve's own theta and theta' bit for bit
    from qparity.network import _jets, _theta_slopes

    curves = device_curves(paper(model))
    grid = TWO_PI * np.linspace(9.7e9, 10.1e9, 7)
    rows = np.repeat(np.arange(len(curves)), len(grid))
    table = np.array([c._branches for c in curves])[rows]
    w = np.tile(grid, len(curves))
    stub, z0 = model == "stub", curves[0].z0
    for theta, slope in (_jets(stub, z0, table, w)[:2],
                         _theta_slopes(stub, z0, table.tolist(), w.tolist())):
        assert np.array_equal(theta, np.concatenate([c.theta(grid) for c in curves]))
        assert np.array_equal(slope, [c.dtheta(x) for c in curves for x in grid])


def test_phasor_kernel_is_unimodular_and_exp_i_theta():
    # r of 400 seeded stacked tables (1-6 rows of 1-6 branches, stub and
    # lumped) along a comb that holds every row's resonances and series
    # zeros exactly: |r| = 1 to 4 ulps, and r = exp(i theta) of the fold it
    # replaces on the comb to 1e-12, every value finite; on a zero, r = -1
    from qparity.network import _curve_table, _fold, _phasor, _series_zeros

    rng = np.random.default_rng(20261019)
    worst = 0.0
    for k in range(400):
        model = ("stub", "lumped")[k % 2]
        stub = model == "stub"
        rows, m = rng.integers(1, 7, size=2)
        couplers = rng.uniform(3e-15, 20e-15, m)
        omega_r = TWO_PI * np.sort(rng.uniform(4e9, 12e9, (rows, m)), axis=1)
        z0 = rng.uniform(20.0, 100.0)
        table = np.array([_curve_table(couplers, row, z0, model) for row in omega_r])
        zeros = np.array(_series_zeros(stub, z0, [(branch, 0) for row in table.tolist()
                                                  for branch in row]))
        comb = np.concatenate([TWO_PI * np.linspace(3.5e9, 12.5e9, 101), omega_r.ravel(),
                               zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf)])
        r = _phasor(stub, z0, table, comb[None, :])
        assert r.shape == (rows, len(comb)) and np.isfinite(r).all()
        assert np.max(np.abs(np.abs(r) - 1.0)) <= 4 * np.spacing(1.0)
        err = np.abs(r - np.exp(1j * _fold(stub, z0, table, comb[None, :])))
        worst = max(worst, float(np.max(err)))
        for row, branch_zeros in zip(r, zeros.reshape(rows, m)):
            on_zero = np.isin(comb, branch_zeros)
            assert np.max(np.abs(row[on_zero] + 1.0)) <= 1e-9
    assert worst <= 1e-12


def _hexes(jets) -> list:
    """Every entry of (theta, theta', theta'', d theta/d w_r) as float.hex,
    row by row: the sign of a zero counts, and every nan reads 'nan'."""
    theta, d1, d2, d_r = (np.asarray(x, dtype=float) for x in jets)
    return [[float(x).hex() for x in (*row[:3], *row[3:])]
            for row in np.column_stack([theta, d1, d2, d_r.T])]


def _kernel_matches_reference(stub, z0, table, w) -> bool:
    """The jets kernel equals the numpy reference fold entry for entry by
    .hex(), and so do the first-order kernel's theta and theta'
    (_theta_slopes on Python floats, one frequency per row), the first two
    entries; the kernel's checked form refuses exactly where a derivative
    leaves float range; returns whether any entry did."""
    from jets_reference import reference_jets

    from qparity.network import NetworkError, _fold_jets, _jets, _theta_slopes

    with np.errstate(all="ignore"):
        expected = reference_jets(stub, z0, table, w)
        assert _hexes(_jets(stub, z0, table, w)) == _hexes(expected)
        first_order = _theta_slopes(stub, z0, np.asarray(table, dtype=float).tolist(),
                                    np.broadcast_to(w, len(table)).tolist())
        assert ([[float(x).hex() for x in np.ravel(entry)] for entry in first_order]
                == [[float(x).hex() for x in np.ravel(entry)] for entry in expected[:2]])
        finite = all(np.isfinite(x).all() for x in expected[1:])
        try:
            _fold_jets(stub, z0, table, w)
        except NetworkError:
            assert not finite
        else:
            assert finite
    return not finite


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(4.0, 12.0),
    gaps_mhz=st.lists(st.floats(5.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chi_mhz=st.floats(0.1, 10.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    extremes=st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
                                st.floats(-150.0, 150.0), st.floats(-300.0, 300.0)),
                      min_size=4, max_size=4),
)
def test_jets_kernel_matches_numpy_reference(n, m, model, f0_ghz, gaps_mhz, couplers_ff,
                                             chi_mhz, fractions, extremes):
    # the float jets kernel against the numpy jets fold it replaced (tests/
    # jets_reference.py): every weight's row, all four entries by .hex(), at
    # random frequencies, on and one ulp either side of every branch zero
    # and loaded pole, and one frequency per row; then with branch 0 of
    # extreme magnitude (coupler, resonance, z0 and omega 10^-300..10^300)
    # beside the device's other branches, where entries leave float range
    # and an inf or nan in one branch's direction reaches the others only
    # through the exact 0.0 * P3 and 0.0 * N3 products
    from qparity.device import _weight_table
    from qparity.network import _branch_table

    stub = model == "stub"
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    dev = ParityDevice.equal_coupling(n, modes, TWO_PI * chi_mhz * 1e6,
                                      resonator_model=model)
    table = _weight_table(dev)
    lo, hi = analysis_band(dev)
    points = [lo + (hi - lo) * f for f in fractions]
    for curve in device_curves(dev):
        for feature in np.concatenate([curve.zeros, curve.poles]):
            points += [np.nextafter(feature, 0.0), feature, np.nextafter(feature, np.inf)]
    for w in points:
        _kernel_matches_reference(stub, dev.z0, table, w)
    _kernel_matches_reference(stub, dev.z0, table, np.resize(points, n + 1))

    for e_c, e_r, e_z0, e_w in extremes:
        z0 = 10.0 ** e_z0
        couplers = [10.0 ** e_c, *(mo.c_couple for mo in modes[1:])]
        omega_r = [10.0 ** e_r, *(mo.omega for mo in modes[1:])]
        try:
            branches = _branch_table(stub, z0, couplers, omega_r)
        except ValueError:  # no lumped equivalent in float range
            continue
        _kernel_matches_reference(stub, z0, [branches] * 2,
                                  np.array([10.0 ** e_w, points[0]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    stub=st.booleans(),
    z0=st.floats(1.0, 300.0),
    f_ghz=st.lists(st.floats(0.2, 40.0), min_size=3, max_size=3),
    couplers_ff=st.lists(st.floats(0.1, 200.0), min_size=3, max_size=3),
    top_order=st.integers(0, 5),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_first_order_branch_parts_match_the_full_jets(stub, z0, f_ghz, couplers_ff,
                                                      top_order, fractions):
    # _branch_parts at order 1, the zero step's and the pole search's
    # first-order parts, equals the first two entries at order 2 by
    # .hex(), on numpy arrays and on Python floats, at random frequencies
    # across the tan intervals; and the series zeros it steps to, for
    # every order up to top_order, are the zeros of a Newton step on the
    # order-2 N
    from qparity import network
    from qparity.network import _branch_factors, _branch_parts

    table = network._branch_table(stub, z0, [c * 1e-15 for c in couplers_ff],
                                  [TWO_PI * f * 1e9 for f in f_ghz])
    cols = table.T[..., None]  # (columns, branches, 1) against w (points,)
    w = np.array(fractions) * (2 * top_order + 2) * TWO_PI * max(f_ghz) * 1e9
    shape = (len(table), len(w))

    def hexes(entries):
        return [[float(x).hex() for x in np.broadcast_to(e, shape).ravel()] for e in entries]

    p, n = _branch_parts(stub, z0, cols, w, order=2)
    expected = hexes([*p[:2], *n[:2]])
    (p, p1), (n, n1) = _branch_parts(stub, z0, cols, w, order=1)
    assert hexes([p, p1, n, n1]) == expected
    factors = [np.broadcast_to(f, shape) for f in _branch_factors(stub, cols, w, order=1)]
    on_floats = [_branch_parts(stub, z0, table[b].tolist(), float(w[j]), 1,
                               [float(f[b, j]) for f in factors])
                 for b in range(shape[0]) for j in range(shape[1])]
    assert hexes(np.reshape([[*p, *n] for p, n in on_floats], shape + (4,)).transpose(
        2, 0, 1)) == expected

    def full_parts(stub, z0, branch, w, order=0, factors=None):
        p, n = _branch_parts(stub, z0, branch, w, order=2)
        return p[:order + 1], n[:order + 1]

    pairs = [(branch, k) for branch in table.tolist() for k in range(top_order + 1)]
    zeros = network._series_zeros(stub, z0, pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_branch_parts", full_parts)
        reference = network._series_zeros(stub, z0, pairs)
    assert [x.hex() for x in np.ravel(zeros)] == [x.hex() for x in np.ravel(reference)]


def test_jets_kernel_matches_reference_beyond_float_range():
    # extreme tables reach inf and nan: a huge coupler (the branch parts
    # overflow), a lumped tank below 1e-154 rad/s (L C overflows, so its
    # w_r = 1/sqrt(L C) is 0 and the tank's d/dw_r divide by 0),
    # frequencies far above the resonance, and a stub resonance of 1e-200
    # rad/s beside a 10 GHz one: its d/dw_r is inf, so theta'' and, through
    # the products 0.0 * inf, the other branch's d theta/d w_r are nan,
    # while theta' stays finite
    from qparity.network import _branch_table, _jets

    cases = [(True, 50.0, (1e285,), (6e10,), 6e10),
             (False, 1.0, (1e-14,), (1e-160,), 1.0),
             (True, 50.0, (1e-14,), (6e10,), 1e300),
             (False, 50.0, (1e-14,), (6e10,), 1e300),
             (True, 50.0, (1e-14, 1e-14), (1e-200, 6.2e10), 6.1e10)]
    for stub, z0, c_couple, omega_r, w in cases:
        table = [_branch_table(stub, z0, c_couple, omega_r)]
        assert _kernel_matches_reference(stub, z0, table, w)
    with np.errstate(all="ignore"):
        _, d1, _, d_r = _jets(True, 50.0, table, 6.1e10)
    assert np.isfinite(d1).all() and np.isnan(d_r).all()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(4.0, 12.0),
    gaps_mhz=st.lists(st.floats(5.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chis_mhz=st.lists(st.floats(0.1, 10.0), min_size=18, max_size=18),
    equal=st.booleans(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_stacked_weight_fold_is_each_weight_curve_bit_for_bit(
        n, m, model, f0_ghz, gaps_mhz, couplers_ff, chis_mhz, equal, fractions):
    # the stacked weight table, built from floats, holds each weight curve's
    # own branch table bit for bit; and one broadcast jets fold of it gives
    # each curve's scalar jets, all four entries bit for bit, across the band
    # and on, and one ulp either side of, every branch zero and loaded pole
    # of every weight.  An unequal chi matrix has no weight table: it is
    # refused, and the pulled-state rule's row of every state, stacked, is
    # that state's own curve's table, with its jets, bit for bit
    from qparity.device import _pulled_rows, _weight_fold, _weight_table
    from qparity.network import _curve_table, _fold_jets

    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    chi = [[TWO_PI * 1e6 * chis_mhz[0 if equal else j * m + k] for k in range(m)]
           for j in range(n)]
    dev = ParityDevice(n=n, modes=modes, chi_matrix=chi, resonator_model=model)
    lo, hi = analysis_band(dev)
    points = [lo + (hi - lo) * f for f in fractions]
    if dev.equal_chi:
        curves, table = device_curves(dev), _weight_table(dev)
        fold = lambda w: _weight_fold(dev, w, jets=True)
        assert table.shape == (n + 1, m, 2 if model == "stub" else 3)
        for curve in curves:
            for feature in np.concatenate([curve.zeros, curve.poles]):
                points += [np.nextafter(feature, 0.0), feature, np.nextafter(feature, np.inf)]
    else:
        with pytest.raises(ValueError, match="only under equal coupling"):
            _weight_table(dev)
        states = [QubitState(bits) for bits in itertools.product((0, 1), repeat=n)]
        curves = [state_phase_curve(dev, state) for state in states]
        rows = _pulled_rows([mo.omega for mo in modes], dev.chi_matrix,
                            [[-1.0 if b else 1.0 for b in state.bits] for state in states])
        table = np.array([_curve_table([mo.c_couple for mo in modes], row, dev.z0, model)
                          for row in rows])
        fold = lambda w: _fold_jets(model == "stub", dev.z0, table, w)
    for row, curve in zip(table, curves, strict=True):
        assert ([[x.hex() for x in branch] for branch in row.tolist()]
                == [[x.hex() for x in branch] for branch in curve._branches.tolist()])
    for w in points:
        stacked = fold(w)
        for k, curve in enumerate(curves):
            theta, d1, d2, d_r = curve.jets(w)
            rows = (*(row[k] for row in stacked[:3]), *stacked[3][:, k])
            assert [x.hex() for x in (theta, d1, d2, *d_r)] == [float(x).hex() for x in rows]


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


def _mp_numerator(branches):
    """50-digit U(w) = sum_k P_k prod_{j != k} N_j, the numerator of the
    folded susceptance B = U/V of coupler + stub branches, with
    P = w C_c cos x and N = cos x - w C_c z0 sin x, x = (pi/2) w/w_r."""
    mp.mp.dps = 50
    rows = [(mp.mpf(b.children[0].c), mp.mpf(b.children[1].z0),
             mp.mpf(b.children[1].omega_r)) for b in branches]

    def u(w):
        parts = []
        for c_c, z0, w_r in rows:
            x = mp.pi / 2 * w / w_r
            parts.append((w * c_c * mp.cos(x), mp.cos(x) - w * c_c * z0 * mp.sin(x)))
        return mp.fsum(p * mp.fprod(n for j, (_, n) in enumerate(parts) if j != k)
                       for k, (p, _) in enumerate(parts))

    return u


def test_paper_loaded_poles_match_50_digit_roots():
    # Foster interlacing brackets the 50-digit roots of U independently of
    # the float code: one between the two branch zeros, and the top one
    # between the upper zero and the upper resonator, where U = P_1 N_2 > 0
    pairs = device_pairs(paper("stub"))
    assert sum(len(curve.poles) for curve, _ in pairs) == 8
    for curve, net in pairs:
        u = _mp_numerator(net.children)
        z_1, z_2 = sorted(_mp_reactance(b)[1] for b in net.children)
        top = max(mp.mpf(b.children[1].omega_r) for b in net.children)
        roots = [mp.findroot(u, bracket, solver="illinois")
                 for bracket in ((z_1, z_2), (z_2, top))]
        assert curve.poles == pytest.approx([float(r) for r in roots], rel=1e-13)


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
            assert curve.jets(omega)[3] == pytest.approx(
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


def brentq_crossings(curve: PhaseCurve, level: float) -> np.ndarray:
    """Where the curve's theta descends through level mod 2*pi in its band,
    as PhaseCurve located zeros (level -pi) and loaded poles (level 0)
    before bracketed Newton: one brentq over the whole band per crossing,
    on scalar theta calls, with the crossing count from theta(lo) and
    theta(hi)."""
    lo, hi = curve.band
    turns = range(math.ceil((curve.theta(lo) - level) / TWO_PI) - 1,
                  math.ceil((curve.theta(hi) - level) / TWO_PI) - 1, -1)
    return np.array([brentq(lambda w, t=level + TWO_PI * k: curve.theta(w) - t,
                            lo, hi, xtol=1e-6, rtol=1e-15) for k in turns], dtype=float)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(8.0, 12.0),
    gaps_mhz=st.lists(st.floats(10.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chis_mhz=st.lists(st.floats(0.5, 20.0), min_size=12, max_size=12),
    equal=st.booleans(),
    harmonic=st.booleans(),
)
@example(n=1, m=1, model="stub", f0_ghz=10.0, gaps_mhz=[10.0, 10.0],
         couplers_ff=[20.0, 3.0, 3.0], chis_mhz=[5.0] * 12, equal=True, harmonic=True)
def test_crossings_match_the_brentq_oracle(n, m, model, f0_ghz, gaps_mhz, couplers_ff,
                                           chis_mhz, equal, harmonic):
    # every state's zeros and poles, found in one broadcast pass, against one
    # brentq per crossing; with ``harmonic`` a user band from below the
    # loaded zeros to above 3 w_r, where each stub branch has a second zero
    # and pole
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    chi = [[TWO_PI * 1e6 * chis_mhz[0 if equal else j * m + k] for k in range(m)]
           for j in range(n)]
    band = ((TWO_PI * 0.9 * f0_ghz * 1e9, 3.1 * modes[-1].omega) if harmonic else None)
    dev = ParityDevice(n=n, modes=modes, chi_matrix=chi, resonator_model=model, band=band)
    states = [QubitState(bits) for bits in itertools.product((0, 1), repeat=n)]
    curves = [state_phase_curve(dev, state) for state in states]
    table, bands = np.array([c._branches for c in curves]), np.array([c.band for c in curves])
    for curve, poles in zip(curves, _crossings(model == "stub", dev.z0, table, bands)):
        expected = brentq_crossings(curve, 0.0)
        assert len(poles) == len(expected) == m * (2 if harmonic and model == "stub" else 1)
        assert poles == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(curve.poles, poles)
        zeros = brentq_crossings(curve, -math.pi)
        assert len(curve.zeros) == len(zeros)
        assert curve.zeros == pytest.approx(zeros, rel=1e-12)
        # Foster: zeros and poles strictly alternate, a zero first
        merged = np.concatenate([curve.zeros, poles])
        order = np.argsort(merged)
        assert np.all(np.diff(merged[order]) > 0.0)
        assert np.array_equal(order >= len(zeros), np.arange(len(merged)) % 2 == 1)


@pytest.mark.parametrize("coupler_ff", [1e3, 1e5])
def test_stub_zeros_stay_on_their_tan_interval(coupler_ff):
    # a 1-100 pF coupler pulls the fundamental zero far below w_r, and the
    # tank seed of the next interval's zero, near 2 w_r, below that interval:
    # unbracketed Newton from it landed on the fundamental zero again, and
    # the pole search then returned a zero as a pole
    modes = (Mode(TWO_PI * 9.99e9, coupler_ff * 1e-15), Mode(TWO_PI * 10.01e9, 10e-15))
    band = (TWO_PI * 0.1e9, TWO_PI * 11e9)
    dev = ParityDevice.equal_coupling(3, modes, TWO_PI * 115e6, band=band)
    for curve in device_curves(dev):
        for got, level in ((curve.zeros, -math.pi), (curve.poles, 0.0)):
            expected = brentq_crossings(curve, level)
            assert len(got) == len(expected) == 2
            assert got == pytest.approx(expected, rel=1e-12)


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
