"""The float bracketed Newton and its pass kernels against the numpy search
they replaced (tests/bracket_reference.py), by .hex(), and the float edge
helpers against numpy."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from bracket_reference import bracketed_newton, crossings, series_zeros, zero_table
from jets_reference import branch_parts, zeros_below
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparity import network
from qparity.device import Mode, ParityDevice, QubitState, state_phase_curve

TWO_PI = 2.0 * math.pi
MAX = 1.7976931348623157e308
EDGES = [1.0, -1.0, 5e-324, -5e-324, MAX, -MAX, math.inf, -math.inf, math.nan, 0.0, -0.0,
         0.5, -0.5, 2.5, -2.5, 1e300, -1e300, 4503599627370497.0, 1e-300]


def hexes(values) -> list:
    return [float(v).hex() for v in np.ravel(np.asarray(values, dtype=float))]


def test_spacing_is_numpys():
    # math.nextafter away from zero, less x, is np.spacing everywhere but
    # at -0.0, where numpy gives the smallest subnormal, as at +0.0
    with np.errstate(over="ignore"):
        expected = np.spacing(EDGES)
    assert hexes([network._spacing(x) for x in EDGES]) == hexes(expected)


def test_floor_is_numpys():
    # math.floor raises on inf and nan and drops the sign of -0.0
    assert hexes([network._floor(x) for x in EDGES]) == hexes(np.floor(EDGES))


def test_divide_is_numpys():
    divisors = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, math.inf, math.nan]
    pairs = list(itertools.product(EDGES, divisors))
    with np.errstate(all="ignore"):
        expected = np.divide(*np.array(pairs).T)
    assert hexes([network._divide(a, b) for a, b in pairs]) == hexes(expected)


def test_zero_count_on_floats_is_numpys():
    # a stub branch's zeros below w on Python floats, through its tan
    # interval, against the numpy form: at and beside the interval ends
    # (2m+1) w_r, and where (w/w_r)/2 + 1/2 overflows to inf
    w_r = 0.75
    ws = [5e-324, 0.1, w_r, math.nextafter(w_r, 0.0), 3 * w_r, math.nextafter(3 * w_r, 9.0),
          5 * w_r, 7 * w_r, 1e300, MAX, 1e308 * 0.9]
    ns = [-1.0, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]
    cases = list(itertools.product(ws, ns))
    branch = (1e-14, w_r)
    with np.errstate(all="ignore"):
        w, n = np.array(cases).T
        expected = network._zeros_below(True, branch, n, w)
    assert hexes([network._zeros_below(True, list(branch), n, w) for w, n in cases]) == hexes(
        expected)


def _linear(root, slope=-1.0):
    return lambda x: ((x - root) * slope, slope)


EDGE_KERNELS = {
    # f is nan below 0.3: those evaluations bisect
    "nan-value": (lambda x: (math.nan, -1.0) if x < 0.3 else (0.45 - x, -1.0), 0.1, 0.0, 1.0),
    # f' is 0: dx = +-inf and every step bisects, down to 4 ulps
    "zero-slope": (lambda x: (0.3 - x, 0.0), 0.5, 0.0, 1.0),
    # a double root, where f and f' reach 0 together (0/0 = nan)
    "double-root": (lambda x: ((0.3 - x) * (0.3 - x) * (0.3 - x),
                               -3.0 * (0.3 - x) * (0.3 - x)), 0.9, 0.0, 1.0),
    # the root is the bracket's top: every Newton step lands exactly on it,
    # and is taken only once it is within 4 ulps
    "step-onto-top": (_linear(1.0), 0.5, 0.0, 1.0),
    # the root is the bracket's bottom, 0: the search runs out of passes
    "step-onto-bottom": (_linear(0.0), 0.5, 0.0, 1.0),
    # an exact Newton step from the start
    "exact": (_linear(0.25), 0.5, 0.0, 1.0),
    # a secant slope, as the sweep's poles pass
    "secant": (lambda x: (math.cos(x) - 0.5, (math.cos(x + 1e-9 * x) - math.cos(x)) / (1e-9 * x)),
               0.2, 0.0, 2.0),
}


def _search_both(kernels, x, lo, hi):
    """The float driver and the numpy reference on scalar kernels, one per
    element: kernels[i](x) is element i's (f, f')."""
    def on_arrays(xs):
        values, slopes = zip(*[g(float(v)) for g, v in zip(kernels, xs)])
        return np.array(values), np.array(slopes)

    def on_floats(active, xs):
        values, slopes = zip(*[kernels[i](v) for i, v in zip(active, xs)])
        return list(values), list(slopes)

    with np.errstate(all="ignore"):
        expected = bracketed_newton(on_arrays, np.array(x), np.array(lo), np.array(hi))
    return network._bracketed_newton(on_floats, x, lo, hi), expected


@pytest.mark.parametrize("name", EDGE_KERNELS)
def test_driver_matches_the_numpy_driver_on_edge_kernels(name):
    kernel, x, lo, hi = EDGE_KERNELS[name]
    got, expected = _search_both([kernel], [x], [lo], [hi])
    assert hexes(got) == hexes(expected)


def test_driver_drops_stopped_elements_only():
    # every edge kernel in one search: elements stop after different
    # passes, and the float driver evaluates only those still moving
    kernels, x, lo, hi = zip(*EDGE_KERNELS.values())
    got, expected = _search_both(list(kernels), list(x), list(lo), list(hi))
    assert hexes(got) == hexes(expected)
    assert network._bracketed_newton(lambda active, xs: ([], []), [], [], []) == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    model=st.sampled_from(["stub", "lumped"]),
    f0_ghz=st.floats(4.0, 12.0),
    gaps_mhz=st.lists(st.floats(5.0, 40.0), min_size=2, max_size=2),
    couplers_ff=st.lists(st.floats(3.0, 20.0), min_size=3, max_size=3),
    chis_mhz=st.lists(st.floats(0.5, 20.0), min_size=12, max_size=12),
    equal=st.booleans(),
    band=st.sampled_from(["default", "harmonic", "wide"]),
    orders=st.integers(1, 4),
)
@example(n=3, m=2, model="stub", f0_ghz=9.99, gaps_mhz=[20.0, 20.0],
         couplers_ff=[1e5, 10.0, 10.0], chis_mhz=[115.0] * 12, equal=True, band="wide",
         orders=3)
@example(n=1, m=1, model="stub", f0_ghz=10.0, gaps_mhz=[10.0, 10.0],
         couplers_ff=[20.0, 3.0, 3.0], chis_mhz=[5.0] * 12, equal=True, band="harmonic",
         orders=1)
def test_searches_match_the_numpy_reference(n, m, model, f0_ghz, gaps_mhz, couplers_ff,
                                            chis_mhz, equal, band, orders):
    # every state's series zeros (over broadcast tan-interval orders, and on
    # the fundamental), zero table and loaded poles, and each curve's own
    # zeros and poles, from the float driver and its pass kernels, equal
    # the numpy search's by .hex(): default bands; with "harmonic" a band
    # from below the loaded zeros to above 3 w_r, where a stub branch has a
    # second zero and pole; with "wide" 0.1-11 GHz, where a 100 pF coupler
    # pulls the fundamental zero far below w_r
    offsets = np.concatenate([[0.0], np.cumsum(gaps_mhz[:m - 1])])
    modes = tuple(Mode(TWO_PI * (f0_ghz * 1e9 + d * 1e6), c * 1e-15)
                  for d, c in zip(offsets, couplers_ff))
    chi = [[TWO_PI * 1e6 * chis_mhz[0 if equal else j * m + k] for k in range(m)]
           for j in range(n)]
    bands = {"default": None, "harmonic": (TWO_PI * 0.9 * f0_ghz * 1e9, 3.1 * modes[-1].omega),
             "wide": (TWO_PI * 0.1e9, TWO_PI * 11e9)}
    dev = ParityDevice(n=n, modes=modes, chi_matrix=chi, resonator_model=model,
                       band=bands[band])
    states = [QubitState(bits) for bits in itertools.product((0, 1), repeat=n)]
    curves = [state_phase_curve(dev, state) for state in states]
    table, edges = np.array([c._branches for c in curves]), np.array([c.band for c in curves])
    stub, z0 = model == "stub", dev.z0

    branches = table.reshape(-1, table.shape[-1])
    for k in ([0], range(orders)):
        got = network._series_zeros(stub, z0, [(b, j) for b in branches.tolist() for j in k])
        expected = series_zeros(stub, z0, branches.T[..., None], np.array(k))
        assert hexes(got) == hexes(np.broadcast_to(expected, (len(branches), len(k))))
    # a curve's zero table holds exactly its zeros below hi, as many as the
    # sign of each branch's N counts there; the padded reference searches
    # higher tan intervals too
    cols, hi = np.moveaxis(table, -1, 0), edges[:, 1]
    counts = zeros_below(stub, cols, branch_parts(stub, z0, cols, hi[:, None])[1][0],
                         hi[:, None]).sum(axis=1)
    padded = zero_table(stub, z0, table, hi)
    for row, count, reference, top in zip(network._zero_table(stub, z0, table, hi), counts,
                                          padded, hi):
        assert len(row) == count
        assert hexes(row) == hexes(reference[reference < top])
    poles = network._crossings(stub, z0, table, edges)
    expected = crossings(stub, z0, table, edges)
    assert [hexes(row) for row in poles] == [hexes(row) for row in expected]
    for curve, row in zip(curves, expected):
        assert hexes(curve.poles) == hexes(row)
        lo, hi = curve.band
        zeros = zero_table(stub, z0, curve._branches[None], np.array([hi]))[0]
        assert hexes(curve.zeros) == hexes(zeros[(lo < zeros) & (zeros <= hi)])
