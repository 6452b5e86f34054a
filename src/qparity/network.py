"""Lossless one-port networks: closed-form phase curves, and trees as their oracle.

Networks are finite trees of quarter-wave stubs, lumped capacitors and
inductors, combined by series/parallel rules.  All evaluation is done
projectively: a node is represented by a pair (N, D) with Z = N/D, so that
impedance poles (D -> 0) and zeros (N -> 0) stay finite and the reflection
coefficient r = (N - Z0*D)/(N + Z0*D) is well defined everywhere, with
r = +1 exactly at a pole of Z.  The closed form (PhaseCurve, and the
stacked branch tables every parity device and cascade cavity folds) takes
its one-port as numbers instead: a coupling capacitor and a resonance
frequency per parallel branch.

Sign convention: the unwrapped reflection phase theta(omega) decreases with
increasing omega through a resonance (passive delay convention).  A window
containing k poles of Z accumulates a branch winding of -2*pi*k.

Everything here is a pure function of immutable inputs; results are
deterministic and safe to call from any number of threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NetworkError",
    "RefinementLimit",
    "QuarterWaveStub",
    "Capacitor",
    "Inductor",
    "Series",
    "Parallel",
    "NetworkElement",
    "PhaseProfile",
    "PhaseCurve",
    "wrap_phase",
    "lumped_equivalent",
    "reflection_coefficient",
    "phase_sweep",
]

TWO_PI = 2.0 * math.pi

# Adaptive refinement stops subdividing once adjacent unwrapped-phase steps
# are below this; 2**24 evaluated points is the pathological-input cutoff.
PHASE_STEP_LIMIT = math.pi / 4.0
MAX_SWEEP_POINTS = 2 ** 24

# Foster's theorem: the reflection phase of a lossless one-port strictly
# decreases, so a positive wrapped step beyond rounding noise can only be an
# aliased full turn and forces further bisection.
FOSTER_NOISE = 1e-7

# Passes of _bracketed_newton (branch zeros and loaded poles); bisection
# alone shrinks any bracket below float spacing in fewer.
NEWTON_PASSES = 64


class NetworkError(Exception):
    """Base class for network evaluation failures."""


class RefinementLimit(NetworkError):
    """Adaptive phase sweep exceeded its grid budget (pathological input)."""


# ----------------------------------------------------------------------
# Network elements
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuarterWaveStub:
    """Shorted quarter-wave line: Z(w) = i*z0*tan((pi/2)*(w/omega_r))."""

    z0: float
    omega_r: float

    def __post_init__(self):
        if self.z0 <= 0.0:
            raise ValueError(f"stub z0 must be > 0, got {self.z0}")
        if self.omega_r <= 0.0:
            raise ValueError(f"stub omega_r must be > 0, got {self.omega_r}")


@dataclass(frozen=True)
class Capacitor:
    c: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError(f"capacitance must be > 0, got {self.c}")


@dataclass(frozen=True)
class Inductor:
    l: float

    def __post_init__(self):
        if self.l <= 0.0:
            raise ValueError(f"inductance must be > 0, got {self.l}")


@dataclass(frozen=True)
class Series:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Series needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Parallel:
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Parallel needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))


NetworkElement = Union[QuarterWaveStub, Capacitor, Inductor, Series, Parallel]


# ----------------------------------------------------------------------
# Projective impedance evaluation
# ----------------------------------------------------------------------

def _check_omega(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all((0.0 < w) & (w < math.inf)):  # refuses nan too
        raise ValueError("omega must be finite and > 0")
    return w


def _check_frequency(omega) -> float:
    """_check_omega for one frequency, on a Python float."""
    w = float(omega)
    if not 0.0 < w < math.inf:  # refuses nan too
        raise ValueError("omega must be finite and > 0")
    return w


def _normalize(num: np.ndarray, den: np.ndarray):
    scale = np.maximum(np.abs(num), np.abs(den))
    scale = np.where(scale == 0.0, 1.0, scale)
    return num / scale, den / scale


def _impedance_parts(net: NetworkElement, w: np.ndarray):
    """Return (N, D) with Z(w) = N/D, both finite, vectorized over w."""
    if isinstance(net, QuarterWaveStub):
        x = 0.5 * math.pi * (w / net.omega_r)
        return 1j * net.z0 * np.sin(x), np.cos(x) + 0j
    if isinstance(net, Capacitor):
        return np.ones_like(w) + 0j, 1j * w * net.c
    if isinstance(net, Inductor):
        return 1j * w * net.l, np.ones_like(w) + 0j
    if isinstance(net, Series):
        num, den = _impedance_parts(net.children[0], w)
        for child in net.children[1:]:
            n2, d2 = _impedance_parts(child, w)
            num, den = _normalize(num * d2 + n2 * den, den * d2)
        return num, den
    if isinstance(net, Parallel):
        num, den = _impedance_parts(net.children[0], w)
        for child in net.children[1:]:
            n2, d2 = _impedance_parts(child, w)
            num, den = _normalize(num * n2, den * n2 + d2 * num)
        return num, den
    raise TypeError(f"not a NetworkElement: {net!r}")


def lumped_equivalent(omega_r: float, z0: float) -> tuple[float, float]:
    """Parallel-LC equivalent of a quarter-wave stub near its fundamental.

    C = pi/(4*omega_r*z0), L = 1/(omega_r**2 * C); the LC resonance
    1/sqrt(L*C) reproduces omega_r exactly.
    """
    if omega_r <= 0.0 or z0 <= 0.0:
        raise ValueError("omega_r and z0 must be > 0")
    c, l, in_range = _tanks(omega_r, z0)
    if not in_range:
        raise _no_tank(omega_r, z0)
    return float(c), float(l)


def _tanks(omega_r, z0: float) -> tuple:
    """lumped_equivalent's (C, L), elementwise over an array omega_r, and
    whether each pair is in float range."""
    with np.errstate(all="ignore"):
        c = math.pi / (4.0 * np.float64(omega_r) * z0)
        l = 1.0 / (omega_r * omega_r * c)
    return c, l, (0.0 < c) & (c < math.inf) & (0.0 < l) & (l < math.inf)


def _no_tank(omega_r: float, z0: float) -> ValueError:
    return ValueError(f"omega_r={omega_r:.3e} rad/s with z0={z0:.3e} ohm has no "
                      "lumped equivalent in float range")


def reflection_coefficient(net: NetworkElement, omega, z0: float):
    """Reflection coefficient r = (Z - z0)/(Z + z0), finite at poles (r=+1)."""
    if z0 <= 0.0:
        raise ValueError("z0 must be > 0")
    w = _check_omega(omega)
    num, den = _impedance_parts(net, w)
    r = (num - z0 * den) / (num + z0 * den)
    return r if np.ndim(omega) else complex(r)


def _susceptance(net: NetworkElement, omega) -> np.ndarray:
    """Im(Y) of the one-port, vectorized over omega; zero exactly at poles
    of Z (Foster-increasing)."""
    num, den = _impedance_parts(net, _check_omega(omega))
    return np.imag(den / num)


def wrap_phase(delta):
    """Map phase differences into (-pi, pi]."""
    d = np.mod(np.asarray(delta, dtype=float) + math.pi, TWO_PI) - math.pi
    d = np.where(d == -math.pi, math.pi, d)
    return d if np.ndim(delta) else float(d)


# ----------------------------------------------------------------------
# Phase sweep
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseProfile:
    """Unwrapped reflection phase on an adaptively refined grid.

    ``theta`` is continuous (adjacent steps < pi/4 in magnitude) and anchored
    to the principal branch at ``grid[0]``.  ``poles`` lists the detected
    pole frequencies of Z inside the window (r = +1 crossings).
    """

    grid: np.ndarray
    theta: np.ndarray
    poles: np.ndarray

    @property
    def winding(self) -> float:
        """Branch winding over the window: -2*pi per enclosed pole of Z.

        Defined as the unwrapped phase change minus the principal-value
        change at the endpoints, so it is an exact multiple of 2*pi for any
        off-pole endpoints.
        """
        raw = self.theta[-1] - self.theta[0]
        principal = wrap_phase(self.theta[-1]) - wrap_phase(self.theta[0])
        return float(raw - principal)


def _collect_feature_seeds(net: NetworkElement, lo: float, hi: float) -> list[float]:
    """Candidate resonance frequencies to pre-seed the sweep grid.

    Gathers stub harmonics, LC-tank resonances, and series-capacitor-loaded
    tank zeros (the pattern every coupled-resonator branch reduces to), then
    surrounds each with a small relative-offset cloud so that narrow features
    trigger refinement even when the analytic guess is slightly off.
    """
    centers: list[float] = []

    def visit(node: NetworkElement, series_caps: tuple):
        if isinstance(node, QuarterWaveStub):
            k = 1
            while (k - 1) * node.omega_r <= hi:
                f = k * node.omega_r
                if lo * 0.5 <= f <= hi * 1.5:
                    centers.append(f)
                k += 1
            # series-capacitor-loaded zeros: the roots of the reactance
            # z0 tan(a w) - 1/(w C), a = (pi/2)/w_r, on (0, w_r), where it
            # rises from -inf to +inf, one per series capacitor.  Two
            # branches' zeros can lie closer together than the offset cloud
            # below, so the seed is the zero itself.
            a = 0.5 * math.pi / node.omega_r
            lo_r, hi_r = 1e-9 * node.omega_r, (1.0 - 1e-12) * node.omega_r
            count = len(series_caps)

            def minus_reactance(active, ws):
                terms = list(zip([series_caps[i] for i in active], ws,
                                 np.tan([a * w for w in ws]).tolist()))
                return ([1.0 / (w * cap) - node.z0 * tan for cap, w, tan in terms],
                        [-1.0 / (w * w * cap) - node.z0 * a * (1.0 + tan * tan)
                         for cap, w, tan in terms])

            centers.extend(_bracketed_newton(minus_reactance, [0.5 * (lo_r + hi_r)] * count,
                                             [lo_r] * count, [hi_r] * count))
        elif isinstance(node, Parallel):
            ls = [c.l for c in node.children if isinstance(c, Inductor)]
            cs = [c.c for c in node.children if isinstance(c, Capacitor)]
            for lval in ls:
                for cval in cs:
                    w_r = 1.0 / math.sqrt(lval * cval)
                    centers.append(w_r)
                    for c_ser in series_caps:
                        centers.append(1.0 / math.sqrt(lval * (cval + c_ser)))
            for child in node.children:
                visit(child, ())
        elif isinstance(node, Series):
            caps = tuple(c.c for c in node.children if isinstance(c, Capacitor))
            for child in node.children:
                visit(child, caps)

    visit(net, ())
    offsets = (0.0, 1e-5, -1e-5, 3e-5, -3e-5, 1e-4, -1e-4, 3e-4, -3e-4,
               1e-3, -1e-3, 3e-3, -3e-3, 0.01, -0.01, 0.02, -0.02,
               0.035, -0.035, 0.05, -0.05)
    seeds = []
    for w0 in centers:
        for rel in offsets:
            f = w0 * (1.0 + rel)
            if lo < f < hi:
                seeds.append(f)
    return seeds


def phase_sweep(net: NetworkElement, omega_lo: float, omega_hi: float,
                base_points: int = 256, z0: float = 50.0) -> PhaseProfile:
    """Unwrapped reflection phase over [omega_lo, omega_hi].

    Nearest-branch accumulation: adjacent-sample differences are wrapped into
    (-pi, pi] and summed.  The grid is refined by bisection until every
    adjacent step is below pi/4, each interval's direct phase step agrees
    with the step through its midpoint, and no step ascends beyond rounding
    noise (Foster descent) -- the last two rules catch hidden full turns
    that a coarse interval would alias away.

    Raises RefinementLimit beyond MAX_SWEEP_POINTS evaluated points.
    """
    if not omega_lo < omega_hi:
        raise ValueError("need omega_lo < omega_hi")
    if omega_lo <= 0.0:
        raise ValueError("omega_lo must be > 0")
    if base_points < 64:
        raise ValueError("base_points must be >= 64")

    pts = list(np.linspace(omega_lo, omega_hi, base_points))
    pts.extend(_collect_feature_seeds(net, omega_lo, omega_hi))
    grid = np.unique(np.asarray(pts, dtype=float))
    args = np.angle(reflection_coefficient(net, grid, z0))

    known = {float(w): float(a) for w, a in zip(grid, args)}
    pending = [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)]

    while pending:
        mids = np.array([0.5 * (a + b) for a, b in pending])
        if len(known) + len(mids) > MAX_SWEEP_POINTS:
            raise RefinementLimit(
                f"phase sweep exceeded {MAX_SWEEP_POINTS} points; "
                "input has features too narrow for this window"
            )
        mid_args = np.angle(reflection_coefficient(net, mids, z0))
        nxt = []
        for (a, b), m, fm in zip(pending, mids, mid_args):
            m = float(m)
            if m <= a or m >= b:
                continue  # interval at float resolution; accept as is
            known[m] = float(fm)
            d_am = wrap_phase(fm - known[a])
            d_mb = wrap_phase(known[b] - fm)
            d_ab = wrap_phase(known[b] - known[a])
            consistent = abs(d_am + d_mb - d_ab) < 1e-9
            descending = d_am < FOSTER_NOISE and d_mb < FOSTER_NOISE
            if (consistent and descending
                    and abs(d_am) < PHASE_STEP_LIMIT
                    and abs(d_mb) < PHASE_STEP_LIMIT):
                continue
            nxt.append((a, m))
            nxt.append((m, b))
        pending = nxt

    grid = np.array(sorted(known))
    args = np.array([known[w] for w in grid])
    theta = np.empty_like(args)
    theta[0] = args[0]
    theta[1:] = args[0] + np.cumsum(wrap_phase(np.diff(args)))
    poles = _locate_poles(net, grid, theta)
    return PhaseProfile(grid=grid, theta=theta, poles=poles)


def _locate_poles(net: NetworkElement, grid: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Pole frequencies of Z: every descent of theta through 0 mod 2*pi.

    Each bracketing grid interval is polished on Im(Y), which crosses zero
    from below exactly at a pole (Foster's theorem), all in one
    _bracketed_newton on the secant slope over 1e-9 w (the tree has no
    derivative), each pass evaluating the tree once over its active poles.
    Where the susceptance's sign does not isolate the crossing, the pole is
    the phase-interpolated location.
    """
    t1, t2 = theta[:-1], theta[1:]
    # half-open: a sample sitting exactly on a level closes the interval
    # that ends there, so each pole is counted once
    level = (np.ceil(t1 / TWO_PI) - 1.0) * TWO_PI
    i = np.flatnonzero((t2 <= level) & (level < t1))
    a, b, t1, t2, level = grid[i], grid[i + 1], t1[i], t2[i], level[i]
    poles = a + (b - a) * (t1 - level) / (t1 - t2)
    isolated = (_susceptance(net, a) < 0.0) & (0.0 < _susceptance(net, b))

    def falling(active, ws):
        w = np.array(ws)
        step = (w + 1e-9 * w) - w
        value, above = np.split(-_susceptance(net, np.concatenate((w, w + step))), 2)
        return value.tolist(), ((above - value) / step).tolist()

    a, b = a[isolated], b[isolated]
    poles[isolated] = _bracketed_newton(falling, (0.5 * (a + b)).tolist(), a.tolist(),
                                        b.tolist())
    return poles


# ----------------------------------------------------------------------
# Closed-form phase curve
# ----------------------------------------------------------------------

def _branch_factors(stub: bool, branch, w, order: int = 0) -> tuple:
    """The part of _branch_parts that runs in numpy, elementwise over the
    arrays of a table row and w: the stub's x = (pi/2) w/w_r with cos x and
    sin x; the tank's c = 1 - w^2 L C and s = w L, and at ``order`` 2 their
    d/dw_r, which divide by w_r = 1/sqrt(L C), 0 where L C overflows."""
    if stub:
        x = 0.5 * math.pi * (w / branch[1])
        return x, np.cos(x), np.sin(x)
    cap, l = branch[1:]
    c, s = 1.0 - w * w * (l * cap), w * l
    if order < 2:
        return c, s
    w_r = 1.0 / np.sqrt(l * cap)
    return c, s, 2.0 * (1.0 - c) / w_r, -s / w_r


def _branch_parts(stub: bool, z0: float, branch: tuple, w, order: int = 0, factors=None):
    """Numerator P and denominator N of one branch's susceptance B = P/N.

    ``branch`` is a row of PhaseCurve's table: (C_c, w_r) for the stub,
    (C_c, C, L) for the lumped tank.  The resonator's impedance is i*s/c,
    with (c, s) = (cos x, z0 sin x), x = (pi/2) w/w_r, for the stub and
    (1 - w^2 L C, w L) for the tank.  In series with the coupler C_c the
    branch has B = -1/X = P/N, P = w C_c c and N = c - w C_c s, so N changes
    sign at the branch's series zeros.  At ``order`` 0 P and N are values;
    at order 1 each is a tuple (value, d/dw), and at order 2 (value, d/dw,
    d2/dw2, d/dw_r), the last at fixed resonator impedance (the stub's z0,
    the tank's sqrt(L/C)); every order's entries come from the same
    expressions.  The row's entries and w may be arrays of one shape: every
    operation is elementwise.  Given ``factors``, _branch_factors' result
    for the same row, w and order, the rest is products and sums only, so
    it runs on Python floats as well.
    """
    c_c = branch[0]
    if factors is None:
        factors = _branch_factors(stub, branch, w, order)
    if stub:
        x, cos, sin = factors
        c, s = cos, z0 * sin
    else:
        c, s = factors[:2]
    k = w * c_c
    if not order:
        return k * c, c - k * s
    if stub:
        w_r = branch[1]
        a = 0.5 * math.pi / w_r
        c1, s1 = -a * sin, z0 * (a * cos)
    else:
        cap, l = branch[1:]
        c1, s1 = -2.0 * w * l * cap, l
    # the product rule for k = w C_c, linear in w
    p, n = (k * c, k * c1 + c_c * c), (c - k * s, c1 - (k * s1 + c_c * s))
    if order == 1:
        return p, n
    if stub:
        c2, s2 = -a * a * cos, z0 * (-a * a * sin)
        c3, s3 = x * sin / w_r, z0 * (-x * cos / w_r)
    else:
        c2, s2, c3, s3 = -2.0 * l * cap, 0.0, factors[2], factors[3]
    return ((*p, k * c2 + c_c * (2.0 * c1), k * c3),
            (*n, c2 - (k * s2 + c_c * (2.0 * s1)), c3 - k * s3))


def _zeros_below(stub: bool, branch: tuple, n, w):
    """Series zeros of one branch below w, from the sign of its N (see
    _branch_parts); elementwise over arrays, or on Python floats, with
    numpy's results there (_floor; m % 2 is nan where np.fmod is).

    Lumped tank: its one zero is behind w once N = 1 - w^2 L (C + C_c) < 0.
    Stub: N/cos x = 1 - w C_c z0 tan x falls through zero once on each
    interval ((2m-1) w_r, (2m+1) w_r) of tan x, where cos x has the sign
    (-1)^m: m completed intervals, plus one once N (-1)^m < 0.
    """
    if not stub:
        return n < 0.0
    m = 0.5 * w / branch[1] + 0.5  # its floor is the tan interval's m
    if isinstance(m, float):
        m = _floor(m)
        return m + ((n if m % 2.0 == 0.0 else -n) < 0.0)
    m = np.floor(m)
    return m + (np.where(np.fmod(m, 2.0) == 0.0, n, -n) < 0.0)


def _theta(z0_u, v, passed):
    """theta = -2 atan(z0 U/V) - 2*pi * passed, the fold's last step (see
    _fold), elementwise over arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # V = 0 only exactly on a zero, which B approaches from below
        z0_b = np.where(v == 0.0, np.inf, z0_u / v)
    return -2.0 * np.arctan(z0_b) - TWO_PI * passed


def _fold(stub: bool, z0: float, branches, w):
    """theta of m parallel branches along w, in numpy.

    ``branches`` is a branch table, one row per branch (see _branch_parts),
    or many stacked, shape (curves..., m, columns): the curves' axes
    broadcast against w's leading axes, so one call evaluates many curves at
    once.  The branch parts of all branches come from one call.  The fold is
    U <- U N_k + P_k V, V <- V N_k, B = U/V, and
    theta = -2 atan(z0 U/V) - 2*pi #{branch zeros below w}; _jets and
    _theta_slopes run the same recurrence on floats, with theta equal to
    this one's bit for bit.
    """
    # the table's columns, each (branches, curves..., 1...) to broadcast against w
    cols = np.moveaxis(np.asarray(branches, dtype=float), (-2, -1), (1, 0))
    cols = cols.reshape(cols.shape + (1,) * (np.ndim(w) + 2 - cols.ndim))
    p, n = _branch_parts(stub, z0, cols, w)
    u, v = np.zeros_like(w), np.ones_like(w)
    for p_k, n_k in zip(p, n):
        u, v = u * n_k + p_k * v, v * n_k
    return _theta(z0 * u, v, _zeros_below(stub, cols, n, w).sum(axis=0))


def _phasor(stub: bool, z0: float, branches, w):
    """r = e^{i theta} of m parallel branches along w, in numpy, with the
    table shapes and broadcasting of _fold: the same recurrence gives
    r = (V - i z0 U)^2 / (V^2 + z0^2 U^2), which scaling U and V together
    leaves alone.  So each stub branch's parts are divided by cos x,
    P_k = k and N_k = 1 - k z0 tan x, one tan where _fold takes a cos and a
    sin; the tank's are _branch_parts'.  r = -1 exactly on a series zero
    (V = 0).  No zero count, no arctan: 2*pi offsets are not read.  The
    parts of r are formed in float arithmetic, which is cheaper in numpy
    than complex products and divisions."""
    cols = np.moveaxis(np.asarray(branches, dtype=float), (-2, -1), (1, 0))
    cols = cols.reshape(cols.shape + (1,) * (np.ndim(w) + 2 - cols.ndim))
    if stub:
        p = w * cols[0]
        n = 1.0 - (z0 * p) * np.tan(0.5 * math.pi * (w / cols[1]))
    else:
        p, n = _branch_parts(stub, z0, cols, w)
    u, v = p[0], n[0]  # the recurrence's first step from U = 0, V = 1
    for p_k, n_k in zip(p[1:], n[1:]):
        u, v = u * n_k + p_k * v, v * n_k
    z0_u = z0 * u
    v2, z0_u2 = v * v, z0_u * z0_u
    d = v2 + z0_u2
    r = np.empty(d.shape, complex)
    r.real, r.imag = (v2 - z0_u2) / d, -2.0 * (v * z0_u) / d
    return r


def _jets(stub: bool, z0: float, table, w):
    """(theta, theta', theta'', d theta/d w_r of each branch) of each row of a
    stacked branch table, shape (rows, m, columns), at w (one frequency, or
    one per row); the last entry is (m, rows), in branch order at fixed
    resonator impedance.  Unchecked: entries that leave float range come out
    inf or nan.

    One numpy pass over every (row, branch) pair makes what needs numpy:
    the branch parts' factors (cos and sin, the tank's divisions).  The
    rest of the branch parts, their zeros below w (with the stub's tan
    intervals) and _fold's recurrence run on Python floats, row by row,
    where a tiny table costs far less than numpy's per-call dispatch: U and
    V are jets (value, d/dw, d2/dw2, d/dw_r of each branch), and only
    branch k's own parts move with its resonance, so the other directions
    of P_k and N_k
    are the exact products 0.0 * P3 and 0.0 * N3 (they fix the signs of
    zeros, and carry inf and nan).  With A = z0 (U' V - U V') and
    D = V^2 + z0^2 U^2, theta' = -2 A/D and theta'' = -2 (A' D - A D')/D^2;
    these divisions, whose divisors can be 0, and theta's run in numpy over
    all rows.  So a row equals _fold's theta bit for bit, and its
    derivatives equal the same recurrence run on numpy jets.  Squares are
    written as products (numpy's scalar x ** 2 calls libm pow, which can
    round differently).
    """
    table = np.asarray(table, dtype=float)
    cols = table.T  # (columns, m, rows), to broadcast against w
    rows, m = table.shape[:2]
    factors = _branch_factors(stub, cols, w, order=2)
    ws = np.asarray(w, dtype=float)
    ws = ws.tolist() if ws.ndim else [float(ws)] * rows
    z0 = float(z0)
    ends, nums, dens = [], [], []
    for branches, w_row, pairs in zip(table.tolist(), ws, np.array(factors).T.tolist()):
        u0 = u1 = u2 = v1 = v2 = 0.0
        v0, ud, vd, count = 1.0, [0.0] * m, [0.0] * m, 0
        for k, (branch, pair) in enumerate(zip(branches, pairs)):
            (p0, p1, p2, p3), (n0, n1, n2, n3) = _branch_parts(
                stub, z0, branch, w_row, 2, pair)
            count += _zeros_below(stub, branch, n0, w_row)
            # the directions of U N_k + P_k V and V N_k: entry j of N_k and
            # P_k is n3 and p3 for j = k, else the products 0.0 * n3 and 0.0 * p3
            u_k, v_k = ud[k], vd[k]
            u_n, v_p, v_n = u0 * (0.0 * n3), v0 * (0.0 * p3), v0 * (0.0 * n3)
            ud = [(u_n + n0 * x) + (p0 * y + v_p) for x, y in zip(ud, vd)]
            vd = [v_n + n0 * y for y in vd]
            ud[k] = (u0 * n3 + n0 * u_k) + (p0 * v_k + v0 * p3)
            vd[k] = v0 * n3 + n0 * v_k
            u0, u1, u2, v0, v1, v2 = (
                u0 * n0 + p0 * v0,
                (u0 * n1 + n0 * u1) + (p0 * v1 + v0 * p1),
                (u0 * n2 + n0 * u2 + 2.0 * u1 * n1) + (p0 * v2 + v0 * p2 + 2.0 * p1 * v1),
                v0 * n0,
                v0 * n1 + n0 * v1,
                v0 * n2 + n0 * v2 + 2.0 * v1 * n1)
        a1, a2 = z0 * (u1 * v0 - u0 * v1), z0 * (u2 * v0 - u0 * v2)
        d = v0 * v0 + (z0 * u0) * (z0 * u0)
        d_prime = 2.0 * (v0 * v1 + z0 * z0 * u0 * u1)
        ends.append((z0 * u0, v0, count))
        nums.append([-2.0 * a1, -2.0 * (a2 * d - a1 * d_prime),
                     *[-2.0 * (z0 * (x * v0 - u0 * y)) for x, y in zip(ud, vd)]])
        dens.append([d, d * d] + [d] * m)
    nums, dens = np.array([nums, dens])
    slopes = (nums / dens).T
    return _theta(*np.array(ends).T), slopes[0], slopes[1], slopes[2:]


@np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
def _fold_jets(stub: bool, z0: float, table, w):
    """_jets, refused (NetworkError) where theta', theta'' or a d theta/d w_r
    leaves float range."""
    jets = _jets(stub, z0, table, w)
    # one pass: a sum of finite entries is finite unless it overflows, and
    # then the per-row mask finds no row to refuse
    if not math.isfinite(sum(jets[1].tolist()) + sum(jets[2].tolist())
                         + sum(jets[3].ravel().tolist())):
        finite = np.isfinite(jets[1]) & np.isfinite(jets[2]) & np.isfinite(jets[3]).all(axis=0)
        if not finite.all():
            w_bad = float(np.broadcast_to(w, finite.shape)[~finite][0])
            raise NetworkError(f"phase derivatives at omega={w_bad:.6e} rad/s "
                               "leave float range")
    return jets


def _divide(a: float, b: float) -> float:
    """a / b on Python floats with numpy's result for b = 0 (inf or nan)."""
    return a / b if b else a * math.copysign(math.inf, b) if a else math.nan


def _spacing(x: float) -> float:
    """np.spacing on a Python float: the signed gap to the next float away
    from zero (inf at the largest float, nan at inf and nan), and the
    smallest subnormal at either zero."""
    return math.nextafter(x, math.copysign(math.inf, x)) - x if x else 5e-324


def _floor(x: float) -> float:
    """np.floor on a Python float: inf and nan pass through, and the sign
    of a zero is kept."""
    return math.copysign(math.floor(x), x) if math.isfinite(x) else x


def _bracketed_newton(f, x, lo, hi) -> list:
    """Root of a falling f in each element's bracket (lo, hi), from x; x, lo
    and hi are lists of Python floats, and so is the result.

    ``f(active, xs)`` is one pass's kernel: it returns the lists (f, f') at
    xs, the x of the elements indexed by ``active``.  Every evaluation
    shrinks the bracket to the sign change, a Newton step that would leave
    it bisects instead, and an element stops once it moves within 4 ulps
    (_spacing); a step that lands within 4 ulps is taken first, even onto a
    bracket end.  A stopped element's x never changes again, so it is left
    out of later passes.  The slope may be approximate (the sweep's poles
    pass a secant); nan bisects, and a zero slope divides as numpy does
    (_divide), so it bisects too.
    """
    x, lo, hi = list(x), list(lo), list(hi)
    active = list(range(len(x)))
    for _ in range(NEWTON_PASSES):
        if not active:
            break
        moving = []
        for i, value, slope in zip(active, *f(active, [x[i] for i in active])):
            here = x[i]
            if value > 0.0:
                lo[i] = here
            elif value < 0.0:
                hi[i] = here
            dx = _divide(value, slope)
            step = here - dx
            if not (lo[i] < step < hi[i] or abs(dx) <= 4.0 * _spacing(step)):
                step = 0.5 * (lo[i] + hi[i])
                dx = here - step
            x[i] = step
            if abs(dx) > 4.0 * _spacing(step):
                moving.append(i)
        active = moving
    return x


def _pair_factors(stub: bool, branches: list, ws: list) -> list:
    """_branch_factors at order 0 or 1 of each (branch, w) pair, on
    Python floats: a tank's need no numpy, a stub's x = (pi/2) w/w_r takes
    one np.cos and one np.sin over every pair.  One call per pass of a
    bracketed Newton kernel (_series_zeros, _theta_slopes)."""
    if not stub:
        return [_branch_factors(stub, branch, w) for branch, w in zip(branches, ws)]
    x = [0.5 * math.pi * (w / branch[1]) for branch, w in zip(branches, ws)]
    xs = np.array(x)
    return list(zip(x, np.cos(xs).tolist(), np.sin(xs).tolist()))


def _theta_slopes(stub: bool, z0: float, rows: list, ws: list) -> tuple:
    """(theta, theta') of each row, a branch table as lists of floats, at
    its own w of ``ws``: the loaded-pole search's first-order kernel, as
    two lists of Python floats.  Unchecked.

    Its numpy work is one _pair_factors call over every (row, branch) pair
    and one np.arctan over every row.  The branch parts (_branch_parts at
    order 1), zero counts (_zeros_below, with the stub's tan intervals) and
    _fold's U, V recurrence run on floats, with U' and V' beside them in
    _jets' order, and theta' = -2 z0 (U' V - U V')/(V^2 + z0^2 U^2)
    divides as numpy does; so theta equals _fold's and theta' _jets' bit
    for bit.
    """
    z0 = float(z0)
    factors = iter(_pair_factors(stub, [branch for row in rows for branch in row],
                                 [w for row, w in zip(rows, ws) for _ in row]))
    z0_b, passed, slopes = [], [], []
    for row, w in zip(rows, ws):
        u0 = u1 = v1 = 0.0
        v0, count = 1.0, 0
        for branch in row:
            (p0, p1), (n0, n1) = _branch_parts(stub, z0, branch, w, 1, next(factors))
            count += _zeros_below(stub, branch, n0, w)
            u0, u1, v0, v1 = (u0 * n0 + p0 * v0, (u0 * n1 + n0 * u1) + (p0 * v1 + v0 * p1),
                              v0 * n0, v0 * n1 + n0 * v1)
        z0_u = z0 * u0
        z0_b.append(math.inf if v0 == 0.0 else z0_u / v0)  # _theta's, on a zero
        passed.append(count)
        slopes.append(_divide(-2.0 * (z0 * (u1 * v0 - u0 * v1)), v0 * v0 + z0_u * z0_u))
    atan = np.arctan(z0_b).tolist()
    return [-2.0 * a - TWO_PI * k for a, k in zip(atan, passed)], slopes


def _branch_table(stub: bool, z0: float, c_couple, omega_r) -> np.ndarray:
    """Branch tables of the resonance frequencies omega_r, shape (..., m),
    sharing the couplers c_couple, shape (..., m, columns): one row per
    parallel branch, (C_c, w_r) for the stub, (C_c, C, L) with
    lumped_equivalent's tank for the lumped model.  Refuses, in this order,
    the first omega_r (in C order) past float range, a z0 whose square
    overflows and, as lumped_equivalent does, a tank out of float range."""
    omega_r = np.asarray(omega_r, dtype=float)
    if not np.isfinite(omega_r).all():
        first = np.argwhere(~np.isfinite(omega_r))[0]
        raise ValueError(f"omega_r[{first[-1]}] must be finite and > 0, "
                         f"got {float(omega_r[tuple(first)])!r}")
    if not (z0 > 0.0 and math.isfinite(z0 * z0)):  # the derivatives use z0**2
        raise ValueError(f"need 0 < z0 with z0**2 in float range, got {z0!r}")
    table = np.empty(omega_r.shape + (2 if stub else 3,))
    table[..., 0] = c_couple
    if stub:
        table[..., 1] = omega_r
    else:
        c, l, in_range = _tanks(omega_r, z0)
        if not in_range.all():
            raise _no_tank(float(omega_r[~in_range][0]), z0)
        table[..., 1], table[..., 2] = c, l
    return table


def _curve_table(c_couple, omega_r, z0: float, model: str) -> np.ndarray:
    """PhaseCurve's branch table (_branch_table) of the couplers c_couple
    and resonances omega_r.  Refuses, in this order, unequal or empty
    lengths, the couplers and resonances in one loop, the model, z0 and
    the tanks; no band: a table's phases hold at any omega > 0."""
    c_couple, omega_r = tuple(c_couple), tuple(omega_r)
    if not 0 < len(c_couple) == len(omega_r):
        raise ValueError("need one c_couple per omega_r and at least one, got "
                         f"{len(c_couple)} and {len(omega_r)}")
    for name, values in (("c_couple", c_couple), ("omega_r", omega_r)):
        for k, value in enumerate(values):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name}[{k}] must be finite and > 0, got {value!r}")
    if model not in ("stub", "lumped"):
        raise ValueError(f"model must be 'stub' or 'lumped', got {model!r}")
    return _branch_table(model == "stub", z0, c_couple, omega_r)


def _series_zeros(stub: bool, z0: float, pairs: list) -> list:
    """The series zero, N = 0 (see _branch_parts), of each (branch, order)
    pair of ``pairs``, a row of a branch table as a list of floats and the
    tan interval to search, as a list of Python floats.

    The lumped tank has one, 1/sqrt(L (C + C_c)), whatever the order.  The
    stub has one on each interval ((2 order - 1) w_r, (2 order + 1) w_r) of
    tan x, where N (-1)^order falls from + to -, just below the interval's
    top: there the stub looks like a tank of C = pi/(4 w_r z0) resonating at
    (2 order + 1) w_r, and that tank's zero seeds _bracketed_newton on
    N (-1)^order over the interval, on Python floats: a pass evaluates N
    and N' only (_branch_parts at order 1), at every zero still moving,
    from one _pair_factors call.
    """
    if not stub:
        return [_divide(1.0, math.sqrt(l * (cap + c_c))) for (c_c, cap, l), _ in pairs]
    z0 = float(z0)
    seed, lo, hi, sign = [], [], [], []
    for (c_c, w_r), k in pairs:
        top = (2 * k + 1) * w_r
        bottom = max(top - 2.0 * w_r, 0.0)
        cap = _divide(math.pi, 4.0 * w_r * z0)
        z = _divide(1.0, math.sqrt(_divide(1.0, top * top * cap) * (cap + c_c)))
        seed.append(z if bottom < z < top else 0.5 * (bottom + top))
        lo.append(bottom)
        hi.append(top)
        sign.append(1.0 if k % 2 == 0 else -1.0)

    def falling_n(active, zs):
        rows = [pairs[i][0] for i in active]
        values, slopes = [], []
        for i, branch, z, factors in zip(active, rows, zs, _pair_factors(stub, rows, zs)):
            _, (n, n1) = _branch_parts(stub, z0, branch, z, 1, factors)
            values.append(sign[i] * n)
            slopes.append(sign[i] * n1)
        return values, slopes

    return _bracketed_newton(falling_n, seed, lo, hi)


def _zero_table(stub: bool, z0: float, table: np.ndarray, hi: np.ndarray) -> list:
    """Every branch zero from DC up to hi of each curve, one ascending list
    of Python floats per curve.

    ``table`` stacks the curves' branch tables, shape (curves, branches,
    columns), and ``hi`` holds each curve's upper band edge.  Each branch
    has as many zeros below hi as _zeros_below counts from the sign of its
    N there, the count _fold's theta subtracts at hi: a stub branch one on
    each tan interval up to that count, a tank one or none.  All are found
    in one _series_zeros call.
    """
    cols, w = np.moveaxis(table, -1, 0), hi[:, None]
    counts = _zeros_below(stub, cols, _branch_parts(stub, z0, cols, w)[1], w)
    pairs = [[(branch, k) for branch, count in zip(row, row_counts) for k in range(int(count))]
             for row, row_counts in zip(table.tolist(), counts.tolist())]
    found = iter(_series_zeros(stub, z0, [pair for row in pairs for pair in row]))
    return [sorted(next(found) for _ in row) for row in pairs]


def _crossings(stub: bool, z0: float, table: np.ndarray, band: np.ndarray) -> list:
    """Each curve's loaded poles (theta = 0 mod 2*pi) in its band, ascending,
    found together in one bracketed Newton on their stacked branch tables,
    ``table`` (curves, m, columns), and their bands, ``band`` (curves, 2).

    theta descends continuously, so the levels 2*pi k with
    theta(hi) <= 2*pi k < theta(lo) fix how many poles the band holds.
    Foster interlacing brackets each: on the level 2*pi k, exactly -k
    branch zeros lie below, so the pole sits between the curve's -k-th and
    (-k+1)-th zeros from DC (_zero_table), clipped to the band.
    _bracketed_newton on theta - 2*pi k with the exact theta' starts at the
    bracket's midpoint, or above the top zero at the top branch's resonance
    frequency, the exact pole of one branch.  Its passes run the
    first-order float kernel _theta_slopes over the poles still moving.
    """
    edges = _fold(stub, z0, table.repeat(2, axis=0), band.ravel()).reshape(-1, 2)
    zeros = _zero_table(stub, z0, table, band[:, 1])
    resonance = (table[..., 1] if stub
                 else 1.0 / np.sqrt(table[..., 1] * table[..., 2])).max(axis=1)
    rows, levels, lo, hi, seed = [], [], [], [], []
    for i, ((th_lo, th_hi), (b_lo, b_hi), row_zeros, top_pole) in enumerate(
            zip(edges.tolist(), band.tolist(), zeros, resonance.tolist())):
        # theta < 0 from DC to the first zero, so every level has k <= -1
        for k in range(math.ceil(th_lo / TWO_PI) - 1, math.ceil(th_hi / TWO_PI) - 1, -1):
            below = row_zeros[-k - 1]
            above = row_zeros[-k] if -k < len(row_zeros) else math.inf
            a, b = max(b_lo, below), min(b_hi, above)
            top = above >= b_hi and a < top_pole < b
            rows.append(i)
            levels.append(TWO_PI * k)
            lo.append(a)
            hi.append(b)
            seed.append(top_pole if top else 0.5 * (a + b))
    branches = table.tolist()

    def above_level(active, xs):
        theta, slope = _theta_slopes(stub, z0, [branches[rows[j]] for j in active], xs)
        return [t - levels[j] for t, j in zip(theta, active)], slope

    poles = [[] for _ in branches]
    for i, x in zip(rows, _bracketed_newton(above_level, seed, lo, hi)):
        poles[i].append(x)
    return [np.array(row, dtype=float) for row in poles]


class PhaseCurve:
    """Unwrapped reflection phase of a coupled-resonator one-port, in closed form.

    The one-port is m branches in parallel, branch k a coupling capacitor
    c_couple[k] in series with a resonator at omega_r[k]: a shorted
    quarter-wave stub of impedance z0 (``model`` "stub") or its parallel-LC
    equivalent (``model`` "lumped", with lumped_equivalent's L and C).  The
    curve keeps only that table of numbers (_curve_table); phase_sweep
    evaluates the same one-port built as a tree.

    Folding the branches' susceptances B_k = P_k/N_k (see _branch_parts)
    as U <- U N_k + P_k V, V <- V N_k gives B = U/V, and

        theta(omega) = -2 atan(z0 U/V) - 2*pi * #{branch zeros below omega}

    is the DC-referenced unwrapped phase: the atan term is the principal
    phase, which jumps by +2*pi where V = 0 (Z = 0, a branch series zero)
    and descends continuously everywhere else (Foster), and each branch
    counts its zeros from the sign of the same N_k, so jump and count
    switch together.  So theta holds at any omega > 0; the band is only
    where zeros and loaded poles are located.  The zeros are each branch's
    own roots of N_k (closed form for the tank, bracketed Newton for the
    stub); the loaded poles (theta = 0 mod 2*pi, r = +1) are found by
    bracketed Newton between them (see _crossings), both on Python floats
    (_bracketed_newton).  ``theta`` reads the
    numpy fold along arrays, _fold; ``jets`` reads the same recurrence on
    jets of floats, _jets, which gives theta with its exact derivatives,
    smooth through branch zeros (V = 0) and loaded poles (U = 0).
    """

    def __init__(self, c_couple, omega_r, z0: float, band: tuple[float, float],
                 model: str):
        self.z0, self._stub = z0, model == "stub"
        self._branches = _curve_table(c_couple, omega_r, z0, model)
        lo, hi = self.band = float(band[0]), float(band[1])
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"need finite 0 < band[0] < band[1], got {band}")

    def theta(self, omega):
        w = np.atleast_1d(_check_omega(omega))
        out = _fold(self._stub, self.z0, self._branches, w)
        return out if np.ndim(omega) else float(out[0])

    @functools.cached_property
    def zeros(self) -> np.ndarray:
        """Branch series zeros (Z = 0, theta = -pi mod 2*pi) in the band
        (lo, hi], ascending: each branch's own roots of N_k, as an array
        of the curve's row of _zero_table."""
        lo, hi = self.band
        zeros = np.array(_zero_table(self._stub, self.z0, np.array([self._branches]),
                                     np.array([hi]))[0])
        return zeros[(lo < zeros) & (zeros <= hi)]

    @functools.cached_property
    def poles(self) -> np.ndarray:
        """Loaded pole frequencies of Z (r = +1) in the band, theta = 0
        mod 2*pi, ascending: bracketed Newton on Python floats between
        the zeros (_crossings)."""
        return _crossings(self._stub, self.z0, np.array([self._branches]),
                          np.array([self.band]))[0]

    def jets(self, omega: float):
        """(theta, theta', theta'', d theta/d w_r of each branch) at one
        frequency, from one fold (_fold_jets): theta equals ``theta(omega)``
        bit for bit; the derivatives (in s, s^2, and per branch in branch
        order at fixed resonator impedance) are exact.  Raises NetworkError
        where they leave float range."""
        w = _check_frequency(omega)
        theta, d1, d2, d_r = _fold_jets(self._stub, self.z0, [self._branches], w)
        return float(theta[0]), d1[0], d2[0], d_r[:, 0]

    def dtheta(self, omega: float, order: int = 1) -> float:
        """Exact d theta/d omega (order 1, in s) or d2 theta/d omega2
        (order 2, in s^2), finite through branch zeros and loaded poles."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return float(self.jets(omega)[order])

    dtheta_unchecked = dtheta  # former name; perfbench's tracer still patches it
