"""Lossless one-port microwave networks: impedance, reflection, phase curves.

Networks are finite trees of quarter-wave stubs, lumped capacitors and
inductors, combined by series/parallel rules.  All evaluation is done
projectively: a node is represented by a pair (N, D) with Z = N/D, so that
impedance poles (D -> 0) and zeros (N -> 0) stay finite and the reflection
coefficient r = (N - Z0*D)/(N + Z0*D) is well defined everywhere, with
r = +1 exactly at a pole of Z.

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
from scipy.optimize import brentq

__all__ = [
    "NetworkError",
    "PoleProximity",
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
    "stub_impedance",
    "lumped_equivalent",
    "network_impedance",
    "reflection_coefficient",
    "phase_sweep",
]

TWO_PI = 2.0 * math.pi

# Total admittance magnitude below which a frequency counts as sitting on a
# pole of Z (the one-port looks like an exact open).
POLE_ADMITTANCE_TOL = 1e-18

# |cos| threshold below which the stub tan() form is numerically meaningless.
STUB_COS_TOL = 1e-14

# Adaptive refinement stops subdividing once adjacent unwrapped-phase steps
# are below this; 2**24 evaluated points is the pathological-input cutoff.
PHASE_STEP_LIMIT = math.pi / 4.0
MAX_SWEEP_POINTS = 2 ** 24

# Foster's theorem: the reflection phase of a lossless one-port strictly
# decreases, so a positive wrapped step beyond rounding noise can only be an
# aliased full turn and forces further bisection.
FOSTER_NOISE = 1e-7


class NetworkError(Exception):
    """Base class for network evaluation failures."""


class PoleProximity(NetworkError):
    """Evaluation requested too close to a pole for the impedance form."""


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
    if np.any(w <= 0.0):
        raise ValueError("omega must be strictly positive")
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


def stub_impedance(omega: float, z0: float, omega_r: float) -> complex:
    """Impedance of a shorted quarter-wave stub, i*z0*tan((pi/2)(w/w_r)).

    Raises PoleProximity within STUB_COS_TOL of a tan singularity; use the
    admittance (projective) form there instead.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if z0 <= 0.0 or omega_r <= 0.0:
        raise ValueError("z0 and omega_r must be > 0")
    x = 0.5 * math.pi * (omega / omega_r)
    c = math.cos(x)
    if abs(c) < STUB_COS_TOL:
        raise PoleProximity(
            f"stub evaluated within {STUB_COS_TOL} of a tan singularity "
            f"(omega={omega:.6e}, omega_r={omega_r:.6e})"
        )
    return 1j * z0 * math.tan(x)


def lumped_equivalent(omega_r: float, z0: float) -> tuple[float, float]:
    """Parallel-LC equivalent of a quarter-wave stub near its fundamental.

    C = pi/(4*omega_r*z0), L = 1/(omega_r**2 * C); the LC resonance
    1/sqrt(L*C) reproduces omega_r exactly.
    """
    if omega_r <= 0.0 or z0 <= 0.0:
        raise ValueError("omega_r and z0 must be > 0")
    with np.errstate(all="ignore"):
        c = math.pi / (4.0 * np.float64(omega_r) * z0)
        l = 1.0 / (omega_r * omega_r * c)
    if not (0.0 < c < math.inf and 0.0 < l < math.inf):
        raise ValueError(f"omega_r={omega_r:.3e} rad/s with z0={z0:.3e} ohm has no "
                         "lumped equivalent in float range")
    return float(c), float(l)


def network_impedance(net: NetworkElement, omega: float) -> complex:
    """Complex impedance of the one-port at a single frequency.

    Raises PoleProximity when the total admittance magnitude drops below
    POLE_ADMITTANCE_TOL (a pole of Z); the reflection coefficient remains
    well defined there via reflection_coefficient.
    """
    w = _check_omega(omega)
    num, den = _impedance_parts(net, w)
    if np.abs(den) < POLE_ADMITTANCE_TOL * np.abs(num):
        raise PoleProximity(
            f"admittance magnitude below {POLE_ADMITTANCE_TOL} S at "
            f"omega={float(w):.6e} (pole of Z)"
        )
    return complex(num / den)


def reflection_coefficient(net: NetworkElement, omega, z0: float):
    """Reflection coefficient r = (Z - z0)/(Z + z0), finite at poles (r=+1)."""
    if z0 <= 0.0:
        raise ValueError("z0 must be > 0")
    w = _check_omega(omega)
    num, den = _impedance_parts(net, w)
    r = (num - z0 * den) / (num + z0 * den)
    return r if np.ndim(omega) else complex(r)


def _susceptance(net: NetworkElement, omega: float) -> float:
    """Im(Y) of the one-port; zero exactly at poles of Z (Foster-increasing)."""
    w = _check_omega(omega)
    num, den = _impedance_parts(net, w)
    return float(np.imag(den / num))


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
            # series-capacitor-loaded zero, estimated from the lumped
            # equivalent (lands inside the true transition for weak coupling)
            c_r = math.pi / (4.0 * node.omega_r * node.z0)
            for c_ser in series_caps:
                centers.append(node.omega_r * math.sqrt(c_r / (c_r + c_ser)))
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

    Each bracketing grid interval is polished with a root solve on Im(Y),
    which crosses zero from below exactly at a pole (Foster's theorem).
    """
    poles = []
    for i in range(len(grid) - 1):
        t1, t2 = theta[i], theta[i + 1]
        # half-open: a sample sitting exactly on a level closes the interval
        # that ends there, so each pole is counted once
        level = (math.ceil(t1 / TWO_PI) - 1) * TWO_PI
        if t2 <= level < t1:
            a, b = float(grid[i]), float(grid[i + 1])
            ba, bb = _susceptance(net, a), _susceptance(net, b)
            if ba < 0.0 < bb:
                poles.append(brentq(lambda w: _susceptance(net, w), a, b,
                                    xtol=1e-6, rtol=1e-15))
            else:
                # susceptance sign did not isolate the crossing; fall back to
                # the phase-interpolated location
                poles.append(a + (b - a) * (t1 - level) / (t1 - t2))
    return np.asarray(poles, dtype=float)


# ----------------------------------------------------------------------
# Closed-form phase curve
# ----------------------------------------------------------------------

def _branch_resonator(branch: NetworkElement) -> NetworkElement:
    """The resonator of a Series((Capacitor, resonator)) branch.

    The resonator is a QuarterWaveStub or a Parallel of one Inductor and
    one Capacitor; anything else raises TypeError.
    """
    if (isinstance(branch, Series) and len(branch.children) == 2
            and isinstance(branch.children[0], Capacitor)):
        res = branch.children[1]
        if isinstance(res, QuarterWaveStub):
            return res
        if (isinstance(res, Parallel) and len(res.children) == 2
                and {type(c) for c in res.children} == {Inductor, Capacitor}):
            return res
    raise TypeError(
        "PhaseCurve needs Series((Capacitor, resonator)) branches, got "
        f"{branch!r}"
    )


def _branch_parts(branch: Series, w, derivatives: bool = False):
    """Numerator P and denominator N of one branch's susceptance B = P/N.

    The resonator's impedance is i*s/c, with (c, s) = (cos x, z0 sin x),
    x = (pi/2) w/w_r, for the stub and (1 - w^2 L C, w L) for the lumped
    tank.  In series with the coupler C_c the branch has B = -1/X = P/N,
    P = w C_c c and N = c - w C_c s, so N changes sign at the branch's
    series zeros.  With ``derivatives`` each of P and N is an array of rows
    (value, d/dw, d2/dw2, d/dw_r), the last at fixed resonator impedance
    (the stub's z0, the tank's sqrt(L/C)).
    """
    res = branch.children[1]
    c_c = branch.children[0].c
    if isinstance(res, QuarterWaveStub):
        w_r = res.omega_r
        x = 0.5 * math.pi * (w / w_r)
        cos, sin = np.cos(x), np.sin(x)
        c, s = cos, res.z0 * sin
        if derivatives:
            a = 0.5 * math.pi / w_r
            c = np.array([cos, -a * sin, -a * a * cos, x * sin / w_r])
            s = res.z0 * np.array([sin, a * cos, -a * a * sin, -x * cos / w_r])
    else:
        l = next(e.l for e in res.children if isinstance(e, Inductor))
        cap = next(e.c for e in res.children if isinstance(e, Capacitor))
        c, s = 1.0 - w * w * (l * cap), w * l
        if derivatives:
            w_r = 1.0 / math.sqrt(l * cap)
            c = np.array([c, -2.0 * w * l * cap, -2.0 * l * cap, 2.0 * (1.0 - c) / w_r])
            s = np.array([s, l, 0.0, -s / w_r])
    k = w * c_c
    if not derivatives:
        return k * c, c - k * s

    def times_k(f):  # product rule for k = w C_c, linear in w
        return k * f + c_c * np.array([0.0, f[0], 2.0 * f[1], 0.0])

    return times_k(c), c - times_k(s)


def _zeros_below(branch: Series, n, w):
    """Series zeros of one branch below w, from the sign of its N (see
    _branch_parts).

    Lumped tank: its one zero is behind w once N = 1 - w^2 L (C + C_c) < 0.
    Stub: N/cos x = 1 - w C_c z0 tan x falls through zero once on each
    interval ((2m-1) w_r, (2m+1) w_r) of tan x, where cos x has the sign
    (-1)^m: m completed intervals, plus one once N (-1)^m < 0.
    """
    res = branch.children[1]
    if isinstance(res, Parallel):
        return n < 0.0
    m = np.floor(0.5 * w / res.omega_r + 0.5)
    return m + (np.where(m % 2.0 == 0.0, n, -n) < 0.0)


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two jets (value, d/dw, d2/dw2, first-order directions...)."""
    out = a[0] * b + b[0] * a
    out[0] = a[0] * b[0]
    out[2] += 2.0 * a[1] * b[1]
    return out


class PhaseCurve:
    """Unwrapped reflection phase of a coupled-resonator one-port, in closed form.

    ``net`` is one Series((Capacitor, resonator)) branch or a Parallel of
    such branches -- the networks every parity device and cascade cavity
    builds; other trees raise TypeError (use phase_sweep for those).

    Folding the branches' susceptances B_k = P_k/N_k (see _branch_parts)
    as U <- U N_k + P_k V, V <- V N_k gives B = U/V, and

        theta(omega) = -2 atan(z0 U/V) - 2*pi * #{branch zeros below omega}

    is the DC-referenced unwrapped phase: the atan term is the principal
    phase, which jumps by +2*pi where V = 0 (Z = 0, a branch series zero)
    and descends continuously everywhere else (Foster), and each branch
    counts its zeros from the sign of the same N_k, so jump and count
    switch together.  So theta holds at any omega > 0; the band is only
    where zeros (theta = -pi mod 2*pi) and loaded poles (theta = 0 mod 2*pi,
    r = +1) are searched, as level crossings of this continuous descent.
    The same fold carried as jets gives exact derivatives, smooth through
    branch zeros (V = 0) and loaded poles (U = 0).
    """

    def __init__(self, net: NetworkElement, z0: float, band: tuple[float, float]):
        lo, hi = float(band[0]), float(band[1])
        if not 0.0 < lo < hi:
            raise ValueError(f"need 0 < band[0] < band[1], got {band}")
        if not (z0 > 0.0 and math.isfinite(z0 * z0)):  # the derivatives use z0**2
            raise ValueError(f"need 0 < z0 with z0**2 in float range, got {z0!r}")
        self.net = net
        self.z0 = z0
        self.band = (lo, hi)
        self._branches = net.children if isinstance(net, Parallel) else (net,)
        for branch in self._branches:
            _branch_resonator(branch)

    def theta(self, omega):
        w = np.atleast_1d(_check_omega(omega))
        u, v, passed = np.zeros_like(w), np.ones_like(w), np.zeros_like(w)
        for branch in self._branches:
            p, n = _branch_parts(branch, w)
            u, v = u * n + p * v, v * n
            passed += _zeros_below(branch, n, w)
        with np.errstate(divide="ignore", invalid="ignore"):
            # V = 0 only exactly on a zero, which B approaches from below
            z0_b = np.where(v == 0.0, np.inf, self.z0 * u / v)
        out = -2.0 * np.arctan(z0_b) - TWO_PI * passed
        return out if np.ndim(omega) else float(out[0])

    def _crossings(self, level: float) -> np.ndarray:
        """Frequencies in the band where theta descends through level
        mod 2*pi, in ascending order: theta is continuous and decreasing,
        so one brentq over the band finds each."""
        lo, hi = self.band
        turns = range(math.ceil((self.theta(lo) - level) / TWO_PI) - 1,
                      math.ceil((self.theta(hi) - level) / TWO_PI) - 1, -1)
        return np.array([brentq(lambda w, t=level + TWO_PI * k: self.theta(w) - t,
                                lo, hi, xtol=1e-6, rtol=1e-15) for k in turns],
                        dtype=float)

    @functools.cached_property
    def zeros(self) -> np.ndarray:
        """Branch series zeros (Z = 0) in the band: theta = -pi mod 2*pi."""
        return self._crossings(-math.pi)

    @functools.cached_property
    def poles(self) -> np.ndarray:
        """Loaded pole frequencies of Z (r = +1) in the band: theta = 0
        mod 2*pi."""
        return self._crossings(0.0)

    @np.errstate(over="ignore", invalid="ignore")  # overflow is refused below
    def _derivatives(self, omega: float):
        """(theta', theta'', d theta/d w_r of each branch) at one frequency.

        U and V are jets (value, d/dw, d2/dw2, d/dw_r of each branch),
        folded as U <- U N_k + P_k V, V <- V N_k; then with A = z0 (U' V - U V')
        and D = V^2 + z0^2 U^2, theta' = -2 A/D and theta'' = -2 (A' D - A D')/D^2.
        """
        w = float(_check_omega(omega))
        m = len(self._branches)
        u, v = np.zeros(3 + m), np.eye(1, 3 + m)[0]
        for k, branch in enumerate(self._branches):
            p, n = (np.concatenate([j[:3], j[3] * (np.arange(m) == k)])
                    for j in _branch_parts(branch, w, derivatives=True))
            u, v = _jet_mul(u, n) + _jet_mul(p, v), _jet_mul(v, n)
        a = self.z0 * (u * v[0] - u[0] * v)
        d = v[0] ** 2 + (self.z0 * u[0]) ** 2
        d_prime = 2.0 * (v[0] * v[1] + self.z0 ** 2 * u[0] * u[1])
        out = (-2.0 * a[1] / d, -2.0 * (a[2] * d - a[1] * d_prime) / d ** 2,
               -2.0 * a[3:] / d)
        if not (math.isfinite(out[0]) and math.isfinite(out[1])
                and np.isfinite(out[2]).all()):
            raise NetworkError(f"phase derivatives at omega={w:.6e} rad/s leave float range")
        return out

    def dtheta(self, omega: float, order: int = 1) -> float:
        """Exact d theta/d omega (order 1, in s) or d2 theta/d omega2
        (order 2, in s^2), finite through branch zeros and loaded poles."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return float(self._derivatives(omega)[order - 1])

    dtheta_unchecked = dtheta  # former name; perfbench's tracer still patches it

    def dtheta_dresonance(self, omega: float) -> np.ndarray:
        """d theta/d w_r of each branch's resonator frequency, in branch
        order, at fixed resonator impedance."""
        return self._derivatives(omega)[2]
