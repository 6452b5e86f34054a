"""Lossless one-port microwave networks: impedance, reflection, phase curves.

Networks are finite trees of quarter-wave stubs, lumped capacitors and
inductors, combined by series/parallel rules.  All evaluation is done
projectively: a node is represented by a pair (N, D) with Z = N/D, so that
impedance poles (D -> 0) and zeros (N -> 0) stay finite and the reflection
coefficient r = (N - Z0*D)/(N + Z0*D) is well defined everywhere, with
r = +1 exactly at a pole of Z.  PhaseCurve, the closed form every parity
device and cascade cavity reads, takes its one-port as numbers instead: a
coupling capacitor and a resonance frequency per parallel branch.

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

# Bracketed Newton steps on a stub branch's N (see _series_zeros); a
# tan interval bisected this often is below float spacing.
ZERO_NEWTON_STEPS = 64

# Bracketed Newton passes of the loaded-pole search; bisection alone would
# shrink any band below float spacing in fewer.
POLE_NEWTON_PASSES = 64


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
            # series-capacitor-loaded zero: the root of the reactance
            # z0 tan((pi/2) w/w_r) - 1/(w C) on (0, w_r), where it rises from
            # -inf to +inf.  Two branches' zeros can lie closer together than
            # the offset cloud below, so the seed is the zero itself.
            for c_ser in series_caps:
                def reactance(w, stub=node, c_ser=c_ser):
                    return (stub.z0 * math.tan(0.5 * math.pi * w / stub.omega_r)
                            - 1.0 / (w * c_ser))
                centers.append(brentq(reactance, 1e-9 * node.omega_r,
                                      (1.0 - 1e-12) * node.omega_r,
                                      xtol=1e-6, rtol=1e-15))
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

def _branch_parts(stub: bool, z0: float, branch: tuple, w, derivatives: bool = False):
    """Numerator P and denominator N of one branch's susceptance B = P/N.

    ``branch`` is a row of PhaseCurve's table: (C_c, w_r) for the stub,
    (C_c, C, L) for the lumped tank.  The resonator's impedance is i*s/c,
    with (c, s) = (cos x, z0 sin x), x = (pi/2) w/w_r, for the stub and
    (1 - w^2 L C, w L) for the tank.  In series with the coupler C_c the
    branch has B = -1/X = P/N, P = w C_c c and N = c - w C_c s, so N changes
    sign at the branch's series zeros.  With ``derivatives`` each of P and N
    is an array of rows (value, d/dw, d2/dw2, d/dw_r), the last at fixed
    resonator impedance (the stub's z0, the tank's sqrt(L/C)).  The row's
    entries and w may be arrays of one shape: every operation is elementwise.
    """
    c_c = branch[0]
    if stub:
        w_r = branch[1]
        x = 0.5 * math.pi * (w / w_r)
        cos, sin = np.cos(x), np.sin(x)
        c, s = cos, z0 * sin
        if derivatives:
            a = 0.5 * math.pi / w_r
            c = np.array([cos, -a * sin, -a * a * cos, x * sin / w_r])
            s = z0 * np.array([sin, a * cos, -a * a * sin, -x * cos / w_r])
    else:
        cap, l = branch[1:]
        c, s = 1.0 - w * w * (l * cap), w * l
        if derivatives:
            w_r = 1.0 / np.sqrt(l * cap)
            c = np.array([c, -2.0 * w * l * cap, np.full_like(c, -2.0 * l * cap),
                          2.0 * (1.0 - c) / w_r])
            s = np.array([s, np.full_like(s, l), np.zeros_like(s), -s / w_r])
    k = w * c_c
    if not derivatives:
        return k * c, c - k * s

    def times_k(f):  # product rule for k = w C_c, linear in w
        out = k * f
        out[1] += c_c * f[0]
        out[2] += c_c * (2.0 * f[1])
        return out

    return times_k(c), c - times_k(s)


def _zeros_below(stub: bool, branch: tuple, n, w):
    """Series zeros of one branch below w, from the sign of its N (see
    _branch_parts).

    Lumped tank: its one zero is behind w once N = 1 - w^2 L (C + C_c) < 0.
    Stub: N/cos x = 1 - w C_c z0 tan x falls through zero once on each
    interval ((2m-1) w_r, (2m+1) w_r) of tan x, where cos x has the sign
    (-1)^m: m completed intervals, plus one once N (-1)^m < 0.
    """
    if not stub:
        return n < 0.0
    m = np.floor(0.5 * w / branch[1] + 0.5)
    return m + (np.where(m % 2.0 == 0.0, n, -n) < 0.0)


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two jets (value, d/dw, d2/dw2, first-order directions...)."""
    out = a[0] * b + b[0] * a
    out[0] = a[0] * b[0]
    out[2] += 2.0 * a[1] * b[1]
    return out


def _fold(stub: bool, z0: float, branches, w: np.ndarray, slope: bool = False):
    """theta of m parallel branches at w, and with ``slope`` also theta'.

    ``branches`` holds one row of the branch table per branch (see
    _branch_parts); each entry is a float or an array of w's shape, so one
    call evaluates many curves at once, one frequency each.  The fold is
    U <- U N_k + P_k V, V <- V N_k, B = U/V, with
    theta = -2 atan(z0 U/V) - 2*pi #{branch zeros below w} and
    theta' = -2 z0 (U' V - U V')/(V^2 + z0^2 U^2).
    """
    u, v, passed = np.zeros_like(w), np.ones_like(w), np.zeros_like(w)
    du = dv = 0.0
    for branch in branches:
        if slope:
            (p, dp, *_), (n, dn, *_) = _branch_parts(stub, z0, branch, w, derivatives=True)
            du, dv = du * n + u * dn + dp * v + p * dv, dv * n + v * dn
        else:
            p, n = _branch_parts(stub, z0, branch, w)
        u, v = u * n + p * v, v * n
        passed += _zeros_below(stub, branch, n, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        # V = 0 only exactly on a zero, which B approaches from below
        z0_b = np.where(v == 0.0, np.inf, z0 * u / v)
    theta = -2.0 * np.arctan(z0_b) - TWO_PI * passed
    if not slope:
        return theta
    return theta, -2.0 * (z0 * (du * v - u * dv)) / (v * v + (z0 * u) ** 2)


def _series_zeros(stub: bool, z0: float, branch, order=0):
    """A branch's series zero, N = 0 (see _branch_parts), elementwise over
    the arrays of its table row and of ``order``.

    The lumped tank has one, 1/sqrt(L (C + C_c)).  The stub has one on each
    interval ((2 order - 1) w_r, (2 order + 1) w_r) of tan x, where
    N (-1)^order falls from + to -, just below the interval's top: there the
    stub looks like a tank of C = pi/(4 w_r z0) resonating at
    (2 order + 1) w_r, and that tank's zero seeds Newton on N.  Every step
    shrinks the interval to a bracket of the zero, a step that would leave
    it bisects instead, and an element stops once it moves within 4 ulps.
    """
    c_c = branch[0]
    if not stub:
        cap, l = branch[1:]
        return 1.0 / np.sqrt(l * (cap + c_c))
    w_r = branch[1]
    top = (2 * order + 1) * w_r
    lo, hi = np.maximum(top - 2.0 * w_r, 0.0), top
    cap = math.pi / (4.0 * w_r * z0)
    z = 1.0 / np.sqrt(1.0 / (top * top * cap) * (cap + c_c))
    z = np.where((lo < z) & (z < hi), z, 0.5 * (lo + hi))
    sign = np.where(np.asarray(order) % 2 == 0, 1.0, -1.0)
    active = np.ones(np.shape(z), dtype=bool)
    for _ in range(ZERO_NEWTON_STEPS):
        _, n = _branch_parts(stub, z0, branch, z, derivatives=True)
        lo, hi = np.where(sign * n[0] > 0.0, z, lo), np.where(sign * n[0] < 0.0, z, hi)
        dz = n[0] / n[1]
        newton = z - dz
        # a step within 4 ulps has converged, even onto a bracket end
        take = ((lo < newton) & (newton < hi)) | (np.abs(dz) <= 4.0 * np.spacing(newton))
        step = np.where(take, newton, 0.5 * (lo + hi))
        dz = np.where(take, dz, z - step)
        z = np.where(active, step, z)
        active &= np.abs(dz) > 4.0 * np.spacing(z)
        if not active.any():
            break
    return z


def _sorted_rows(a: np.ndarray) -> np.ndarray:
    # rows of a few zeros each; np.sort would load numpy's sort kernels into
    # every solving process, a few hundred kB of peak memory
    return np.array([sorted(row) for row in a])


def _zero_table(stub: bool, z0: float, table: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every branch zero from DC up to hi of each curve, sorted along rows.

    ``table`` stacks the curves' branch tables, shape (curves, branches,
    columns), and ``hi`` holds each curve's upper band edge.  A stub branch
    has a zero on every tan interval up to the one holding hi; the rows are
    padded with zeros of higher intervals, which all lie above hi.
    """
    columns = np.moveaxis(table, -1, 0)
    if not stub:
        return _sorted_rows(_series_zeros(stub, z0, columns))
    top = int(np.max(np.floor(0.5 * hi[:, None] / columns[1] + 0.5)))
    orders = np.arange(top + 1)
    zeros = _series_zeros(stub, z0, columns[..., None], orders)
    return _sorted_rows(zeros.reshape(len(table), -1))


def _crossings(curves) -> list:
    """Each curve's loaded poles (theta = 0 mod 2*pi) in its band, ascending,
    found together in one broadcast pass; the curves share z0, model and
    branch count.

    theta descends continuously, so the levels 2*pi k with
    theta(hi) <= 2*pi k < theta(lo) fix how many poles the band holds.
    Foster interlacing brackets each: on the level 2*pi k, exactly -k
    branch zeros lie below, so the pole sits between the curve's -k-th and
    (-k+1)-th zeros from DC (_zero_table), clipped to the band.  Newton on
    theta with the exact theta' (_fold) starts at the bracket's midpoint,
    or above the top zero at the top branch's resonance frequency, the exact
    pole of one branch; every evaluation shrinks the bracket, and a step
    that would leave it bisects instead.
    """
    table = np.array([c._branches for c in curves])
    band = np.array([c.band for c in curves])
    stub, z0 = curves[0]._stub, curves[0].z0

    def fold(rows, w, slope=False):  # the curves of ``rows``, one w each
        return _fold(stub, z0, np.moveaxis(table[rows], (1, 2), (0, 1)), w, slope)

    edges = fold(np.repeat(np.arange(len(curves)), 2), band.ravel()).reshape(-1, 2)
    zeros = _zero_table(stub, z0, table, band[:, 1])
    resonance = (table[..., 1] if stub
                 else 1.0 / np.sqrt(table[..., 1] * table[..., 2])).max(axis=1)
    rows, levels, lo, hi, seed = [], [], [], [], []
    for i, (th_lo, th_hi) in enumerate(edges):
        b_lo, b_hi = band[i]
        # theta < 0 from DC to the first zero, so every level has k <= -1
        for k in range(math.ceil(th_lo / TWO_PI) - 1, math.ceil(th_hi / TWO_PI) - 1, -1):
            below = zeros[i, -k - 1]
            above = zeros[i, -k] if -k < zeros.shape[1] else math.inf
            a, b = max(b_lo, below), min(b_hi, above)
            top = above >= b_hi and a < resonance[i] < b
            rows.append(i)
            levels.append(TWO_PI * k)
            lo.append(a)
            hi.append(b)
            seed.append(resonance[i] if top else 0.5 * (a + b))
    rows, levels = np.array(rows, dtype=int), np.array(levels)
    lo, hi, x = np.array(lo), np.array(hi), np.array(seed)
    done = np.zeros(len(x), dtype=bool)
    for _ in range(POLE_NEWTON_PASSES):
        if done.all():
            break
        theta, slope = fold(rows, x, slope=True)
        f = theta - levels
        lo, hi = np.where(f > 0.0, x, lo), np.where(f < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / slope
        # a step within 2 ulps has converged, even onto a bracket end
        converged = done | (f == 0.0) | (np.abs(newton - x) <= 2.0 * np.spacing(x))
        inside = (lo < newton) & (newton < hi)
        x = np.where(converged, x, np.where(inside, newton, 0.5 * (lo + hi)))
        done = converged
    return [x[rows == i] for i in range(len(curves))]


class PhaseCurve:
    """Unwrapped reflection phase of a coupled-resonator one-port, in closed form.

    The one-port is m branches in parallel, branch k a coupling capacitor
    c_couple[k] in series with a resonator at omega_r[k]: a shorted
    quarter-wave stub of impedance z0 (``model`` "stub") or its parallel-LC
    equivalent (``model`` "lumped", with lumped_equivalent's L and C).  The
    curve keeps only that table of numbers; phase_sweep evaluates the same
    one-port built as a tree.

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
    bracketed Newton between them (see _crossings).  The same fold carried
    as jets gives exact derivatives, smooth through branch zeros (V = 0)
    and loaded poles (U = 0).
    """

    def __init__(self, c_couple, omega_r, z0: float, band: tuple[float, float],
                 model: str):
        c_couple, omega_r = tuple(c_couple), tuple(omega_r)
        if not 0 < len(c_couple) == len(omega_r):
            raise ValueError("need one c_couple per omega_r and at least one, got "
                             f"{len(c_couple)} and {len(omega_r)}")
        for name, values in (("c_couple", c_couple), ("omega_r", omega_r)):
            for k, value in enumerate(values):
                if not 0.0 < value < math.inf:
                    raise ValueError(f"{name}[{k}] must be finite and > 0, got {value!r}")
        lo, hi = float(band[0]), float(band[1])
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"need finite 0 < band[0] < band[1], got {band}")
        if not (z0 > 0.0 and math.isfinite(z0 * z0)):  # the derivatives use z0**2
            raise ValueError(f"need 0 < z0 with z0**2 in float range, got {z0!r}")
        if model not in ("stub", "lumped"):
            raise ValueError(f"model must be 'stub' or 'lumped', got {model!r}")
        self.z0 = z0
        self.band = (lo, hi)
        self._stub = model == "stub"
        if self._stub:
            self._branches = tuple(zip(c_couple, omega_r))
        else:
            self._branches = tuple((c_c, *lumped_equivalent(w_r, z0))
                                   for c_c, w_r in zip(c_couple, omega_r))

    def theta(self, omega):
        w = np.atleast_1d(_check_omega(omega))
        out = _fold(self._stub, self.z0, self._branches, w)
        return out if np.ndim(omega) else float(out[0])

    @functools.cached_property
    def zeros(self) -> np.ndarray:
        """Branch series zeros (Z = 0, theta = -pi mod 2*pi) in the band
        (lo, hi], ascending: each branch's own roots of N_k."""
        lo, hi = self.band
        zeros = _zero_table(self._stub, self.z0, np.array([self._branches]),
                            np.array([hi]))[0]
        return zeros[(lo < zeros) & (zeros <= hi)]

    @functools.cached_property
    def poles(self) -> np.ndarray:
        """Loaded pole frequencies of Z (r = +1) in the band, theta = 0
        mod 2*pi, ascending: bracketed Newton between the zeros
        (_crossings)."""
        return _crossings([self])[0]

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
                    for j in _branch_parts(self._stub, self.z0, branch, w,
                                           derivatives=True))
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
