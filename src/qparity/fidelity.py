"""Coherent-pulse overlap fidelities between scattered probe states.

A Gaussian probe pulse of bandwidth W decomposes into a dense comb of
harmonic modes with Gaussian weights; each mode picks up the state-dependent
reflection phasor r = exp(i theta), and the overlap between the output
coherent states for two qubit configurations is

    F = exp(-1/2 sum_i |alpha C_i|^2 |r_s(w_i) - r_s'(w_i)|^2),

never above 1.  It equals |exp(-S)| = exp(-Re S) with
S = sum_i |alpha C_i|^2 (1 - exp(-i (theta_s - theta_s')(w_i))), as
|r_s - r_s'|^2 = 2 - 2 cos(theta_s - theta_s'), and reads no 2*pi offsets.

Closed forms exist for pure linear (b*dw), pure quadratic (b2*dw^2), and
constant (even/odd contrast) phase differences; the numeric mode sum and the
closed forms are implemented independently and cross-checked in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .device import QubitState, _weight_phasors
from .eraser import EraserSolution, _dispersion, contrast
from .network import wrap_phase

__all__ = [
    "PulseOutOfRange",
    "ProbePulse",
    "ModeGrid",
    "FidelityReport",
    "build_mode_grid",
    "fidelity_numeric",
    "fidelity_linear_closed",
    "linear_expansion",
    "fidelity_even_odd",
    "fidelity_quadratic_closed",
    "quadratic_expansion",
    "eraser_quality",
]

TWO_PI = 2.0 * math.pi

# Below this ratio of first- to second-order dispersion the linear closed
# form is meaningless and the quadratic branch is reported instead.
QUADRATIC_BRANCH_RATIO = 1e-3

# Small-parameter expansions are only quoted where they are valid.
EXPANSION_LIMIT = 0.1

# A mode comb finer than this many float spacings at omega_p does not resolve.
MIN_SPACING_ULPS = 1000.0

# The mode comb spans omega_p +/- this many W: the truncated weight is negligible.
SPAN_SIGMAS = 8.0


class PulseOutOfRange(ValueError):
    """The pulse has no mode comb: too short (the comb reaches omega <= 0)
    or too long (its spacing is below MIN_SPACING_ULPS float spacings)."""


def _positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _mean_photons(alpha: complex) -> float:
    """|alpha|^2 via alpha * conj(alpha), exact for exactly-representable
    photon numbers (e.g. alpha = 1+2j gives 5.0 with no rounding)."""
    a = complex(alpha)
    return (a * a.conjugate()).real


@dataclass(frozen=True)
class ProbePulse:
    """Gaussian coherent probe: amplitude alpha, center omega_p, bandwidth W.

    The characteristic duration is T = 1/W.
    """

    alpha: complex
    omega_p: float
    bandwidth: float

    def __post_init__(self):
        _positive(self.omega_p, "omega_p")
        _positive(self.bandwidth, "bandwidth")

    @classmethod
    def from_duration(cls, alpha: complex, omega_p: float,
                      duration: float) -> "ProbePulse":
        _positive(duration, "duration")
        bandwidth = 1.0 / duration
        if bandwidth == math.inf:
            raise PulseOutOfRange(f"too short for its carrier: its bandwidth 1/T "
                                  f"overflows (T = {duration!r} s)")
        return cls(alpha=alpha, omega_p=omega_p, bandwidth=bandwidth)

    @property
    def duration(self) -> float:
        return 1.0 / self.bandwidth

    @property
    def mean_photons(self) -> float:
        return _mean_photons(self.alpha)


@dataclass(frozen=True, eq=False)
class ModeGrid:
    """Uniform mode comb with Gaussian amplitude weights C_i."""

    frequencies: np.ndarray
    spacing: float
    weights: np.ndarray

    @property
    def weight_norm(self) -> float:
        """sum C_i^2; approaches 1 from below as the comb densifies."""
        return float(np.sum(self.weights ** 2))


def build_mode_grid(omega_p: float, bandwidth: float, points: int = 4001) -> ModeGrid:
    """Mode comb over omega_p +/- SPAN_SIGMAS*W > 0 with Gaussian weights.

    C_i = sqrt(d_omega) * exp(-(w_i - w_p)^2 / (4 W^2)) / (2 pi W^2)^(1/4),
    normalized so sum C_i^2 -> 1 in the continuum limit.  Raises
    PulseOutOfRange for a comb that reaches omega <= 0 or does not resolve.
    """
    if points < 201 or points % 2 == 0:
        raise ValueError("points must be odd and >= 201 (center node at omega_p)")
    _positive(omega_p, "omega_p")
    _positive(bandwidth, "bandwidth")
    half = SPAN_SIGMAS * bandwidth
    if not half < omega_p:
        raise PulseOutOfRange(f"too short for its carrier: the mode comb f_p +/- "
                              f"{SPAN_SIGMAS:g} W reaches f <= 0 "
                              f"(f_p = {omega_p / TWO_PI / 1e9:.6g} GHz)")
    freqs = np.linspace(omega_p - half, omega_p + half, points)
    spacing = freqs[1] - freqs[0]
    if not spacing >= MIN_SPACING_ULPS * math.ulp(omega_p):
        raise PulseOutOfRange(f"too long for its carrier: the mode comb spacing "
                              f"{spacing:.3g} rad/s is below {MIN_SPACING_ULPS:g} float "
                              f"spacings of omega_p = {omega_p:.6g} rad/s")
    weights = (math.sqrt(spacing)
               * np.exp(-((freqs - omega_p) ** 2) / (4.0 * bandwidth ** 2))
               / (TWO_PI * bandwidth ** 2) ** 0.25)
    return ModeGrid(frequencies=freqs, spacing=float(spacing), weights=weights)


def _mode_sum(dr2: np.ndarray, amp2: np.ndarray) -> float:
    """Overlap exp(-1/2 sum_i amp2_i dr2_i) from dr2 = |r_s - r_s'|^2, the
    squared phasor difference sampled on the mode comb, and the comb's
    amp2 = |alpha C_i|^2, computed once per comb by the caller.  dr2 is
    consumed: multiplied by amp2 in place."""
    dr2 *= amp2
    return math.exp(-0.5 * float(np.sum(dr2)))


def fidelity_numeric(theta_s, theta_s2, pulse: ProbePulse,
                     grid: ModeGrid | None = None) -> float:
    """Mode-sum overlap between the scattered pulses for two phase responses.

    theta_s / theta_s2 are callables returning (unwrapped, common-anchor)
    phase at an array of frequencies; 2*pi offsets between same-parity
    states drop out of |r_s - r_s'|^2 = 4 sin^2((theta_s - theta_s')/2).
    """
    if grid is None:
        grid = build_mode_grid(pulse.omega_p, pulse.bandwidth)
    dphase = np.asarray(theta_s(grid.frequencies)) - np.asarray(theta_s2(grid.frequencies))
    return _mode_sum(4.0 * np.sin(0.5 * dphase) ** 2, pulse.mean_photons * grid.weights ** 2)


def fidelity_linear_closed(alpha: complex, b: float, bandwidth: float) -> float:
    """Same-parity overlap for a pure linear dispersion mismatch b (seconds):
    F = exp(-|alpha|^2 (1 - exp(-b^2 W^2 / 2)))."""
    a2 = _mean_photons(alpha)
    return math.exp(-a2 * (1.0 - math.exp(-0.5 * (b * bandwidth) ** 2)))


def linear_expansion(alpha: complex, b: float, bandwidth: float) -> float:
    """Leading expansion 1 - |alpha|^2 b^2 W^2 / 2 (valid |alpha| b W < 0.1)."""
    a2 = _mean_photons(alpha)
    return 1.0 - 0.5 * a2 * (b * bandwidth) ** 2


def fidelity_even_odd(alpha: complex, delta_theta: float) -> float:
    """Cross-parity overlap exp(-|alpha|^2 (1 - cos(delta_theta)))."""
    a2 = _mean_photons(alpha)
    return math.exp(-a2 * (1.0 - math.cos(delta_theta)))


def fidelity_quadratic_closed(alpha: complex, b2: float, bandwidth: float) -> float:
    """Same-parity overlap for a pure quadratic phase difference b2*dw^2:
    F = |exp(-|alpha|^2 (1 - 1/sqrt(1 + 2 i b2 W^2)))|.

    Note b2 multiplies dw^2 directly; a device pair with second-derivative
    mismatch D2 has phase difference (D2/2)*dw^2, so pass b2 = D2/2.
    """
    a2 = _mean_photons(alpha)
    root = cmath.sqrt(1.0 + 2.0j * b2 * bandwidth ** 2)
    return abs(cmath.exp(-a2 * (1.0 - 1.0 / root)))


def quadratic_expansion(alpha: complex, b2: float, bandwidth: float) -> float:
    """Leading expansion 1 - 3 |alpha|^2 b2^2 W^4 / 2 (valid |alpha| b2 W^2 < 0.1)."""
    a2 = _mean_photons(alpha)
    return 1.0 - 1.5 * a2 * (b2 * bandwidth ** 2) ** 2


@dataclass(frozen=True)
class FidelityReport:
    """Overlap between the scattered probes for one pair of weight manifolds."""

    pair: tuple          # (QubitState, QubitState) representatives
    weights: tuple       # (w_lo, w_hi)
    branch: str          # same-parity-linear | same-parity-quadratic | even-odd
    f_numeric: float
    f_closed: float | None = None
    f_expansion: float | None = None
    b: float | None = None
    b2: float | None = None
    delta_theta: float | None = None


def _pair_table(phasors, jets, delta_theta: float,
                pulse: ProbePulse, grid: ModeGrid) -> tuple:
    """Fidelity of every unordered pair of Hamming weights.

    ``phasors[w]`` is weight w's reflection phasor r = exp(i theta) on the
    mode comb as (Re r, Im r) (device._weight_phasors' rows), ``jets``
    every weight's jets at the probe (indexed as device._weight_fold's;
    jets[0][w] is its phase there) and ``delta_theta`` the parity contrast
    quoted for cross-parity pairs.  Every pair gets the numeric mode sum of
    |r_w1 - r_w2|^2 = (Re r_w1 - Re r_w2)^2 + (Im r_w1 - Im r_w2)^2;
    same-parity pairs also get the linear closed form, or the quadratic one
    when the first-order mismatch cancels (|b| < QUADRATIC_BRANCH_RATIO |b2| W);
    cross-parity pairs get the even/odd closed form.
    """
    n, theta_p = len(phasors) - 1, jets[0]
    rep = _dispersion(jets)
    w_band, amp2 = pulse.bandwidth, pulse.mean_photons * grid.weights ** 2
    reports = []
    for w1, (re1, im1) in enumerate(phasors):
        for w2 in range(w1 + 1, n + 1):
            dr2, d_im = re1 - phasors[w2][0], im1 - phasors[w2][1]
            dr2 *= dr2
            d_im *= d_im
            dr2 += d_im
            f_num = _mode_sum(dr2, amp2)
            states = (QubitState.of_weight(n, w1), QubitState.of_weight(n, w2))
            if (w1, w2) in rep.first:
                b, b2 = rep.first[(w1, w2)], rep.second[(w1, w2)]
                if abs(b) < QUADRATIC_BRANCH_RATIO * abs(b2) * w_band:
                    branch = "same-parity-quadratic"
                    f_closed = fidelity_quadratic_closed(pulse.alpha, 0.5 * b2, w_band)
                    f_exp = (quadratic_expansion(pulse.alpha, 0.5 * b2, w_band)
                             if abs(pulse.alpha) * abs(0.5 * b2) * w_band ** 2
                             < EXPANSION_LIMIT else None)
                else:
                    branch = "same-parity-linear"
                    f_closed = fidelity_linear_closed(pulse.alpha, b, w_band)
                    f_exp = (linear_expansion(pulse.alpha, b, w_band)
                             if abs(pulse.alpha) * abs(b) * w_band
                             < EXPANSION_LIMIT else None)
                reports.append(FidelityReport(
                    pair=states, weights=(w1, w2), branch=branch,
                    f_numeric=f_num, f_closed=f_closed, f_expansion=f_exp,
                    b=b, b2=b2,
                    delta_theta=float(wrap_phase(theta_p[w1] - theta_p[w2])),
                ))
            else:
                reports.append(FidelityReport(
                    pair=states, weights=(w1, w2), branch="even-odd",
                    f_numeric=f_num,
                    f_closed=fidelity_even_odd(pulse.alpha, delta_theta),
                    delta_theta=delta_theta,
                ))
    return tuple(reports)


def eraser_quality(sol: EraserSolution, pulse: ProbePulse) -> tuple:
    """Full pairwise fidelity table at a solved operating point, on sol.device,
    over build_mode_grid's default comb for the pulse.

    Every unordered pair of Hamming weights gets the numeric mode-sum
    fidelity from the true device phasors (bandwidth corrections
    included); same-parity pairs additionally get the linear (or, when the
    first-order mismatch cancels, quadratic) closed form, cross-parity pairs
    the even/odd closed form at the contrast.  The probe phases, jets and
    contrast are read from the solution's own fold, not folded again; a
    contrast below 1e-9 rad is refused (EraserDegenerate).
    """
    grid = build_mode_grid(pulse.omega_p, pulse.bandwidth)
    return _pair_table(_weight_phasors(sol.device, grid.frequencies), sol.jets,
                       contrast(sol), pulse, grid)


def reports_to_dicts(reports) -> list[dict]:
    return [{
        "weights": list(r.weights),
        "state_lo": "".join(str(b) for b in r.pair[0].bits),
        "state_hi": "".join(str(b) for b in r.pair[1].bits),
        "branch": r.branch,
        "F_numeric": r.f_numeric,
        "F_closed": r.f_closed,
        "F_expansion": r.f_expansion,
        "b_s": r.b,
        "b2_s2": r.b2,
        "delta_theta_rad": r.delta_theta,
    } for r in reports]
