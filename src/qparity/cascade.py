"""Sequential-scattering (circulator-cascade) parity scheme and comparison.

The cascade routes the probe through n single-qubit cavities in turn, all at
the same resonant frequency, so the total reflected phase is the sum of the
per-cavity phases.  Tuned so one qubit flip changes the phase by exactly pi
at the probe frequency, the +/-chi detunings are symmetric and the
first-order dispersion mismatch cancels; the second-order mismatch survives
and sets the fidelity limit.  Circulators are treated as ideal, so cavity
order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .device import Mode, ParityDevice, QubitState, _loaded_zero_estimate, _resonator
from .eraser import EraserSolution, _same_parity_pairs
from .fidelity import (
    ProbePulse,
    build_mode_grid,
    fidelity_even_odd,
    fidelity_linear_closed,
    fidelity_numeric,
    fidelity_quadratic_closed,
)
from .network import Capacitor, PhaseCurve, Series, wrap_phase

__all__ = [
    "CascadeCavity",
    "CascadeDevice",
    "TunedCascade",
    "cascade_phase",
    "tune_cascade",
    "SchemeMetrics",
    "ComparisonReport",
    "compare_schemes",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CascadeCavity:
    """One reflection cavity coupled to one qubit."""

    omega_r: float
    chi: float
    c_couple: float

    def __post_init__(self):
        if min(self.omega_r, self.chi, self.c_couple) <= 0.0:
            raise ValueError("cavity parameters must be > 0")


@dataclass(frozen=True)
class CascadeDevice:
    """n identical-frequency cavities hit sequentially by the probe."""

    n: int
    cavities: tuple
    z0: float = 50.0
    resonator_model: str = "stub"
    band: tuple | None = None

    def __post_init__(self):
        cavities = tuple(self.cavities)
        if len(cavities) != self.n:
            raise ValueError(f"{self.n} qubits need {self.n} cavities")
        freqs = {c.omega_r for c in cavities}
        if len(freqs) != 1:
            raise ValueError(
                f"cascade cavities must share one resonant frequency, got {freqs}"
            )
        if self.z0 <= 0.0:
            raise ValueError("z0 must be > 0")
        if self.resonator_model not in ("stub", "lumped"):
            raise ValueError(f"unknown resonator_model {self.resonator_model!r}")
        object.__setattr__(self, "cavities", cavities)

    @classmethod
    def uniform(cls, n: int, omega_r: float, chi: float, c_couple: float,
                z0: float = 50.0, resonator_model: str = "stub") -> "CascadeDevice":
        cav = CascadeCavity(omega_r=omega_r, chi=chi, c_couple=c_couple)
        return cls(n=n, cavities=(cav,) * n, z0=z0,
                   resonator_model=resonator_model)

    @property
    def chi(self) -> float:
        chis = {c.chi for c in self.cavities}
        if len(chis) != 1:
            raise ValueError("device does not have a single common chi")
        return self.cavities[0].chi

    def with_chi(self, chi: float) -> "CascadeDevice":
        cavities = tuple(replace(c, chi=chi) for c in self.cavities)
        return replace(self, cavities=cavities)


def _cascade_band(cavity: CascadeCavity, z0: float) -> tuple[float, float]:
    z_lo = _loaded_zero_estimate(Mode(cavity.omega_r, cavity.c_couple), z0)
    pad = max(20.0 * cavity.chi, 0.004 * cavity.omega_r)
    return (z_lo - cavity.chi - pad, cavity.omega_r + cavity.chi + pad)


def _curve(dev: CascadeDevice, j: int, bit: int) -> PhaseCurve:
    """Phase curve of cavity j with its qubit in state ``bit``."""
    cavity = dev.cavities[j]
    band = dev.band if dev.band is not None else _cascade_band(cavity, dev.z0)
    omega = cavity.omega_r + (cavity.chi if bit == 0 else -cavity.chi)
    net = Series((Capacitor(cavity.c_couple),
                  _resonator(omega, dev.z0, dev.resonator_model)))
    return PhaseCurve(net, dev.z0, band)


def cascade_phase(dev: CascadeDevice, state: QubitState, omega):
    """Total reflected phase: sum of the per-cavity reflection phases."""
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    total = sum(_curve(dev, j, b).theta(omega) for j, b in enumerate(state.bits))
    return total


def _weight_phase_fn(dev: CascadeDevice, weight: int):
    state = QubitState.of_weight(dev.n, weight)

    def theta(omega):
        return cascade_phase(dev, state, omega)

    return theta


@dataclass(frozen=True)
class TunedCascade:
    """Cascade tuned so one qubit flip shifts the phase by pi at omega_p."""

    device: CascadeDevice
    omega_p: float
    step: float          # theta_0 - theta_1 at omega_p (target: pi)
    b_single: float      # theta_0' - theta_1' at omega_p (target: 0)


def _probe_window(dev: CascadeDevice) -> tuple[float, float]:
    """Window around the loaded zero that holds the per-qubit step extremum."""
    cav = dev.cavities[0]
    z_lo = _loaded_zero_estimate(Mode(cav.omega_r, cav.c_couple), dev.z0)
    return (z_lo - 2.0 * cav.chi - 0.002 * cav.omega_r,
            z_lo + 2.0 * cav.chi + 0.002 * cav.omega_r)


def _symmetric_point(dev: CascadeDevice) -> float:
    """Frequency where the per-qubit phase step is extremal, i.e. where the
    first-derivative mismatch of the +/-chi-detuned cavities crosses zero."""
    c0, c1 = _curve(dev, 0, 0), _curve(dev, 0, 1)

    def b_of(w):
        return c0.dtheta(w) - c1.dtheta(w)

    ws = np.linspace(*_probe_window(dev), 257)
    step = c0.theta(ws) - c1.theta(ws)
    j = int(np.argmax(step))
    lo = ws[max(0, j - 2)]
    hi = ws[min(len(ws) - 1, j + 2)]
    b_lo, b_hi = b_of(lo), b_of(hi)
    k = 2
    while b_lo * b_hi > 0.0 and k < 64:
        k *= 2
        lo = ws[max(0, j - k)]
        hi = ws[min(len(ws) - 1, j + k)]
        b_lo, b_hi = b_of(lo), b_of(hi)
    if b_lo * b_hi > 0.0:
        raise ValueError("no symmetric point found in the cascade window")
    return brentq(b_of, lo, hi, xtol=1e-3)


def _probe_symmetric_point(dev: CascadeDevice) -> TunedCascade:
    """The cascade probed at its symmetric point, with its chi as given."""
    wp = _symmetric_point(dev)
    c0, c1 = _curve(dev, 0, 0), _curve(dev, 0, 1)
    return TunedCascade(
        device=dev,
        omega_p=wp,
        step=float(c0.theta(wp) - c1.theta(wp)),
        b_single=float(c0.dtheta(wp) - c1.dtheta(wp)),
    )


def tune_cascade(dev: CascadeDevice,
                 chi_range: tuple[float, float] = (TWO_PI * 0.05e6, TWO_PI * 80e6),
                 ) -> TunedCascade:
    """Adjust chi so the extremal per-qubit phase step equals exactly pi.

    The probe sits at the step extremum, so the first-order dispersion
    mismatch vanishes there by construction; a 1-D bisection on chi drives
    the step to pi.
    """
    def step_minus_pi(chi: float) -> float:
        trial = dev.with_chi(chi)
        wp = _symmetric_point(trial)
        c0, c1 = _curve(trial, 0, 0), _curve(trial, 0, 1)
        return float(c0.theta(wp) - c1.theta(wp)) - math.pi

    chis = np.geomspace(chi_range[0], chi_range[1], 41)
    vals = []
    bracket = None
    for chi in chis:
        v = step_minus_pi(chi)
        vals.append(v)
        if len(vals) > 1 and vals[-2] * v < 0.0:
            bracket = (chis[len(vals) - 2], chi)
            break
    if bracket is None:
        raise ValueError(
            "per-qubit phase step never crosses pi over the chi range; "
            f"max deviation {max(vals):+.3f} rad"
        )
    chi = brentq(step_minus_pi, bracket[0], bracket[1], xtol=1e-2)
    return _probe_symmetric_point(dev.with_chi(chi))



# ----------------------------------------------------------------------
# Scheme comparison
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeMetrics:
    """Eraser quality numbers for one scheme at its operating point."""

    name: str
    resonator_count: int
    omega_p: float
    chi: float
    residuals: tuple
    delta_theta: float
    b_max: float
    b2_max: float
    same_parity_fidelity: dict   # (w1, w2) -> F_numeric
    same_parity_closed: dict     # (w1, w2) -> closed-form F
    cross_parity_fidelity: float
    cross_parity_closed: float


@dataclass(frozen=True)
class ComparisonReport:
    parallel: SchemeMetrics
    cascade: SchemeMetrics
    b_ratio: float               # parallel b_max / cascade b_max
    quadratic_match: dict        # (w1, w2) -> |F_numeric - F_quadratic| cascade


def _parallel_metrics(dev: ParityDevice, sol: EraserSolution,
                      pulse: ProbePulse, grid) -> SchemeMetrics:
    from .device import weight_phase_curve

    n = dev.n
    wp = sol.omega_p
    curves = {w: weight_phase_curve(dev, w) for w in range(n + 1)}
    d1 = {w: curves[w].dtheta(wp, 1) for w in range(n + 1)}
    d2 = {w: curves[w].dtheta(wp, 2) for w in range(n + 1)}
    pairs = _same_parity_pairs(n)
    same_f, same_c = {}, {}
    for w1, w2 in pairs:
        same_f[(w1, w2)] = fidelity_numeric(curves[w1].theta, curves[w2].theta,
                                            pulse, grid)
        same_c[(w1, w2)] = fidelity_linear_closed(
            pulse.alpha, d1[w1] - d1[w2], pulse.bandwidth)
    cross = fidelity_numeric(curves[0].theta, curves[1].theta, pulse, grid)
    return SchemeMetrics(
        name="parallel-multimode",
        resonator_count=dev.m,
        omega_p=wp,
        chi=sol.chi,
        residuals=tuple(sol.residuals),
        delta_theta=sol.delta_theta,
        b_max=max(abs(d1[a] - d1[b]) for a, b in pairs),
        b2_max=max(abs(d2[a] - d2[b]) for a, b in pairs),
        same_parity_fidelity=same_f,
        same_parity_closed=same_c,
        cross_parity_fidelity=cross,
        cross_parity_closed=fidelity_even_odd(pulse.alpha, sol.delta_theta),
    )


def _cascade_metrics(tuned: TunedCascade, pulse: ProbePulse, grid):
    dev = tuned.device
    n = dev.n
    wp = tuned.omega_p
    c0, c1 = _curve(dev, 0, 0), _curve(dev, 0, 1)
    d1 = (c0.dtheta(wp, 1), c1.dtheta(wp, 1))
    d2 = (c0.dtheta(wp, 2), c1.dtheta(wp, 2))
    fns = {w: _weight_phase_fn(dev, w) for w in range(n + 1)}
    th = {w: float(fns[w](wp)) for w in range(n + 1)}
    residuals = tuple(th[i] - th[i + 2] - TWO_PI for i in range(n - 1))
    pairs = _same_parity_pairs(n)
    same_f, same_c, quad_match = {}, {}, {}
    for w1, w2 in pairs:
        f_num = fidelity_numeric(fns[w1], fns[w2], pulse, grid)
        same_f[(w1, w2)] = f_num
        # per-pair mismatches scale with the number of flipped qubits
        flips = w2 - w1
        b2_pair = flips * (d2[0] - d2[1])
        f_quad = fidelity_quadratic_closed(pulse.alpha, 0.5 * b2_pair,
                                           pulse.bandwidth)
        same_c[(w1, w2)] = f_quad
        quad_match[(w1, w2)] = abs(f_num - f_quad)
    cross = fidelity_numeric(fns[0], fns[1], pulse, grid)
    delta = float(wrap_phase(th[0] - th[1]))
    return SchemeMetrics(
        name="sequential-cascade",
        resonator_count=n,
        omega_p=wp,
        chi=dev.chi,
        residuals=residuals,
        delta_theta=delta,
        b_max=max(abs((w2 - w1) * (d1[0] - d1[1])) for w1, w2 in pairs),
        b2_max=max(abs((w2 - w1) * (d2[0] - d2[1])) for w1, w2 in pairs),
        same_parity_fidelity=same_f,
        same_parity_closed=same_c,
        cross_parity_fidelity=cross,
        cross_parity_closed=fidelity_even_odd(pulse.alpha, delta),
    ), quad_match


def compare_schemes(parallel_dev: ParityDevice, parallel_sol: EraserSolution,
                    cascade_dev: CascadeDevice, pulse: ProbePulse,
                    tune: bool = True) -> ComparisonReport:
    """Side-by-side eraser quality of the two schemes for the same n.

    The cascade is tuned (phase step pi, symmetric probe) unless tune=False;
    each scheme's fidelities are evaluated with a pulse centered on its own
    operating frequency.
    """
    if parallel_dev.n != cascade_dev.n:
        raise ValueError("schemes must measure the same number of qubits")
    parallel_dev = parallel_sol.device  # the solved chi/modes, not the template
    if tune:
        tuned = tune_cascade(cascade_dev)
    else:
        # keep the given chi but still probe at the symmetric point, where
        # the first-order mismatch cancels (the step may then differ from pi)
        tuned = _probe_symmetric_point(cascade_dev)
    pulse_par = ProbePulse(pulse.alpha, parallel_sol.omega_p, pulse.bandwidth)
    pulse_cas = ProbePulse(pulse.alpha, tuned.omega_p, pulse.bandwidth)
    grid_par = build_mode_grid(pulse_par.omega_p, pulse_par.bandwidth)
    grid_cas = build_mode_grid(pulse_cas.omega_p, pulse_cas.bandwidth)
    par = _parallel_metrics(parallel_dev, parallel_sol, pulse_par, grid_par)
    cas, quad_match = _cascade_metrics(tuned, pulse_cas, grid_cas)
    ratio = par.b_max / cas.b_max if cas.b_max > 0.0 else math.inf
    return ComparisonReport(parallel=par, cascade=cas, b_ratio=ratio,
                            quadratic_match=quad_match)


def comparison_to_dict(rep: ComparisonReport) -> dict:
    def metrics(m: SchemeMetrics) -> dict:
        return {
            "name": m.name,
            "resonator_count": m.resonator_count,
            "f_p_Hz": m.omega_p / TWO_PI,
            "chi_Hz": m.chi / TWO_PI,
            "residuals_rad": list(m.residuals),
            "delta_theta_deg": math.degrees(m.delta_theta),
            "b_max_s": m.b_max,
            "b2_max_s2": m.b2_max,
            "same_parity_F_numeric": {f"{a}-{b}": v for (a, b), v
                                      in m.same_parity_fidelity.items()},
            "same_parity_F_closed": {f"{a}-{b}": v for (a, b), v
                                     in m.same_parity_closed.items()},
            "cross_parity_F_numeric": m.cross_parity_fidelity,
            "cross_parity_F_closed": m.cross_parity_closed,
        }

    return {
        "parallel": metrics(rep.parallel),
        "cascade": metrics(rep.cascade),
        # null when the cascade's mismatch cancels exactly (JSON has no inf)
        "b_ratio_parallel_over_cascade": (rep.b_ratio if math.isfinite(rep.b_ratio)
                                          else None),
        "cascade_quadratic_closed_match": {f"{a}-{b}": v for (a, b), v
                                           in rep.quadratic_match.items()},
    }
