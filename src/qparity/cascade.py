"""Sequential-scattering (circulator-cascade) parity scheme and comparison.

The cascade routes the probe through n identical single-qubit cavities in
turn, so the total reflected phase is the sum of the per-cavity phases.
Each cavity is a one-qubit, one-mode ParityDevice; the cascade is that
cavity probed once per qubit.  Tuned so one qubit flip changes the phase by
exactly pi at the probe frequency, the +/-chi detunings are symmetric and
the first-order dispersion mismatch cancels; the second-order mismatch
survives and sets the fidelity limit.  Circulators are treated as ideal, so
cavity order never matters.

Tuning is one Newton loop on the cavity's exact phase derivatives, omega
and chi stepping together on each fold: omega onto the step maximum,
b = theta_0' - theta_1' = 0, and chi, by the step's partial in chi, onto
pi: the smallest chi with a pi step.  With chi held the same loop finds
the step maximum alone.  A fold is the cavity's two pulled rows, as the
eraser's exact stage folds a point; the tuned cavity, the one device
built, is an EraserSolution, as a solved parallel device is: the cavity
at its chi, its probe and its fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import (ParityDevice, QubitState, _loaded_zero_estimate, _rows_jets,
                     _weight_phasors, _weight_rows, _weight_table)
from .eraser import EraserSolution, _residuals
from .fidelity import ProbePulse, _pair_table, build_mode_grid
from .network import wrap_phase

__all__ = [
    "tune_cascade",
    "SchemeMetrics",
    "ComparisonReport",
    "compare_schemes",
]

TWO_PI = 2.0 * math.pi

CHI_RANGE = (TWO_PI * 0.05e6, TWO_PI * 80e6)  # tuning bounds; Newton starts low
MAX_NEWTON_STEPS = 50
OMEGA_ULPS = 16     # omega_p has converged once a Newton step is this many ulps
STEP_TOL = 1e-10    # rad; the step itself is rounding noise below ~1e-12


def _cascade_sums(rows, states, combine=sum) -> list:
    """The cascade's value in each of ``states`` from the cavity's per-bit
    ``rows`` (rows[0] and rows[1], as the cavity's _weight_fold gives them,
    or its bits' comb phasors as complex arrays): one cavity per qubit in
    its bit's state, combined in cavity order.  Phases and their jets sum;
    with ``combine=math.prod`` comb phasors multiply."""
    return [combine(rows[b] for b in s.bits) for s in states]


def _newton_symmetric(cavity: ParityDevice, w: float | None = None,
                      tune_chi: bool = False) -> EraserSolution:
    """The cavity probed where the per-qubit phase step S = theta_0 - theta_1
    is maximal (b = theta_0' - theta_1' = 0), so the linear dispersion
    mismatch cancels; chi as given, or with ``tune_chi`` tuned so S = pi.

    One Newton loop from w (default: the loaded zero) and, tuning, chi at
    CHI_RANGE's bottom.  Each step is one _rows_jets fold of the cavity's two
    _weight_rows (bits 0 and 1 put it at omega_r +/- chi), as the eraser's
    exact stage folds a point: omega moves by -b/b' with b' = theta_0'' -
    theta_1'', and chi by (pi - S)/(dS/dchi) with dS/dchi = d theta_0/d
    omega_r + d theta_1/d omega_r at fixed omega.  The jets hold no d b/d chi,
    which the omega step leaves out.  The loop stops at the fold where
    omega's step is within OMEGA_ULPS ulps and, tuning, S within STEP_TOL of
    pi, and returns the cavity at its chi, the one device built, probed at
    omega, with that fold's jets (its weights are the two bits, so S is
    theta_by_weight[0] - theta_by_weight[1]).  Refuses b' >= 0, which is no
    maximum, rows the cavity refuses (raised by _weight_table), a chi step
    leaving CHI_RANGE, and a cavity that is not one qubit on one mode.
    """
    if (cavity.n, cavity.m) != (1, 1):
        raise ValueError("a cascade cavity is a 1-qubit, 1-mode device, got "
                         f"{cavity.n} qubits x {cavity.m} modes")
    chi_lo, chi_hi = CHI_RANGE
    chi = chi_lo if tune_chi else cavity.chi
    if w is None:
        w = _loaded_zero_estimate(cavity.modes[0], cavity.z0)
    for _ in range(MAX_NEWTON_STEPS):
        rows = _weight_rows([cavity.modes[0].omega], chi, 1)
        if rows is None:
            _weight_table(cavity.with_chi(chi))  # raises, naming the refusal
        jets = _rows_jets(cavity, rows, w)  # rows by bit
        th, d1, d2, d_r = jets
        b, slope, step = float(d1[0] - d1[1]), float(d2[0] - d2[1]), float(th[0] - th[1])
        if not slope < 0.0:
            raise ValueError("no symmetric point: the per-qubit phase step has no "
                             f"maximum near f = {w / TWO_PI:.9g} Hz")
        dw = -b / slope
        if (abs(dw) <= OMEGA_ULPS * math.ulp(w)
                and (not tune_chi or abs(step - math.pi) <= STEP_TOL)):
            return EraserSolution(cavity.with_chi(chi), w, jets=jets)
        w += dw
        if tune_chi:
            ds_dchi = float(d_r[0, 0] + d_r[0, 1])
            next_chi = chi + (math.pi - step) / ds_dchi if ds_dchi > 0.0 else math.inf
            if not chi_lo <= next_chi <= chi_hi:
                raise ValueError(
                    "per-qubit phase step never crosses pi over the chi range "
                    f"{chi_lo / TWO_PI / 1e6:g}-{chi_hi / TWO_PI / 1e6:g} MHz; step "
                    f"{step:.3f} rad at {chi / TWO_PI / 1e6:.6g} MHz")
            chi = next_chi
        if not 0.0 < w < math.inf:
            break
    raise ValueError("no symmetric point: Newton on the per-qubit phase step "
                     "did not converge")


def tune_cascade(cavity: ParityDevice) -> EraserSolution:
    """Adjust the cavity's chi so the maximal per-qubit phase step S(chi)
    equals pi, probed at that maximum (b = 0): _newton_symmetric with
    ``tune_chi``, omega and chi stepping together on each fold.

    Below that chi no probe frequency gives a pi step, so this is the
    smallest-chi pi root (longest Purcell T1).  At b = 0 the step's partial
    in chi at fixed omega is the maximum's own slope (envelope theorem).  S
    rises from 0 and is concave, like the Lorentzian 4 atan(2 chi/kappa),
    so from CHI_RANGE's bottom the iterates climb below pi.  A start above
    pi or an iterate leaving CHI_RANGE raises ValueError, as does a device
    that is not one qubit on one mode.
    """
    return _newton_symmetric(cavity, tune_chi=True)


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
    quadratic_match: dict        # (w1, w2) -> |F_numeric - F_closed| of the cascade


def _scheme_metrics(name: str, resonator_count: int, chi: float, phasors, jets,
                    omega_p: float, pulse: ProbePulse) -> SchemeMetrics:
    """One scheme's metrics from its per-weight responses, scored by the
    pairwise fidelity table with the pulse centred on omega_p:
    ``phasors(omega)`` gives every weight's reflection phasor
    r = exp(i theta) along omega as (Re r, Im r), all the mode sum reads,
    and ``jets`` every weight's jets at omega_p (indexed as
    device._weight_fold's)."""
    pulse = ProbePulse(pulse.alpha, omega_p, pulse.bandwidth)
    th = jets[0]
    delta = float(wrap_phase(th[0] - th[1]))
    if math.pi - abs(delta) <= STEP_TOL:
        # a tuned pi step has no sign: rounding noise picks either end of
        # (-pi, pi], and cos, the only other reader, is even
        delta = abs(delta)
    grid = build_mode_grid(omega_p, pulse.bandwidth)
    table = _pair_table(phasors(grid.frequencies), jets, delta, pulse, grid)
    same = [r for r in table if r.branch != "even-odd"]
    cross = table[0]  # weights (0, 1)
    return SchemeMetrics(
        name=name,
        resonator_count=resonator_count,
        omega_p=omega_p,
        chi=chi,
        residuals=tuple(float(v) for v in _residuals(th)),
        delta_theta=delta,
        b_max=max(abs(r.b) for r in same),
        b2_max=max(abs(r.b2) for r in same),
        same_parity_fidelity={r.weights: r.f_numeric for r in same},
        same_parity_closed={r.weights: r.f_closed for r in same},
        cross_parity_fidelity=cross.f_numeric,
        cross_parity_closed=cross.f_closed,
    )


def compare_schemes(parallel_sol: EraserSolution, cavity: ParityDevice,
                    pulse: ProbePulse, tune: bool = True) -> ComparisonReport:
    """Side-by-side eraser quality of the two schemes for the same n: the
    solved parallel device against one ``cavity`` per qubit.

    The cascade is tuned (phase step pi, symmetric probe) unless tune=False;
    each scheme's fidelities are evaluated with a pulse centered on its own
    operating frequency.  The scores need same-parity pairs, so a device
    of one qubit is refused (ValueError naming n_qubits).
    """
    if parallel_sol.device.n < 2:
        raise ValueError("n_qubits: compare needs at least 2 qubits, got "
                         f"{parallel_sol.device.n}")
    # without tune keep the given chi but still probe at the symmetric point,
    # where the first-order mismatch cancels (the step may then differ from pi)
    tuned = tune_cascade(cavity) if tune else _newton_symmetric(cavity)
    dev = parallel_sol.device
    par = _scheme_metrics("parallel-multimode", dev.m, parallel_sol.chi,
                          lambda omega: _weight_phasors(dev, omega),
                          parallel_sol.jets, parallel_sol.omega_p, pulse)
    cav, states = tuned.device, [QubitState.of_weight(dev.n, w) for w in range(dev.n + 1)]

    def cascade_phasors(omega) -> list:
        # numpy's complex product rounds unlike a parts formula: the bits'
        # rows are rebuilt exactly as complex arrays, which multiply
        bits = [np.empty(len(omega), complex), np.empty(len(omega), complex)]
        (bits[0].real, bits[0].imag), (bits[1].real, bits[1].imag) = _weight_phasors(cav, omega)
        return [(r.real, r.imag) for r in _cascade_sums(bits, states, math.prod)]

    jets = np.vstack(tuned.jets).T  # rows by bit
    cas = _scheme_metrics("sequential-cascade", dev.n, cav.chi, cascade_phasors,
                          np.array(_cascade_sums(jets, states)).T, tuned.omega_p, pulse)
    quad_match = {p: abs(f - cas.same_parity_closed[p])
                  for p, f in cas.same_parity_fidelity.items()}
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
