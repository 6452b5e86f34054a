"""Quantum-eraser condition solver: probe frequency and dispersive coupling.

For an n-qubit equal-coupling device the parity conditions require, at the
probe frequency, theta_wt(i) = theta_wt(i+2) + 2*pi for every weight pair
two apart: n-1 residuals.  Every n >= 2 takes one path.  A coarse
residual-norm grid over (omega_p, chi) localizes smooth basins (the
landscape has 2*pi jumps near poles); from each, a damped Gauss-Newton
iteration on the exact phase derivatives moves x = (omega_p, chi[, gaps])
onto the root set, and every returned root is verified by its residuals.
Among verified roots the most distinguishable one (largest
|sin(delta_theta/2)|) wins.

With mode frequencies freed (the 4-qubit case needs this: 3 conditions vs
2 knobs), the mode gaps join the unknowns, starting at the template's
spacing.  Where the unknowns outnumber the conditions (n = 2, or freed
gaps) the roots form a family, and one more condition, cos(delta_theta/2)
= 0, makes the system square: a second Gauss-Newton from each root goes to
delta_theta = pi, the maximum of the ranking score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .device import (ParityDevice, QubitState, _loaded_zero_estimate, loaded_poles,
                     weight_phase_curve)
from .network import wrap_phase

__all__ = [
    "EraserError",
    "InfeasibleDevice",
    "NoSolution",
    "PoleCollision",
    "EraserDegenerate",
    "EraserSolution",
    "min_modes_required",
    "eraser_residuals",
    "make_solution",
    "solve_eraser",
    "contrast",
    "dispersion_report",
    "DispersionReport",
    "solution_to_dict",
]

TWO_PI = 2.0 * math.pi

DEFAULT_CHI_RANGE = (TWO_PI * 0.1e6, TWO_PI * 50e6)
DEFAULT_TOL = 1e-9
NEWTON_MAX_ITER = 30
GRID_FAIL_NORM = 1.0  # rad; grid minima above this are no basin to polish


class EraserError(Exception):
    pass


class InfeasibleDevice(EraserError):
    """Too few modes for the required phase winding."""


class NoSolution(EraserError):
    """Search failed; .best carries the best candidate for diagnosis."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class PoleCollision(EraserError):
    """Optimum sits on top of a reflection pole."""


class EraserDegenerate(EraserError):
    """Even and odd parities are indistinguishable (delta_theta = 0)."""


@dataclass(frozen=True)
class EraserSolution:
    """A verified root of the parity conditions.

    ``device`` is the solved device (final chi and mode frequencies);
    ``basins`` lists every distinct verified root found, as tuples of
    (omega_p, chi, delta_theta), best first.
    """

    device: ParityDevice
    omega_p: float
    chi: float
    theta_by_weight: tuple
    residuals: tuple
    delta_theta: float
    dispersion_b: float
    dispersion_b2: float
    basins: tuple = ()


def min_modes_required(n: int) -> int:
    """Resonances needed for the winding the n-qubit conditions consume:
    ceil((n+1)/2).

    The conditions plus a usable contrast need the phase to vary by more
    than pi*n, and each mode contributes one 2*pi turn.  Brute-force scans
    confirm the bound is sharp: a single-mode 2-qubit device's lone residual
    asymptotes to zero from below without ever crossing it.
    """
    return (n + 2) // 2


def _weight_curves(dev: ParityDevice) -> list:
    return [weight_phase_curve(dev, w) for w in range(dev.n + 1)]


def _thetas(curves: list, omega_p) -> np.ndarray:
    return np.array([c.theta(omega_p) for c in curves])


def _residuals(th: np.ndarray) -> np.ndarray:
    """theta_wt(i) - theta_wt(i+2) - 2*pi from the per-weight phases."""
    return th[:-2] - th[2:] - TWO_PI


def eraser_residuals(dev: ParityDevice, omega_p) -> np.ndarray:
    """theta_wt(i) - theta_wt(i+2) - 2*pi for i = 0..n-2 (n-1 entries), at
    one probe frequency or, row by row, along an array of them."""
    return _residuals(_thetas(_weight_curves(dev), omega_p))


def contrast(sol: EraserSolution) -> float:
    """delta_theta = wrap(theta_even - theta_odd) in (-pi, pi]."""
    if sol.device.n < 1 or len(sol.theta_by_weight) < 2:
        raise ValueError("solution lacks both parity manifolds")
    d = wrap_phase(sol.theta_by_weight[0] - sol.theta_by_weight[1])
    if abs(d) < 1e-9:
        raise EraserDegenerate(
            f"parities indistinguishable: delta_theta = {d:.3e} rad"
        )
    return d


@dataclass(frozen=True)
class DispersionReport:
    """Signed derivative mismatches between same-parity weight pairs."""

    first: dict    # (w_lo, w_hi) -> theta'_lo - theta'_hi   [s]
    second: dict   # (w_lo, w_hi) -> theta''_lo - theta''_hi [s^2]

    @property
    def max_abs_first(self) -> float:
        return max((abs(v) for v in self.first.values()), default=0.0)

    @property
    def max_abs_second(self) -> float:
        return max((abs(v) for v in self.second.values()), default=0.0)


def _same_parity_pairs(n: int):
    evens = range(0, n + 1, 2)
    odds = range(1, n + 1, 2)
    return list(combinations(evens, 2)) + list(combinations(odds, 2))


def _dispersion(curves: list, omega_p: float) -> DispersionReport:
    d1 = [c.dtheta(omega_p, order=1) for c in curves]
    d2 = [c.dtheta(omega_p, order=2) for c in curves]
    pairs = _same_parity_pairs(len(curves) - 1)
    return DispersionReport(
        first={p: d1[p[0]] - d1[p[1]] for p in pairs},
        second={p: d2[p[0]] - d2[p[1]] for p in pairs},
    )


def dispersion_report(dev: ParityDevice, sol: EraserSolution) -> DispersionReport:
    """First/second phase-derivative mismatches among same-parity weights
    at the solution's probe frequency, from the exact derivatives (finite
    at loaded poles, so no point is refused)."""
    return _dispersion(_weight_curves(dev), sol.omega_p)


def make_solution(dev: ParityDevice, omega_p: float, basins=()) -> EraserSolution:
    """The solution object at (dev, omega_p): per-weight phases, residuals,
    contrast and dispersion, each computed once."""
    curves = _weight_curves(dev)
    th = _thetas(curves, omega_p)
    rep = _dispersion(curves, omega_p)
    return EraserSolution(
        device=dev,
        omega_p=omega_p,
        chi=dev.chi,
        theta_by_weight=tuple(float(t) for t in th),
        residuals=tuple(float(v) for v in _residuals(th)),
        delta_theta=float(wrap_phase(th[0] - th[1])),
        dispersion_b=rep.max_abs_first,
        dispersion_b2=rep.max_abs_second,
        basins=tuple(basins),
    )


# ----------------------------------------------------------------------
# Solver internals
# ----------------------------------------------------------------------

def _default_search_band(dev: ParityDevice, chi_hi: float) -> tuple[float, float]:
    spread = dev.n * chi_hi
    lo = min(_loaded_zero_estimate(mo, dev.z0) for mo in dev.modes) - spread
    hi = max(mo.omega for mo in dev.modes) + spread
    return (lo, hi)


def _solver_band(dev: ParityDevice, chi_range, search_band) -> tuple[float, float]:
    """Fixed evaluation band covering the whole chi range, every gap rescaling
    the free-mode search may try, and the probe search band."""
    freqs = [mo.omega for mo in dev.modes]
    span = (max(freqs) - min(freqs)) if len(freqs) > 1 else 0.0
    spread = dev.n * chi_range[1]
    z_lo = min(_loaded_zero_estimate(mo, dev.z0) for mo in dev.modes)
    pad = 0.005 * min(freqs) + spread + 1.5 * span
    lo = min(z_lo, search_band[0]) - pad
    hi = max(max(freqs), search_band[1]) + spread + pad
    # 12-significant-digit values survive the serialized-solution round trip
    return float(f"{lo:.12g}"), float(f"{hi:.12g}")


def _with_gaps(dev: ParityDevice, gaps) -> ParityDevice:
    """dev with its modes respaced by ``gaps`` about their mean frequency."""
    center = float(np.mean([mo.omega for mo in dev.modes]))
    offs = np.concatenate([[0.0], np.cumsum(gaps)])
    offs -= offs.mean()
    return dev.with_mode_frequencies(center + offs)


def _device(dev0: ParityDevice, x) -> ParityDevice:
    """dev0 at the solver point x = (omega_p, chi[, gaps])."""
    return (_with_gaps(dev0, x[2:]) if len(x) > 2 else dev0).with_chi(x[1])


def _theta_jacobian(curves: list, wp: float, free_gaps: bool) -> np.ndarray:
    """d theta_w / d (omega_p, chi[, gaps]), one row per weight w, from the
    exact derivatives.

    The weight-w state moves every mode by (n - 2w) chi, and the gaps move
    the modes through the fixed cumsum-minus-mean map of _with_gaps.
    """
    n = len(curves) - 1
    d_modes = np.array([c.dtheta_dresonance(wp) for c in curves])
    cols = [[c.dtheta(wp) for c in curves],
            (n - 2 * np.arange(n + 1)) * d_modes.sum(axis=1)]
    if free_gaps:
        m = d_modes.shape[1]
        lower = np.tri(m, m - 1, -1)
        cols.append(d_modes @ (lower - lower.mean(axis=0)))
    return np.column_stack(cols)


def _jacobian(curves: list, wp: float, free_gaps: bool, th=None) -> np.ndarray:
    """d residuals / d (omega_p, chi[, gaps]); given the phases ``th`` at wp,
    also the gradient of the contrast row cos(delta_theta/2)."""
    d_theta = _theta_jacobian(curves, wp, free_gaps)
    jac = d_theta[:-2] - d_theta[2:]
    if th is None:
        return jac
    half = 0.5 * (th[0] - th[1])
    return np.vstack([jac, -0.5 * math.sin(half) * (d_theta[0] - d_theta[1])])


def _gauss_newton(dev0: ParityDevice, x: np.ndarray, band, chi_range, tol,
                  contrast: bool = False):
    """Damped Gauss-Newton on x = (omega_p, chi[, gaps]) of dev0.

    With ``contrast`` the residuals gain a last row cos(delta_theta/2),
    zero at delta_theta = pi.  Returns the last accepted point and its
    residuals; the caller decides whether max|r| is good enough.
    """
    lo, hi = band

    def evaluate(x):
        curves = _weight_curves(_device(dev0, x))
        th = _thetas(curves, x[0])
        r = _residuals(th)
        if contrast:
            r = np.append(r, math.cos(0.5 * (th[0] - th[1])))
        return curves, th, r

    curves, th, r = evaluate(x)
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(r)) < tol:
            break
        jac = _jacobian(curves, x[0], len(x) > 2, th if contrast else None)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-10:
            xn = x + lam * step
            if (lo < xn[0] < hi and chi_range[0] * 0.2 < xn[1] < chi_range[1] * 5.0
                    and np.all(xn[2:] > 0.0)):
                curves_n, th_n, r_n = evaluate(xn)
                if np.linalg.norm(r_n) < np.linalg.norm(r):
                    break
            lam *= 0.5
        else:
            break
        x, curves, th, r = xn, curves_n, th_n, r_n
    return x, r


def _grid_candidates(dev0: ParityDevice, band, chi_grid, wp_points, top_k=12):
    """Local minima of the residual norm on the (omega_p, chi) grid."""
    lo, hi = band
    wps = np.linspace(lo, hi, wp_points)
    norm = np.empty((len(chi_grid), len(wps)))
    for i, chi in enumerate(chi_grid):
        r = eraser_residuals(dev0.with_chi(chi), wps)
        norm[i] = np.sqrt((r ** 2).sum(axis=0))
    cands = []
    for i in range(len(chi_grid)):
        for j in range(len(wps)):
            v = norm[i, j]
            if v >= GRID_FAIL_NORM:
                continue
            neigh = norm[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
            if v <= neigh.min():
                cands.append((v, float(wps[j]), float(chi_grid[i])))
    cands.sort(key=lambda t: (t[0], t[1]))
    flat = np.unravel_index(np.argmin(norm), norm.shape)
    best_cell = (float(norm[flat]), float(wps[flat[1]]), float(chi_grid[flat[0]]))
    return cands[:top_k], best_cell


def _assemble(roots: list, tol: float) -> EraserSolution:
    """Dedupe verified (omega_p, device) roots, rank them by
    distinguishability, build the solution."""
    distinct = []
    for wp, dev in roots:
        if not any(abs(wp - w2) < TWO_PI * 1e4
                   and abs(dev.chi - d2.chi) < TWO_PI * 1e3 for w2, d2 in distinct):
            distinct.append((wp, dev))
    scored = []
    for wp, dev in distinct:
        th0, th1 = (weight_phase_curve(dev, w).theta(wp) for w in (0, 1))
        dth = float(wrap_phase(th0 - th1))
        scored.append((abs(math.sin(0.5 * dth)), wp, dev, dth))
    scored.sort(key=lambda t: (-t[0], t[1]))
    _, wp, dev, _ = scored[0]
    sol = make_solution(dev, wp, basins=[(w, d.chi, dth) for _, w, d, dth in scored])
    if min(abs(wrap_phase(t)) for t in sol.theta_by_weight) < 10.0 * tol:
        raise PoleCollision(
            f"solution at omega_p={wp:.6e} sits within {10 * tol:.1e} rad "
            "of a reflection pole"
        )
    return sol


def _solve_conditions(dev0: ParityDevice, band, chi_range, tol, grid_points,
                      free_gaps: bool):
    """n >= 2: grid basins, Gauss-Newton onto the root set, then _assemble.

    x = (omega_p, chi[, gaps]), the gaps starting at the template's spacing.
    When the unknowns outnumber the n - 1 conditions the roots form a
    family; a second Gauss-Newton from each root adds cos(delta_theta/2) = 0,
    the best score _assemble can rank, and both roots compete.  A basin
    whose contrast root verifies ends the search: nothing later scores
    higher.
    """
    chi_grid = np.geomspace(chi_range[0], chi_range[1], grid_points)
    cands, best_cell = _grid_candidates(dev0, band, chi_grid, max(grid_points, 129))
    gaps0 = np.diff([mo.omega for mo in dev0.modes]) if free_gaps else []
    underdetermined = 2 + len(gaps0) > dev0.n - 1
    roots = []
    for _, wp0, chi0 in cands or [best_cell]:
        x, r = _gauss_newton(dev0, np.array([wp0, chi0, *gaps0]), band,
                             chi_range, tol)
        if np.max(np.abs(r)) >= tol:
            continue
        if underdetermined:
            xc, rc = _gauss_newton(dev0, x, band, chi_range, tol, contrast=True)
            if np.max(np.abs(rc[:-1])) < tol:
                roots.append(xc)  # ahead of x, so it outlives a near-duplicate x
        roots.append(x)
        if underdetermined and np.max(np.abs(rc)) < tol:
            break
    if not roots:
        raise NoSolution(
            f"Newton failed from every grid basin; best cell: |R|={best_cell[0]:.3f} "
            f"at f_p={best_cell[1] / TWO_PI / 1e9:.4f} GHz, "
            f"chi={best_cell[2] / TWO_PI / 1e6:.4f} MHz",
            best=best_cell,
        )
    return _assemble([(x[0], _device(dev0, x)) for x in roots], tol)


def _solve_contrast_only(dev0: ParityDevice, band, chi_range, tol, grid_points):
    """n = 1: no eraser conditions; maximize the parity contrast."""
    chi = math.sqrt(chi_range[0] * chi_range[1])
    dev = dev0.with_chi(chi)
    lo, hi = band
    wps = np.linspace(lo, hi, max(grid_points, 513))
    th0 = weight_phase_curve(dev, 0).theta(wps)
    th1 = weight_phase_curve(dev, 1).theta(wps)
    score = np.abs(np.sin(0.5 * wrap_phase(th0 - th1)))
    j = int(np.argmax(score))
    wp = float(wps[j])
    return _assemble([(wp, dev)], tol)


def solve_eraser(dev_template: ParityDevice, free=("chi",),
                 search_band: tuple[float, float] | None = None,
                 tol: float = DEFAULT_TOL,
                 chi_range: tuple[float, float] = DEFAULT_CHI_RANGE,
                 grid_points: int = 33) -> EraserSolution:
    """Find (omega_p, chi[, mode frequencies]) satisfying the parity conditions.

    ``free`` lists the searched knobs: "chi" (always) and optionally
    "mode_frequencies" (required when the condition count n-1 exceeds 2).
    When the knobs outnumber the conditions (n = 2, or freed mode
    frequencies) the returned root is the delta_theta = pi point of its
    family wherever Gauss-Newton reaches it, and ``basins`` ends at the
    first such root.  n = 1 has no conditions and maximizes the contrast
    alone.  ``grid_points`` sets the coarse-grid density per axis.  A device
    ``band`` clips the probe search band (by default one that covers every
    mode and chi in ``chi_range``).  Raises
    InfeasibleDevice / NoSolution / PoleCollision.
    """
    free = frozenset(free)
    if "chi" not in free:
        raise ValueError('free must include "chi"')
    if not free <= {"chi", "mode_frequencies"}:
        raise ValueError(f"unknown free knobs: {free - {'chi', 'mode_frequencies'}}")
    if not dev_template.equal_chi:
        raise ValueError("solve_eraser requires an equal_chi device template")
    if tol < 1e-12:
        raise ValueError("tol below achievable float accuracy")
    n, m = dev_template.n, dev_template.m
    if m < min_modes_required(n):
        raise InfeasibleDevice(
            f"{n}-qubit parity needs the phase to wind through at least "
            f"{n}*pi: {min_modes_required(n)} modes required, device has {m}"
        )
    if search_band is None:
        search_band = _default_search_band(dev_template, chi_range[1])
    if dev_template.band is None:
        dev_template = replace(
            dev_template,
            band=_solver_band(dev_template, chi_range, search_band),
        )
    else:
        clipped = (max(search_band[0], dev_template.band[0]),
                   min(search_band[1], dev_template.band[1]))
        if not clipped[0] < clipped[1]:
            dev_ghz, search_ghz = (f"{a / TWO_PI / 1e9:.6g}-{b / TWO_PI / 1e9:.6g} GHz"
                                   for a, b in (dev_template.band, search_band))
            raise NoSolution(f"the device band {dev_ghz} misses the probe "
                             f"search band {search_ghz}")
        search_band = clipped

    if n == 1:
        return _solve_contrast_only(dev_template, search_band, chi_range,
                                    tol, grid_points)
    free_gaps = "mode_frequencies" in free
    if n - 1 > 2 and not free_gaps:
        raise NoSolution(
            f"{n - 1} conditions with only (omega_p, chi) free; "
            'add "mode_frequencies" to free'
        )
    return _solve_conditions(dev_template, search_band, chi_range, tol,
                             grid_points, free_gaps)


# ----------------------------------------------------------------------
# Serialization (consumed by the CLI)
# ----------------------------------------------------------------------

def solution_to_dict(sol: EraserSolution) -> dict:
    dev = sol.device
    return {
        "f_p_Hz": sol.omega_p / TWO_PI,
        "omega_p_rad_s": sol.omega_p,
        "chi_Hz": sol.chi / TWO_PI,
        "chi_rad_s": sol.chi,
        "chi_convention": "quoted MHz values are chi/2pi (ordinary frequency)",
        "mode_f_Hz": [mo.omega / TWO_PI for mo in dev.modes],
        "mode_omega_rad_s": [mo.omega for mo in dev.modes],
        "band_rad_s": list(dev.band) if dev.band is not None else None,
        "theta_by_weight_rad": list(sol.theta_by_weight),
        "theta_by_weight_deg": [math.degrees(t) for t in sol.theta_by_weight],
        "residuals_rad": list(sol.residuals),
        "delta_theta_rad": sol.delta_theta,
        "delta_theta_deg": math.degrees(sol.delta_theta),
        "low_contrast": bool(abs(sol.delta_theta) < math.pi / 6.0),
        "dispersion_b_s": sol.dispersion_b,
        "dispersion_b2_s2": sol.dispersion_b2,
        "basins": [
            {"f_p_Hz": w / TWO_PI, "chi_Hz": c / TWO_PI,
             "delta_theta_deg": math.degrees(d)}
            for w, c, d in sol.basins
        ],
        # bare vs loaded resonances: the coupling caps pull the poles, so
        # both bookkeepings are reported
        "loaded_poles_by_weight_Hz": {
            str(w): [p / TWO_PI for p in loaded_poles(
                dev, QubitState.of_weight(dev.n, w))]
            for w in range(dev.n + 1)
        },
    }
