"""Quantum-eraser condition solver: probe frequency and dispersive coupling.

For an n-qubit equal-coupling device the parity conditions require, at the
probe frequency, theta_wt(i) = theta_wt(i+2) + 2*pi for every weight pair
two apart: n-1 residuals.  Every n >= 1 takes one path.  Near the probe
each branch's susceptance is one pole at its series zero, B ~ sum_k
K_k/(omega - z_k), and a weight-w state moves each zero by (n - 2w) chi
dz_k/d omega_r.  A coarse residual-norm grid over (omega_p, chi) on this
pole model localizes smooth basins (the landscape has 2*pi jumps at the
zeros), and Newton on the same model polishes each; from there a damped
Gauss-Newton iteration on the exact phase derivatives moves
x = (omega_p, chi[, gaps]) onto the root set, and every returned root is
verified by its residuals.  Among verified roots the most distinguishable
one (largest |sin(delta_theta/2)|) wins.  On two modes with equal couplers
the n = 3 model root is closed form: the probe midway between the zeros,
and chi = (zero spacing)/(2 sqrt 3).

With mode frequencies freed (the 4-qubit case needs this: 3 conditions vs
2 knobs), the mode gaps join the unknowns, starting at the template's
spacing.  Where the unknowns outnumber the conditions (n <= 2, or freed
gaps) the roots form a family, and one more condition, cos(delta_theta/2)
= 0, makes the system square: a second Gauss-Newton from each root goes to
delta_theta = pi, the maximum of the ranking score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .device import (ParityDevice, _loaded_zero_estimate, loaded_poles_by_weight,
                     weight_phase_curve)
from .network import _branch_parts, _series_zeros, lumped_equivalent, wrap_phase

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
MIN_TOL = 1e-12  # rad; residuals of the phase fold are not resolved below this
NEWTON_MAX_ITER = 30
GRID_FAIL_NORM = 1.0  # rad; grid minima above this are no basin to polish
GRID_TOP_K = 12       # grid basins Gauss-Newton starts from, best first
MODEL_NEWTON_STEPS = 8  # Newton steps on the pole model from a grid basin


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
    jets = [c._derivatives(omega_p) for c in curves]
    d1 = [float(j[0]) for j in jets]
    d2 = [float(j[1]) for j in jets]
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

def _solver_band(dev: ParityDevice, chi_range) -> tuple[tuple, tuple[float, float]]:
    """(probe search band, evaluation band).  The search band covers every
    mode and every chi in chi_range; the fixed evaluation band also covers
    every gap rescaling the free-mode search may try."""
    freqs = [mo.omega for mo in dev.modes]
    span = (max(freqs) - min(freqs)) if len(freqs) > 1 else 0.0
    spread = dev.n * chi_range[1]
    search = (min(_loaded_zero_estimate(mo, dev.z0) for mo in dev.modes) - spread,
              max(freqs) + spread)
    pad = 0.005 * min(freqs) + spread + 1.5 * span
    lo = search[0] - pad
    hi = search[1] + spread + pad
    # 12-significant-digit values survive the serialized-solution round trip
    return search, (float(f"{lo:.12g}"), float(f"{hi:.12g}"))


def _gap_frequencies(dev: ParityDevice, gaps) -> np.ndarray:
    """dev's mode frequencies respaced by ``gaps`` about their mean."""
    center = float(np.mean([mo.omega for mo in dev.modes]))
    offs = np.concatenate([[0.0], np.cumsum(gaps)])
    offs -= offs.mean()
    return center + offs


def _with_gaps(dev: ParityDevice, gaps) -> ParityDevice:
    """dev with its modes respaced by ``gaps`` about their mean frequency."""
    return dev.with_mode_frequencies(_gap_frequencies(dev, gaps))


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
    jets = [c._derivatives(wp) for c in curves]
    d_modes = np.array([j[2] for j in jets])
    cols = [[float(j[0]) for j in jets],
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
        if np.max(np.abs(r), initial=0.0) < tol:
            break
        jac = _jacobian(curves, x[0], len(x) > 2, th if contrast else None)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        while lam > 1e-10:
            xn = x + lam * step
            # a gap below the frequencies' float spacing merges two modes
            if (lo < xn[0] < hi and chi_range[0] * 0.2 < xn[1] < chi_range[1] * 5.0
                    and np.all(np.diff(_gap_frequencies(dev0, xn[2:])) > 0.0)):
                curves_n, th_n, r_n = evaluate(xn)
                if np.linalg.norm(r_n) < np.linalg.norm(r):
                    break
            lam *= 0.5
        else:
            break
        x, curves, th, r = xn, curves_n, th_n, r_n
    return x, r


def _pole_model(dev: ParityDevice):
    """(z_k, z0 K_k, zeta_k) per branch of dev's bare modes: the series zero
    z_k, the residue K_k of the branch susceptance B_k ~ K_k/(omega - z_k)
    there, and zeta_k = dz_k/d omega_r.

    With B_k = P_k/N_k (see _branch_parts), K_k = P_k/N_k' and, as N_k
    stays zero along the zero, zeta_k = -(dN_k/d omega_r)/N_k'.  The zeros
    are the branches' own on the fundamental (network._series_zeros).
    """
    stub = dev.resonator_model == "stub"
    table = np.array([(mo.c_couple, mo.omega) if stub
                      else (mo.c_couple, *lumped_equivalent(mo.omega, dev.z0))
                      for mo in dev.modes]).T
    z = _series_zeros(stub, dev.z0, table)
    p, n_jet = _branch_parts(stub, dev.z0, table, z, derivatives=True)
    return np.array([z, dev.z0 * p[0] / n_jet[1], -n_jet[3] / n_jet[1]])


def _model_thetas(model, n: int, wp, chi, slopes: bool = False):
    """Pole-model phases theta_w, w = 0..n, at broadcast (wp, chi): weight w
    moves zero k to z_k + (n - 2w) chi zeta_k, and
    theta_w = -2 atan(z0 sum_k K_k/(omega - z_k)) - 2 pi #{z_k <= omega}.
    With ``slopes`` also d theta_w/d omega_p and d theta_w/d chi."""
    th, d_wp, d_chi = [], [], []
    for w in range(n + 1):
        y = passed = g_wp = g_chi = 0.0
        with np.errstate(all="ignore"):  # on a zero y = +-inf, atan's limit
            for z, z0k, zeta in zip(*model):
                offset = wp - (z + (n - 2 * w) * chi * zeta)
                y = y + z0k / offset
                passed = passed + (offset >= 0.0)
                if slopes:
                    g = z0k / offset ** 2
                    g_wp, g_chi = g_wp + g, g_chi + g * zeta
            th.append(-2.0 * np.arctan(y) - TWO_PI * passed)
            if slopes:
                gain = 2.0 / (1.0 + y * y)
                d_wp.append(gain * g_wp)
                d_chi.append(-gain * (n - 2 * w) * g_chi)
    if slopes:
        return np.array(th), np.array(d_wp), np.array(d_chi)
    return np.array(th)


def _model_newton(model, n: int, wp: float, chi: float, box):
    """Newton on the pole model's n - 1 conditions from (wp, chi), least
    squares where they are not square; each step must lower |r| and stay in
    ``box`` = ((omega_p lo, hi), (chi lo, hi))."""
    (lo, hi), (chi_lo, chi_hi) = box
    th, d_wp, d_chi = _model_thetas(model, n, wp, chi, slopes=True)
    r = _residuals(th)
    for _ in range(MODEL_NEWTON_STEPS):
        jac = np.column_stack([d_wp[:-2] - d_wp[2:], d_chi[:-2] - d_chi[2:]])
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        wp_n, chi_n = wp + step[0], chi + step[1]
        if not (lo < wp_n < hi and chi_lo <= chi_n <= chi_hi):
            break
        th, d_wp, d_chi = _model_thetas(model, n, wp_n, chi_n, slopes=True)
        r_n = _residuals(th)
        if not np.linalg.norm(r_n) < np.linalg.norm(r):
            break
        wp, chi, r = wp_n, chi_n, r_n
    return float(wp), float(chi)


def _grid_minima(norm: np.ndarray, wps: np.ndarray, chi_grid: np.ndarray):
    """Local minima of a residual-norm grid (rows chi_grid, columns wps),
    best first, and the grid's best cell, each as (norm, omega_p, chi)."""
    # a NaN anywhere in a cell's 3x3 window makes its minimum NaN: no candidate
    neigh = np.lib.stride_tricks.sliding_window_view(
        np.pad(norm, 1, constant_values=np.inf), (3, 3)).min(axis=(2, 3))
    i, j = np.nonzero((norm <= neigh) & (norm < GRID_FAIL_NORM))
    order = np.lexsort((wps[j], norm[i, j]))[:GRID_TOP_K]  # stable: row-major ties
    cands = [(float(norm[a, b]), float(wps[b]), float(chi_grid[a]))
             for a, b in zip(i[order], j[order])]
    flat = np.unravel_index(np.argmin(norm), norm.shape)
    best_cell = (float(norm[flat]), float(wps[flat[1]]), float(chi_grid[flat[0]]))
    return cands, best_cell


def _grid_candidates(dev0: ParityDevice, band, chi_grid, wp_points):
    """Local minima of the pole model's residual norm on the (omega_p, chi)
    grid, best first, each polished by Newton on the model; with no
    conditions (n = 1) the contrast row's |cos(delta_theta/2)|."""
    model = _pole_model(dev0)
    n = dev0.n
    wps = np.linspace(band[0], band[1], wp_points)
    th = _model_thetas(model, n, wps[None, :], chi_grid[:, None])
    r = _residuals(th) if n > 1 else np.cos(0.5 * (th[:1] - th[1:]))
    cands, best_cell = _grid_minima(np.sqrt((r ** 2).sum(axis=0)), wps, chi_grid)
    # n = 1 has no conditions to polish; n > 3 needs the gaps, which the grid holds
    if 2 <= n <= 3:
        box = (band, (chi_grid[0], chi_grid[-1]))
        cands = [(v, *_model_newton(model, n, wp, chi, box)) for v, wp, chi in cands]
    return cands, best_cell


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
    """Pole-model seeds, Gauss-Newton onto the root set, then _assemble.

    x = (omega_p, chi[, gaps]), the gaps starting at the template's spacing.
    When the unknowns outnumber the n - 1 conditions (n <= 2, or freed gaps)
    the roots form a family; a second Gauss-Newton from each root adds
    cos(delta_theta/2) = 0, the best score _assemble can rank, and both
    roots compete.  That one runs on to MIN_TOL: the conditions need only
    tol, but delta_theta = pi is the reported answer, and Newton's last
    step takes it to the fold's resolution.  A basin whose contrast root
    verifies ends the search: nothing later scores higher.
    """
    chi_grid = np.geomspace(chi_range[0], chi_range[1], grid_points)
    cands, best_cell = _grid_candidates(dev0, band, chi_grid, max(grid_points, 129))
    gaps0 = np.diff([mo.omega for mo in dev0.modes]) if free_gaps else []
    underdetermined = 2 + len(gaps0) > dev0.n - 1
    roots = []
    for _, wp0, chi0 in cands or [best_cell]:
        x, r = _gauss_newton(dev0, np.array([wp0, chi0, *gaps0]), band,
                             chi_range, tol)
        if np.max(np.abs(r), initial=0.0) >= tol:
            continue
        if underdetermined:
            xc, rc = _gauss_newton(dev0, x, band, chi_range, MIN_TOL, contrast=True)
            if np.max(np.abs(rc[:-1]), initial=0.0) < tol:
                roots.append(xc)  # ahead of x, so it outlives a near-duplicate x
        roots.append(x)
        if underdetermined and np.max(np.abs(rc)) < tol:
            break
    if not roots:
        raise NoSolution(
            f"Newton failed from every pole-model seed; best cell: "
            f"|R|={best_cell[0]:.3f} "
            f"at f_p={best_cell[1] / TWO_PI / 1e9:.4f} GHz, "
            f"chi={best_cell[2] / TWO_PI / 1e6:.4f} MHz",
            best=best_cell,
        )
    return _assemble([(x[0], _device(dev0, x)) for x in roots], tol)


def solve_eraser(dev_template: ParityDevice, free=("chi",),
                 tol: float = DEFAULT_TOL,
                 chi_range: tuple[float, float] = DEFAULT_CHI_RANGE,
                 grid_points: int = 33) -> EraserSolution:
    """Find (omega_p, chi[, mode frequencies]) satisfying the parity conditions.

    ``free`` lists the searched knobs: "chi" (always) and optionally
    "mode_frequencies" (required when the condition count n-1 exceeds 2).
    When the knobs outnumber the conditions (n <= 2, or freed mode
    frequencies) the returned root is the delta_theta = pi point of its
    family wherever Gauss-Newton reaches it, and ``basins`` ends at the
    first such root; n = 1 has no conditions, so its root is that point.
    ``tol`` (rad) bounds every verified residual; it must be finite and at
    least MIN_TOL.  ``grid_points`` sets the pole-model grid's density per
    axis.
    The probe search band covers every mode and chi in ``chi_range``; a
    device ``band`` clips it.  Raises
    InfeasibleDevice / NoSolution / PoleCollision.
    """
    free = frozenset(free)
    if "chi" not in free:
        raise ValueError('free must include "chi"')
    if not free <= {"chi", "mode_frequencies"}:
        raise ValueError(f"unknown free knobs: {free - {'chi', 'mode_frequencies'}}")
    if not dev_template.equal_chi:
        raise ValueError("solve_eraser requires an equal_chi device template")
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL}, got {tol!r}")
    n, m = dev_template.n, dev_template.m
    if m < min_modes_required(n):
        raise InfeasibleDevice(
            f"{n}-qubit parity needs the phase to wind through at least "
            f"{n}*pi: {min_modes_required(n)} modes required, device has {m}"
        )
    search_band, eval_band = _solver_band(dev_template, chi_range)
    if dev_template.band is None:
        dev_template = replace(dev_template, band=eval_band)
    else:
        clipped = (max(search_band[0], dev_template.band[0]),
                   min(search_band[1], dev_template.band[1]))
        if not clipped[0] < clipped[1]:
            dev_ghz, search_ghz = (f"{a / TWO_PI / 1e9:.6g}-{b / TWO_PI / 1e9:.6g} GHz"
                                   for a, b in (dev_template.band, search_band))
            raise NoSolution(f"the device band {dev_ghz} misses the probe "
                             f"search band {search_ghz}")
        search_band = clipped

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
            str(w): [p / TWO_PI for p in poles]
            for w, poles in enumerate(loaded_poles_by_weight(dev))
        },
    }
