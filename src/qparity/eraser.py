"""Quantum-eraser condition solver: probe frequency and dispersive coupling.

For an n-qubit equal-coupling device the parity conditions require, at the
probe frequency, theta_wt(i) = theta_wt(i+2) + 2*pi for every weight pair
two apart: n-1 residuals.  Every n >= 1 takes one path.  Near the probe
each branch's susceptance is one pole at its series zero, B ~ sum_k
K_k/(omega - z_k), and a weight-w state moves each zero by (n - 2w) chi
dz_k/d omega_r.  This pole model seeds the solve.  For n = 3 with fixed
gaps, the one square case, its roots in (omega_p, chi) are isolated, and
the seeds are every real one in the search box: the roots of one
polynomial, the resultant of the two conditions cleared of their
denominators (on two modes a closed form; with equal couplers the probe
midway between the zeros and chi = (zero spacing)/(2 sqrt 3)).  Otherwise,
and as the fallback where no model root lies in the box or one fails to
verify, a coarse residual-norm grid over (omega_p, chi) on the model
localizes smooth basins (the landscape has 2*pi jumps at the zeros).  One
damped least-squares Newton loop serves two stages: full steps on the
model polish each seed, then steps halved down to 1e-10 on the exact
phase derivatives move x = (omega_p, chi[, gaps]) onto the root set.  A
trial step is evaluated only inside the search box and where
device._weight_rows, the screen of trial points, gives its weight rows
back, so a step the device would refuse is halved, not raised.  Every
returned root is verified by its residuals, and the most distinguishable
one (largest |sin(delta_theta/2)|) wins.

With mode frequencies freed, and always from n = 4 on (3 conditions vs 2
knobs), the mode gaps join the unknowns.  Where the unknowns outnumber
the conditions (n <= 2, or freed gaps) the roots form a family, and one
more condition, cos(delta_theta/2) = 0, makes the system square: a second
exact stage from each root goes to delta_theta = pi, the top score,
starting on the root's own fold: each point is folded once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations

import numpy as np

from .device import (ParityDevice, _loaded_zero_estimate, _rows_jets, _weight_fold,
                     _weight_rows, _weight_table, loaded_poles_by_weight)
from .network import _branch_parts, _branch_table, _divide, _series_zeros, wrap_phase

__all__ = [
    "EraserError",
    "InfeasibleDevice",
    "NoSolution",
    "PoleCollision",
    "EraserDegenerate",
    "EraserSolution",
    "min_modes_required",
    "eraser_residuals",
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
MIN_STEP = 1e-10  # exact-stage steps halve down to this fraction of the Newton step
GRID_FAIL_NORM = 1.0  # rad; model seeds above this are no basin to polish
GRID_POINTS = 33  # pole-model grid density along chi
PROBE_POINTS = 129  # pole-model grid density along omega_p
GRID_TOP_K = 12       # grid basins Gauss-Newton starts from, best first
MODEL_NEWTON_STEPS = 8  # Newton steps on the pole model from a seed
MODEL_ROOT_TOL = 1e-9  # rad; a polished model root's residuals are below this


class EraserError(Exception):
    pass


class InfeasibleDevice(EraserError):
    """Too few modes for the required phase winding, or modes too low for
    the n chi search range: its probe band would reach omega <= 0."""


class NoSolution(EraserError):
    """Search failed; .best carries the best candidate for diagnosis."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class PoleCollision(EraserError):
    """Optimum sits on top of a reflection pole."""


class EraserDegenerate(EraserError):
    """Even and odd parities are indistinguishable (delta_theta = 0)."""


@dataclass(frozen=True, init=False)
class EraserSolution:
    """A solved operating point: its device, its probe and the one jets fold
    there.  solve_eraser returns a verified root of the parity conditions,
    and cascade.tune_cascade the tuned one-qubit cascade cavity.

    ``device`` is the solved device (final chi and mode frequencies);
    ``basins`` lists every distinct verified root found, as tuples of
    (omega_p, chi, delta_theta), best first.  ``jets`` is
    _weight_fold(device, omega_p, jets=True), taken from a caller that
    holds it or folded once here; the per-weight phases, residuals,
    contrast and dispersion are read from it, and chi is the device's.
    replace() of the device or omega_p folds again, so no solution
    disagrees with its own device.
    """

    device: ParityDevice
    omega_p: float
    chi: float = field(init=False)
    theta_by_weight: tuple = field(init=False)
    residuals: tuple = field(init=False)
    delta_theta: float = field(init=False)
    dispersion_b: float = field(init=False)
    dispersion_b2: float = field(init=False)
    basins: tuple = ()
    jets: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, device: ParityDevice, omega_p: float, basins=(), jets=None):
        jets = _weight_fold(device, omega_p, jets=True) if jets is None else jets
        th, rep = jets[0], _dispersion(jets)
        for name, value in (
                ("device", device), ("omega_p", omega_p), ("chi", device.chi),
                ("theta_by_weight", tuple(float(t) for t in th)),
                ("residuals", tuple(float(v) for v in _residuals(th))),
                ("delta_theta", float(wrap_phase(th[0] - th[1]))),
                ("dispersion_b", rep.max_abs_first), ("dispersion_b2", rep.max_abs_second),
                ("basins", tuple(basins)), ("jets", jets)):
            object.__setattr__(self, name, value)


def min_modes_required(n: int) -> int:
    """Resonances needed for the winding the n-qubit conditions consume:
    ceil((n+1)/2).

    The conditions plus a usable contrast need the phase to vary by more
    than pi*n, and each mode contributes one 2*pi turn.  Brute-force scans
    confirm the bound is sharp: a single-mode 2-qubit device's lone residual
    asymptotes to zero from below without ever crossing it.
    """
    return (n + 2) // 2


def _residuals(th: np.ndarray) -> np.ndarray:
    """theta_wt(i) - theta_wt(i+2) - 2*pi from the per-weight phases."""
    return th[:-2] - th[2:] - TWO_PI


def eraser_residuals(dev: ParityDevice, omega_p) -> np.ndarray:
    """theta_wt(i) - theta_wt(i+2) - 2*pi for i = 0..n-2 (n-1 entries), at
    one probe frequency or, row by row, along an array of them."""
    return _residuals(_weight_fold(dev, omega_p))


def contrast(sol: EraserSolution) -> float:
    """delta_theta = wrap(theta_even - theta_odd) in (-pi, pi] from the
    solution's own fold, refused (EraserDegenerate) below 1e-9 rad."""
    return _contrast(sol.theta_by_weight)


def _contrast(th) -> float:
    """wrap(th[0] - th[1]) from per-weight phases, refused (EraserDegenerate)
    below 1e-9 rad."""
    d = wrap_phase(th[0] - th[1])
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


def _dispersion(jets) -> DispersionReport:
    """The report from every weight's jets at the probe (device._weight_fold)."""
    d1, d2 = jets[1].tolist(), jets[2].tolist()
    pairs = _same_parity_pairs(len(d1) - 1)
    return DispersionReport(
        first={p: d1[p[0]] - d1[p[1]] for p in pairs},
        second={p: d2[p[0]] - d2[p[1]] for p in pairs},
    )


def dispersion_report(sol: EraserSolution) -> DispersionReport:
    """First/second phase-derivative mismatches among same-parity weights
    of the solution's device at its probe frequency, from the exact
    derivatives of the solution's own fold (finite at loaded poles, so no
    point is refused)."""
    return _dispersion(sol.jets)


# ----------------------------------------------------------------------
# Solver internals
# ----------------------------------------------------------------------

def _solver_band(dev: ParityDevice, chi_range) -> tuple[tuple, tuple[float, float]]:
    """(probe search band, evaluation band).  The search band covers every
    mode and every chi in chi_range.  The wider evaluation band is the
    solution's stored window: its band_rad_s, where its loaded poles are
    searched, and where fidelity checks omega_p; solver points read no band."""
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


def _gap_frequencies(mean: float, gaps) -> list:
    """Mode frequencies spaced by ``gaps`` about the mode mean ``mean``, on
    Python floats: cumsum offsets less their np.mean (which adds up to 7
    terms in order, more pairwise), bit for bit."""
    offs = [0.0, *accumulate(gaps)]
    mid = sum(offs) / len(offs) if len(offs) < 8 else float(np.mean(offs))
    return [mean + (o - mid) for o in offs]


@functools.cache
def _gap_map(m: int) -> np.ndarray:
    """d (mode frequencies)/d gaps, the cumsum-minus-mean map of
    _gap_frequencies, built once per m (read-only)."""
    lower = np.tri(m, m - 1, -1)
    gap_map = lower - lower.mean(axis=0)
    gap_map.flags.writeable = False
    return gap_map


def _jacobian(jets, free_gaps: bool, contrast: bool = False) -> np.ndarray:
    """d residuals / d (omega_p, chi[, gaps]) from every weight's jets at the
    probe (device._weight_fold); with ``contrast`` also the gradient of the
    contrast row cos(delta_theta/2).

    The weight-w state moves every mode by (n - 2w) chi, and the gaps move
    the modes through the fixed cumsum-minus-mean map of _gap_frequencies.
    """
    n = len(jets[0]) - 1
    d_modes = np.ascontiguousarray(jets[3].T)  # rows by weight, summed along a row
    cols = [jets[1], (n - 2 * np.arange(n + 1)) * d_modes.sum(axis=1)]
    if free_gaps:
        cols.append(d_modes @ _gap_map(d_modes.shape[1]))
    d_theta = np.column_stack(cols)  # d theta_w / d x, one row per weight
    jac = d_theta[:-2] - d_theta[2:]
    if not contrast:
        return jac
    half = 0.5 * (jets[0][0] - jets[0][1])
    return np.vstack([jac, -0.5 * math.sin(half) * (d_theta[0] - d_theta[1])])


def _newton(evaluate, start, iterations: int, tol: float, shortest: float):
    """Damped least-squares Newton, the one Newton loop of both stages.

    evaluate(x) gives None for a point outside the caller's domain, else
    the residuals r, a callable for d r/d x and what the caller keeps of x;
    ``start`` is (x, r, jacobian, kept), read by the caller, unscreened.  A
    trial point is taken if it lies in the domain and lowers |r|, its step
    halved from 1 while at least ``shortest`` and the trial point differs
    from x (rounding is monotone: no shorter step leaves x either).  Stops
    after ``iterations`` steps, at max|r| < tol (tol 0: never), when no step
    is taken or lstsq fails; returns the last x taken, its residuals and
    what was kept.
    """
    x, r, jacobian, kept = start
    norm = np.linalg.norm(r)
    for _ in range(iterations):
        if tol > 0.0 and all(abs(v) < tol for v in r.tolist()):  # max|r| < tol; nan: no
            break
        try:
            step, *_ = np.linalg.lstsq(jacobian(), -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        # step is lam times the Newton step: halving is exact.  A trial that
        # rounds back to x would be rejected, as would every shorter one
        while lam >= shortest and ((xn := x + step) != x).any():
            if (trial := evaluate(xn)) is not None:
                r_n, jacobian_n, kept_n = trial
                if (norm_n := np.linalg.norm(r_n)) < norm:
                    break
            lam, step = 0.5 * lam, 0.5 * step
        else:
            break
        x, r, norm, jacobian, kept = xn, r_n, norm_n, jacobian_n, kept_n
    return x, r, kept


def _point_device(dev0: ParityDevice, mean: float, x) -> ParityDevice:
    """dev0 at x: chi x[1], the modes spaced by x[2:] about ``mean``."""
    dev = dev0.with_chi(x[1])
    if len(x) > 2:
        dev = dev.with_mode_frequencies(_gap_frequencies(mean, x[2:].tolist()))
    return dev


def _exact_stage(dev0: ParityDevice, mean: float, band, chi_range, contrast: bool = False):
    """(evaluate, point) of _newton on the exact phase in x = (omega_p,
    chi[, gaps]) of dev0: each point one jets fold (device._rows_jets) of
    its weight rows (device._weight_rows), its modes respaced once about
    ``mean``, the template's mode mean, and its jets kept; ``contrast`` adds
    a last residual cos(delta_theta/2).  point(x) reads a start, in the box
    or not, refused as its device is where it has no rows; point(x, jets) a
    fold the caller holds.  evaluate(x) keeps omega_p in ``band`` and chi in
    (chi_range/5, 5 chi_range) and folds exactly the rows it gets back: with
    none, the device would refuse x, and its step is halved."""
    fixed, n = [mo.omega for mo in dev0.modes], dev0.n

    def rows(x):
        wp, chi, *gaps = x.tolist()
        return wp, chi, _weight_rows(_gap_frequencies(mean, gaps) if gaps else fixed, chi, n)

    def point(x, jets=None):
        if jets is None:
            wp, _, pulled = rows(x)
            if pulled is None:
                _weight_table(_point_device(dev0, mean, x))  # raises, naming the refusal
            jets = _rows_jets(dev0, pulled, wp)
        r = _residuals(jets[0])
        if contrast:
            r = np.append(r, math.cos(0.5 * (jets[0][0] - jets[0][1])))
        return r, lambda: _jacobian(jets, len(x) > 2, contrast), jets

    def evaluate(x):
        wp, chi, pulled = rows(x)
        if (band[0] < wp < band[1] and chi_range[0] * 0.2 < chi < chi_range[1] * 5.0
                and pulled is not None):
            return point(x, _rows_jets(dev0, pulled, wp))
        return None

    return evaluate, point


def _pole_model(dev: ParityDevice):
    """(z_k, z0 K_k, zeta_k) per branch of dev's bare modes: the series zero
    z_k, the residue K_k of the branch susceptance B_k ~ K_k/(omega - z_k)
    there, and zeta_k = dz_k/d omega_r.

    With B_k = P_k/N_k (see _branch_parts), K_k = P_k/N_k' and, as N_k
    stays zero along the zero, zeta_k = -(dN_k/d omega_r)/N_k'.  The branch
    table is PhaseCurve's (network._branch_table), and the zeros are the
    branches' own on the fundamental (network._series_zeros).
    """
    stub = dev.resonator_model == "stub"
    table = _branch_table(stub, dev.z0, [mo.c_couple for mo in dev.modes],
                          [mo.omega for mo in dev.modes])
    z = np.array(_series_zeros(stub, dev.z0, [(branch, 0) for branch in table.tolist()]))
    p, n_jet = _branch_parts(stub, dev.z0, table.T, z, derivatives=True)
    return np.array([z, dev.z0 * p[0] / n_jet[1], -n_jet[3] / n_jet[1]])


def _model_thetas(model, n: int, wp, chi):
    """Pole-model phases theta_w, w = 0..n, at broadcast (wp, chi), in numpy,
    every weight in one pass along a leading weight axis, in buffers
    allocated once: weight w moves zero k to z_k + (n - 2w) chi zeta_k, and
    theta_w = -2 atan(z0 sum_k K_k/(omega - z_k)) - 2 pi #{z_k <= omega}."""
    shape = (n + 1, *np.broadcast(wp, chi).shape)
    shift = (n - 2 * np.arange(n + 1)).reshape(-1, *[1] * (len(shape) - 1))
    y, passed, offset, above = (np.zeros(shape), np.zeros(shape), np.empty(shape),
                                np.empty(shape, dtype=bool))
    with np.errstate(all="ignore"):  # on a zero y = +-inf, atan's limit
        for z, z0k, zeta in zip(*model):
            np.subtract(wp, z + shift * chi * zeta, out=offset)
            passed += np.greater_equal(offset, 0.0, out=above)
            y += np.divide(z0k, offset, out=offset)
    np.arctan(y, out=y)
    y *= -2.0
    passed *= TWO_PI
    y -= passed
    return y


def _model_point(model, n: int, wp: float, chi: float):
    """(theta_w, d theta_w/d omega_p, d theta_w/d chi), w = 0..n, at one point
    for the model polish: _model_thetas' sums on Python floats, dividing as
    numpy does, then one np.arctan over every weight."""
    poles, rows, wp, chi = model.T.tolist(), [], float(wp), float(chi)
    for w in range(n + 1):
        y = passed = g_wp = g_chi = 0.0
        for z, z0k, zeta in poles:
            offset = wp - (z + (n - 2 * w) * chi * zeta)
            y = y + _divide(z0k, offset)
            passed = passed + (offset >= 0.0)
            try:
                square = offset ** 2  # libm pow, as numpy's scalar power
            except OverflowError:
                square = math.inf
            g = _divide(z0k, square)
            g_wp, g_chi = g_wp + g, g_chi + g * zeta
        gain = 2.0 / (1.0 + y * y)
        rows.append((y, passed, gain * g_wp, -gain * (n - 2 * w) * g_chi))
    y, passed, d_wp, d_chi = np.array(rows).T.copy()
    return -2.0 * np.arctan(y) - TWO_PI * passed, d_wp, d_chi


def _grid_minima(norm: np.ndarray, wps: np.ndarray, chi_grid: np.ndarray):
    """Local minima of a residual-norm grid (rows chi_grid, columns wps),
    best first, and the grid's best cell, each as (norm, omega_p, chi).

    A local minimum is a cell no larger than any cell of its 3x3 window.
    The window minimum is two passes of shifted np.minimum over the grid
    padded with inf, along rows and then along columns; np.minimum
    propagates NaN, so a NaN anywhere in a cell's window makes its minimum
    NaN, and the cell is no candidate.
    """
    padded = np.pad(norm, 1, constant_values=np.inf)
    rows = np.minimum(np.minimum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    neigh = np.minimum(np.minimum(rows[:-2], rows[1:-1]), rows[2:])
    i, j = np.nonzero((norm <= neigh) & (norm < GRID_FAIL_NORM))
    order = np.lexsort((wps[j], norm[i, j]))[:GRID_TOP_K]  # stable: row-major ties
    cands = [(float(norm[a, b]), float(wps[b]), float(chi_grid[a]))
             for a, b in zip(i[order], j[order])]
    flat = np.unravel_index(np.argmin(norm), norm.shape)
    best_cell = (float(norm[flat]), float(wps[flat[1]]), float(chi_grid[flat[0]]))
    return cands, best_cell


def _model_stage(model, n: int, band, chi_range):
    """(evaluate, point) of _newton on the pole model in x = (omega_p, chi),
    as _exact_stage's: point(x) reads a start, evaluate(x) keeps x in the
    box (omega_p in band, chi in chi_range)."""
    def point(x):
        th, d_wp, d_chi = _model_point(model, n, x[0], x[1])
        return _residuals(th), lambda: np.column_stack(
            [d_wp[:-2] - d_wp[2:], d_chi[:-2] - d_chi[2:]]), None

    def evaluate(x):
        if band[0] < x[0] < band[1] and chi_range[0] <= x[1] <= chi_range[1]:
            return point(x)
        return None

    return evaluate, point


def _real_roots(coefficients) -> np.ndarray:
    """The real roots of a polynomial (descending coefficients): those that
    np.roots gives within 1e-6 relative of the real axis."""
    roots = np.roots(coefficients)
    return roots.real[abs(roots.imag) <= 1e-6 * np.maximum(1.0, abs(roots))]


def _resultant_points(model, band) -> list:
    """(omega_p, chi) candidates for the n = 3 model roots on m >= 3 modes
    with omega_p in band, from the resultant of _model_roots, not yet
    screened."""
    z, z0k, zeta = model
    m, mid, spread = len(z), float(np.mean(z)), float(np.ptp(z))
    if not spread > 0.0:
        return []
    scaled, weight = (z - mid) / spread, z0k * zeta

    def coefficients(u):
        """P's coefficients in v, ascending, at each u: (len(u), 2m - 1)."""
        c = u[:, None] - scaled
        factors = (c * c, -2.0 * zeta * c, np.broadcast_to(-3.0 * zeta ** 2, c.shape))
        total = 0.0
        for k in range(m):
            term = np.full((len(u), 1), weight[k], dtype=c.dtype)
            for j in range(m):
                if j != k:  # term times c_j^2 - 2 zeta_j c_j v - 3 zeta_j^2 v^2
                    wider = np.zeros((len(u), term.shape[1] + 2), dtype=c.dtype)
                    for p, factor in enumerate(factors):
                        wider[:, p:p + term.shape[1]] += term * factor[:, j, None]
                    term = wider
            total = total + term
        return total

    size, degree = 2 * m - 3, (m - 1) * (2 * m - 3)
    circle = np.exp(2j * math.pi * np.arange(degree + 1) / (degree + 1))
    parts = coefficients(circle)
    sylvester = np.zeros((degree + 1, size, size), dtype=complex)
    for i in range(m - 2):
        sylvester[:, i, i:i + m] = parts[:, -1::-2]  # E, descending in t
    for i in range(m - 1):
        sylvester[:, m - 2 + i, i:i + m - 1] = parts[:, -2::-2]  # O, descending in t
    resultant = np.vander(circle.conj(), increasing=True).T @ np.linalg.det(sylvester)
    us = _real_roots(resultant.real[::-1])
    us = us[((band[0] - mid) / spread < us) & (us < (band[1] - mid) / spread)]
    return [(mid + spread * u, spread * math.sqrt(t))
            for u, row in zip(us.tolist(), coefficients(us).real)
            for t in _real_roots(row[-2::-2]).tolist() if t > 0.0]


def _same_root(x, y) -> bool:
    """Whether roots x and y, (omega_p, chi, ...), are one: within 10 kHz
    in omega_p and 1 kHz in chi."""
    return abs(x[0] - y[0]) < TWO_PI * 1e4 and abs(x[1] - y[1]) < TWO_PI * 1e3


def _model_roots(model, band, chi_range) -> list:
    """Every real root (omega_p, chi) of the n = 3 pole-model conditions
    with omega_p in band and chi in chi_range, polished by full _newton
    steps on the model (_model_stage) down to MIN_TOL, one per _same_root,
    by ascending omega_p.

    In u = (omega_p - z_mean)/g and v = chi/g, g the zeros' spread, the
    pair (0, 2) condition y_0 = y_2 of _model_thetas is P(u, v) = 0, with
    P = sum_k A_k prod_{j != k} (u - u_j - 3 v zeta_j)(u - u_j + v zeta_j),
    u_j the scaled zeros and A_k = z0 K_k zeta_k; the pair (1, 3) condition
    is P(u, -v) = 0.  So the even and odd parts of P in v, E(u, t) and
    O(u, t) with t = v^2, vanish together, and their resultant in t (a
    Sylvester determinant of size 2m - 3) is one polynomial in u of degree
    at most (m - 1)(2m - 3), read off its values on the unit circle and
    solved by np.roots; each real u in the box gives t from O.  On m = 2,
    O is linear in u and free of t, and E linear in t: the closed form
    omega_p = z_0 + K_0 (z_1 - z_0)/(K_0 + K_1) and
    chi = |z_1 - z_0| sqrt(K_0 K_1/(3 zeta_0 zeta_1))/|K_0 + K_1|,
    on symmetric devices the midpoint and (zero spacing)/(2 sqrt 3 zeta).
    A candidate is a root where the model's residual norm is below
    GRID_FAIL_NORM and, polished, its residuals below MODEL_ROOT_TOL: that
    enforces the zero counts (a count off by one leaves 2 pi) and drops the
    points that clearing the denominators added, where some y_w has a pole.
    """
    if len(model[0]) == 2:
        (z_0, z_1), (k_0, k_1), (s_0, s_1) = model.tolist()
        ratio = k_0 * k_1 / (3.0 * s_0 * s_1)
        points = [(z_0 + k_0 * (z_1 - z_0) / (k_0 + k_1),
                   abs(z_1 - z_0) * math.sqrt(ratio) / abs(k_0 + k_1))] if ratio > 0.0 else []
    else:
        points = _resultant_points(model, band)
    evaluate, _ = _model_stage(model, 3, band, chi_range)
    roots = []
    for wp, chi in points:
        x = np.array([wp, chi])
        start = evaluate(x)  # None outside the box
        if start is None or not np.linalg.norm(start[0]) < GRID_FAIL_NORM:  # a count off: 2 pi
            continue
        x, r, _ = _newton(evaluate, (x, *start), MODEL_NEWTON_STEPS, MIN_TOL, 1.0)
        root = tuple(x.tolist())
        if np.max(np.abs(r)) < MODEL_ROOT_TOL and not any(_same_root(root, y) for y in roots):
            roots.append(root)
    return sorted(roots)


def _seeds(dev0: ParityDevice, band, chi_range, square: bool):
    """Seeds of the exact stage as (model residual norm, omega_p, chi), and
    the grid's best cell (None without a grid).

    ``square`` (n = 3, fixed gaps): every real pole-model root in the box
    (_model_roots), its norm taken as 0.  Else the local minima of the
    model's residual norm on a GRID_POINTS x PROBE_POINTS grid over the
    box, best first, each polished by full _newton steps on the model
    (_model_stage) where there are conditions and no gaps to free (n = 2,
    3); with no conditions (n = 1) the contrast row's |cos(delta_theta/2)|.
    """
    model, n = _pole_model(dev0), dev0.n
    if square:
        return [(0.0, wp, chi) for wp, chi in _model_roots(model, band, chi_range)], None
    chi_grid = np.geomspace(chi_range[0], chi_range[1], GRID_POINTS)
    wps = np.linspace(band[0], band[1], PROBE_POINTS)
    th = _model_thetas(model, n, wps[None, :], chi_grid[:, None])
    r = _residuals(th) if n > 1 else np.cos(0.5 * (th[:1] - th[1:]))
    cands, best_cell = _grid_minima(np.sqrt((r ** 2).sum(axis=0)), wps, chi_grid)
    # n = 1 has no conditions to polish; n > 3 needs the gaps, which the grid holds
    if 2 <= n <= 3:
        evaluate, point = _model_stage(model, n, band, chi_range)

        def polish(x):
            return _newton(evaluate, (x, *point(x)), MODEL_NEWTON_STEPS, 0.0, 1.0)[0].tolist()

        cands = [(v, *polish(np.array([wp, chi]))) for v, wp, chi in cands]
    return cands, best_cell


def _assemble(dev0: ParityDevice, mean: float, roots: list, tol: float) -> EraserSolution:
    """Dedupe verified roots (x, its jets) of dev0 (_same_root), rank them by
    distinguishability from their jets, build the winner's solution from its
    jets, its modes about ``mean``.  Its omega_p and every basin's are
    Python floats, as a solution read from a file holds."""
    scored = []
    for x, jets in roots:
        if not any(_same_root(x, x2) for *_, x2, _ in scored):
            dth = float(wrap_phase(jets[0][0] - jets[0][1]))
            scored.append((abs(math.sin(0.5 * dth)), float(x[0]), dth, x, jets))
    scored.sort(key=lambda t: (-t[0], t[1]))
    _, wp, _, x, jets = scored[0]
    sol = EraserSolution(_point_device(dev0, mean, x), wp,
                         [(w, float(x2[1]), dth) for _, w, dth, x2, _ in scored], jets)
    if min(abs(wrap_phase(t)) for t in sol.theta_by_weight) < 10.0 * tol:
        raise PoleCollision(
            f"solution at omega_p={wp:.6e} sits within {10 * tol:.1e} rad "
            "of a reflection pole"
        )
    return sol


def _solve_conditions(dev0: ParityDevice, band, chi_range, tol, free_gaps: bool):
    """Pole-model seeds, the exact stage onto the root set, then _assemble.

    For n = 3 with fixed gaps the seeds are the model's roots in the box;
    where there is none, or the exact stage fails from one, the grid's
    seeds join them, and _assemble ranks every verified root.  The gaps
    start at the template's spacing.  Where the unknowns outnumber
    the n - 1 conditions the roots form a family; a second exact stage from
    each root, started on the root's own fold, adds cos(delta_theta/2) = 0,
    the best score _assemble ranks, and both roots compete.  It runs on to
    MIN_TOL, the fold's resolution, as delta_theta = pi is the reported
    answer; a verified contrast root ends the search, as nothing later
    scores higher.
    """
    gaps0 = np.diff([mo.omega for mo in dev0.modes]) if free_gaps else []
    underdetermined = 2 + len(gaps0) > dev0.n - 1
    mean = float(np.mean([mo.omega for mo in dev0.modes]))
    evaluate, point = _exact_stage(dev0, mean, band, chi_range)
    evaluate_c, point_c = _exact_stage(dev0, mean, band, chi_range, contrast=True)
    roots = []

    def descend(seeds) -> bool:
        """The exact stage from each seed, its verified roots into roots;
        False if some seed verifies no root."""
        verified = True
        for _, wp0, chi0 in seeds:
            x0 = np.array([wp0, chi0, *gaps0])
            x, r, jets = _newton(evaluate, (x0, *point(x0)), NEWTON_MAX_ITER, tol, MIN_STEP)
            if np.max(np.abs(r), initial=0.0) >= tol:
                verified = False
                continue
            if underdetermined:
                xc, rc, jets_c = _newton(evaluate_c, (x, *point_c(x, jets)), NEWTON_MAX_ITER,
                                         MIN_TOL, MIN_STEP)
                if np.max(np.abs(rc[:-1]), initial=0.0) < tol:
                    roots.append((xc, jets_c))  # ahead of x: it outlives a near-duplicate x
            roots.append((x, jets))
            if underdetermined and np.max(np.abs(rc)) < tol:
                break
        return verified

    square = dev0.n == 3 and not free_gaps
    seeds = _seeds(dev0, band, chi_range, square=True)[0] if square else []
    if not (seeds and descend(seeds)):  # no model root, or one failed: the grid joins
        cands, best_cell = _seeds(dev0, band, chi_range, square=False)
        descend(cands or [best_cell])
    if not roots:
        raise NoSolution(
            f"Newton failed from every pole-model seed; best cell: "
            f"|R|={best_cell[0]:.3f} "
            f"at f_p={best_cell[1] / TWO_PI / 1e9:.4f} GHz, "
            f"chi={best_cell[2] / TWO_PI / 1e6:.4f} MHz",
            best=best_cell,
        )
    return _assemble(dev0, mean, roots, tol)


def solve_eraser(dev_template: ParityDevice, free=("chi",),
                 tol: float = DEFAULT_TOL,
                 chi_range: tuple[float, float] = DEFAULT_CHI_RANGE) -> EraserSolution:
    """Find (omega_p, chi[, mode frequencies]) satisfying the parity conditions.

    ``free`` lists the searched knobs: "chi" (always) and optionally
    "mode_frequencies"; the mode gaps are freed regardless from n = 4 on,
    where the n-1 conditions outnumber (omega_p, chi).
    When the knobs outnumber the conditions (n <= 2, or freed mode
    frequencies) the returned root is the delta_theta = pi point of its
    family wherever Gauss-Newton reaches it, and ``basins`` ends at the
    first such root; n = 1 has no conditions, so its root is that point.
    ``tol`` (rad) bounds every verified residual; it must be finite and at
    least MIN_TOL.  The probe search band covers every mode and chi in
    ``chi_range``; a device ``band`` clips it.  Raises InfeasibleDevice /
    NoSolution / PoleCollision.
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
        if not eval_band[0] > 0.0:
            zero = min(_loaded_zero_estimate(mo, dev_template.z0) for mo in dev_template.modes)
            raise InfeasibleDevice(
                f"the probe search band reaches f <= 0: the lowest loaded mode zero, "
                f"{zero / TWO_PI / 1e9:.6g} GHz, lies below n x chi_MHz = {n} x "
                f"{chi_range[1] / TWO_PI / 1e6:.6g} MHz (the top of the chi range) "
                "plus the search margins")
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

    free_gaps = "mode_frequencies" in free or n - 1 > 2
    return _solve_conditions(dev_template, search_band, chi_range, tol, free_gaps)


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
