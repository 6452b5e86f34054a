"""Reference zero and loaded-pole search for tests: the numpy bracketed Newton
qparity used before its driver and pass kernels moved to Python floats.

Every element of a search stays in every pass until the last one stops, and
each pass is elementwise numpy over all of them: the branch parts and the
fold come from jets_reference (branch_parts, reference_jets), which share no
code with qparity.network.  So a search here checks the float driver's
bracket updates, its bisection and 4-ulp stopping rules, its handling of
stopped elements, and its pass kernels' numpy and float split.
"""

from __future__ import annotations

import math

import numpy as np
from jets_reference import branch_parts, reference_jets

TWO_PI = 2.0 * math.pi
NEWTON_PASSES = 64


def bracketed_newton(f, x, lo, hi):
    """Root of a falling f in each element's bracket (lo, hi), from x, where
    f(x) returns (f, f') elementwise over arrays."""
    active = np.ones(np.shape(x), dtype=bool)
    for _ in range(NEWTON_PASSES):
        if not active.any():
            break
        value, slope = f(x)
        lo, hi = np.where(value > 0.0, x, lo), np.where(value < 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx = value / slope
            newton = x - dx
            take = ((lo < newton) & (newton < hi)) | (np.abs(dx) <= 4.0 * np.spacing(newton))
        step = np.where(take, newton, 0.5 * (lo + hi))
        dx = np.where(take, dx, x - step)
        x = np.where(active, step, x)
        with np.errstate(over="ignore"):
            active &= np.abs(dx) > 4.0 * np.spacing(x)
    return x


def series_zeros(stub: bool, z0: float, branch, order=0):
    """A branch's series zeros (N = 0), elementwise over the arrays of its
    table row and of ``order``: closed form for the tank, bracketed Newton
    on N (-1)^order over the stub's tan interval from its tank seed."""
    c_c = branch[0]
    w_r = branch[1]
    if not stub:
        return w_r / np.sqrt(1.0 + w_r * c_c * (4.0 * z0 / math.pi))
    top = (2 * order + 1) * w_r
    lo, hi = np.maximum(top - 2.0 * w_r, 0.0), top
    cap = math.pi / (4.0 * w_r * z0)
    z = 1.0 / np.sqrt(1.0 / (top * top * cap) * (cap + c_c))
    z = np.where((lo < z) & (z < hi), z, 0.5 * (lo + hi))
    sign = np.where(np.asarray(order) % 2 == 0, 1.0, -1.0)

    def falling_n(z):
        n = branch_parts(stub, z0, branch, z)[1]
        return sign * n[0], sign * n[1]

    return bracketed_newton(falling_n, z, lo, hi)


def zero_table(stub: bool, z0: float, table: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Every branch zero from DC up to hi of each curve, rows sorted and
    padded with zeros of higher tan intervals."""
    columns = np.moveaxis(table, -1, 0)
    if not stub:
        return np.sort(series_zeros(stub, z0, columns), axis=1)
    top = int(np.max(np.floor(0.5 * hi[:, None] / columns[1] + 0.5)))
    zeros = series_zeros(stub, z0, columns[..., None], np.arange(top + 1))
    return np.sort(zeros.reshape(len(table), -1), axis=1)


def crossings(stub: bool, z0: float, table: np.ndarray, band: np.ndarray) -> list:
    """Each curve's loaded poles in its band: bracketed Newton on
    theta - 2*pi k between the curve's zeros, every pole of every curve in
    one broadcast pass of the reference fold."""
    with np.errstate(over="ignore", invalid="ignore"):
        edges = reference_jets(stub, z0, table.repeat(2, axis=0), band.ravel())[0]
    edges = edges.reshape(-1, 2)
    zeros = zero_table(stub, z0, table, band[:, 1])
    resonance = table[..., 1].max(axis=1)
    rows, levels, lo, hi, seed = [], [], [], [], []
    for i, (th_lo, th_hi) in enumerate(edges):
        b_lo, b_hi = band[i]
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
    searched = table[rows]

    def above_level(x):
        with np.errstate(over="ignore", invalid="ignore"):
            theta, slope = reference_jets(stub, z0, searched, x)[:2]
        return theta - levels, slope

    x = bracketed_newton(above_level, np.array(seed), np.array(lo), np.array(hi))
    return [x[rows == i] for i in range(len(table))]
