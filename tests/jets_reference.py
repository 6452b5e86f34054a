"""Reference jets fold for tests: the numpy recurrence qparity used before its
jets kernel moved to Python floats.

The branch parts are numpy arrays of rows (value, d/dw, d2/dw2, d/dw_r),
and U and V are jets (value, d/dw, d2/dw2, d/dw_r of each branch) held as
numpy rows and multiplied by jet_mul, one branch at a time, over every
curve and frequency at once.  It shares no code with network._jets, so it
checks the kernel's split of the branch parts between numpy and floats,
its zero count, its recurrence with the exact 0.0 * P3 direction products,
and its final divisions.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def branch_parts(stub: bool, z0: float, branch, w):
    """P and N of one branch's susceptance B = P/N, each an array of rows
    (value, d/dw, d2/dw2, d/dw_r), elementwise over the arrays of a table
    row (C_c, w_r) for the stub, (C_c, C, L) for the tank, and w."""
    c_c = branch[0]
    if stub:
        w_r = branch[1]
        x = 0.5 * math.pi * (w / w_r)
        cos, sin = np.cos(x), np.sin(x)
        a = 0.5 * math.pi / w_r
        c = np.array([cos, -a * sin, -a * a * cos, x * sin / w_r])
        s = z0 * np.array([sin, a * cos, -a * a * sin, -x * cos / w_r])
    else:
        cap, l = branch[1:]
        c, s = 1.0 - w * w * (l * cap), w * l
        w_r = 1.0 / np.sqrt(l * cap)
        c = np.array([c, -2.0 * w * l * cap, np.full_like(c, -2.0 * l * cap),
                      2.0 * (1.0 - c) / w_r])
        s = np.array([s, np.full_like(s, l), np.zeros_like(s), -s / w_r])
    k = w * c_c

    def times_k(f):  # product rule for k = w C_c, linear in w
        out = k * f
        out[1] += c_c * f[0]
        out[2] += c_c * (2.0 * f[1])
        return out

    return times_k(c), c - times_k(s)


def zeros_below(stub: bool, branch, n, w):
    """Series zeros of one branch below w, from the sign of its N."""
    if not stub:
        return n < 0.0
    m = np.floor(0.5 * w / branch[1] + 0.5)
    return m + (np.where(np.fmod(m, 2.0) == 0.0, n, -n) < 0.0)


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two jets (value, d/dw, d2/dw2, first-order directions...)."""
    out = a[0] * b + b[0] * a
    out[0] = a[0] * b[0]
    out[2] += 2.0 * a[1] * b[1]
    return out


@np.errstate(over="ignore", invalid="ignore")
def reference_jets(stub: bool, z0: float, branches, w):
    """(theta, theta', theta'', d theta/d w_r of each branch) of stacked branch
    tables, shape (curves..., m, columns), broadcast against w, unchecked:
    entries that leave float range come out inf or nan."""
    cols = np.moveaxis(np.asarray(branches, dtype=float), (-2, -1), (1, 0))
    cols = cols.reshape(cols.shape + (1,) * (np.ndim(w) + 2 - cols.ndim))
    m = cols.shape[1]
    parts = branch_parts(stub, z0, cols, w)
    passed = zeros_below(stub, cols, parts[1][0], w).sum(axis=0)
    u = np.zeros((3 + m,) + np.shape(parts[0][0][0]))
    v = np.zeros_like(u)
    v[0] = 1.0
    parts = [np.moveaxis(j, 1, 0) for j in parts]
    for k, (p, n) in enumerate(zip(*parts)):
        # only branch k's own parts move with its resonance
        p, n = (np.concatenate([j[:3], np.multiply.outer(np.arange(m) == k, j[3])])
                for j in (p, n))
        u, v = jet_mul(u, n) + jet_mul(p, v), jet_mul(v, n)
    u0, v0 = u[0], v[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        z0_b = np.where(v0 == 0.0, np.inf, z0 * u0 / v0)
        theta = -2.0 * np.arctan(z0_b) - TWO_PI * passed
        a = z0 * (u * v0 - u0 * v)
        d = v0 * v0 + (z0 * u0) * (z0 * u0)
        d_prime = 2.0 * (v0 * v[1] + z0 * z0 * u0 * u[1])
        return (theta, -2.0 * a[1] / d, -2.0 * (a[2] * d - a[1] * d_prime) / (d * d),
                -2.0 * a[3:] / d)
