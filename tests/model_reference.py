"""Reference pole-model evaluations for tests: the numpy-scalar loop
qparity's model polish ran before its point moved to Python floats, and the
weight-by-weight loop of the model grid before its weights were broadcast.

Every sum runs on numpy float64 under np.errstate(all="ignore"), so a zero
offset gives an inf atan argument and inf slopes, as numpy divides; neither
shares code with eraser._model_point or eraser._model_thetas.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def reference_model_point(model, n: int, wp, chi):
    """(theta_w, d theta_w/d omega_p, d theta_w/d chi), w = 0..n, of the pole
    model ``model`` (rows z_k, z0 K_k, zeta_k) at one point (wp, chi)."""
    th, d_wp, d_chi = [], [], []
    for w in range(n + 1):
        y = passed = g_wp = g_chi = 0.0
        with np.errstate(all="ignore"):
            for z, z0k, zeta in zip(*np.asarray(model)):
                offset = np.float64(wp) - (z + (n - 2 * w) * np.float64(chi) * zeta)
                y = y + z0k / offset
                passed = passed + (offset >= 0.0)
                g = z0k / offset ** 2
                g_wp, g_chi = g_wp + g, g_chi + g * zeta
            th.append(-2.0 * np.arctan(y) - TWO_PI * passed)
            gain = 2.0 / (1.0 + y * y)
            d_wp.append(gain * g_wp)
            d_chi.append(-gain * (n - 2 * w) * g_chi)
    return np.array(th), np.array(d_wp), np.array(d_chi)


def reference_model_thetas(model, n: int, wp, chi):
    """theta_w, w = 0..n, of the pole model at broadcast (wp, chi), one
    weight at a time, each sum in pole order."""
    th = []
    for w in range(n + 1):
        y = passed = 0.0
        with np.errstate(all="ignore"):
            for z, z0k, zeta in zip(*model):
                offset = wp - (z + (n - 2 * w) * chi * zeta)
                y = y + z0k / offset
                passed = passed + (offset >= 0.0)
            th.append(-2.0 * np.arctan(y) - TWO_PI * passed)
    return np.array(th)
