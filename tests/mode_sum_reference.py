"""Reference mode sums for tests.

The theta-based overlap qparity computed before its comb path moved to
reflection phasors: every weight's theta is folded along the comb
(network._fold, through device._weight_fold), a cascade state's theta is
its bits' thetas summed, and a pair's overlap is |exp(-S)| with
S = sum_i |alpha C_i|^2 (1 - exp(-i (theta_s - theta_s')(w_i))).

And reference_phasor, the comb phasor as a complex array, the recurrence
network._phasor ran before it returned float parts; network._phasor must
equal it bit for bit, and so must every mode sum scored on its float parts
equal phasor_pair_fidelities, the sums on those complex arrays.

Neither shares code with network._phasor or fidelity._mode_sum.
"""

from __future__ import annotations

import math

import numpy as np

from qparity.cascade import _cascade_sums
from qparity.device import QubitState, _weight_fold, _weight_table
from qparity.fidelity import ProbePulse, build_mode_grid


def reference_mode_sum(dphase: np.ndarray, pulse: ProbePulse, grid) -> float:
    """Overlap from the phase difference sampled on the mode comb."""
    amp2 = pulse.mean_photons * grid.weights ** 2
    exponent = np.sum(amp2 * (1.0 - np.exp(-1j * dphase)))
    return float(abs(np.exp(-exponent)))


def reference_pair_fidelities(thetas, pulse: ProbePulse) -> dict:
    """(w1, w2) -> overlap for every unordered weight pair, with the comb
    centred on pulse.omega_p and ``thetas(omega)`` every weight's theta."""
    grid = build_mode_grid(pulse.omega_p, pulse.bandwidth)
    th = thetas(grid.frequencies)
    return {(w1, w2): reference_mode_sum(th[w1] - th[w2], pulse, grid)
            for w1 in range(len(th)) for w2 in range(w1 + 1, len(th))}


def device_thetas(dev):
    """Every weight's theta along omega, folded on the device's weight table."""
    return lambda omega: _weight_fold(dev, omega)


def cascade_thetas(cavity, n: int):
    """Every weight's theta along omega of n cascaded ``cavity``s: the
    representative state's bits' thetas summed in cavity order."""
    states = [QubitState.of_weight(n, w) for w in range(n + 1)]
    return lambda omega: _cascade_sums(_weight_fold(cavity, omega), states)


def reference_phasor(stub: bool, z0: float, branches, w) -> np.ndarray:
    """r = e^{i theta} of one branch table ``branches`` (m rows of (C_c,
    w_r)) along the array w, as a complex array: each stub branch's
    susceptance parts divided by cos x, P_k = w C_c and N_k = 1 - w C_c z0
    tan x with x = (pi/2) w/w_r, the tank's P_k = k c and N_k = c - k s
    with k = w C_c, c = (1 - t)(1 + t), s = (4 z0/pi) t and t = w/w_r,
    folded as U <- U N_k + P_k V, V <- V N_k from (U, V) = (P_1,
    N_1), and r = (V - i z0 U)^2 / (V^2 + z0^2 U^2) formed by its parts."""
    p, n = [], []
    for branch in branches:
        k = w * branch[0]
        if stub:
            p.append(k)
            n.append(1.0 - (z0 * k) * np.tan(0.5 * math.pi * (w / branch[1])))
        else:
            t = w / branch[1]
            c = (1.0 - t) * (1.0 + t)
            p.append(k * c)
            n.append(c - k * ((4.0 * z0 / math.pi) * t))
    u, v = p[0], n[0]
    for p_k, n_k in zip(p[1:], n[1:]):
        u, v = u * n_k + p_k * v, v * n_k
    z0_u = z0 * u
    v2, z0_u2 = v * v, z0_u * z0_u
    d = v2 + z0_u2
    r = np.empty(d.shape, complex)
    r.real, r.imag = (v2 - z0_u2) / d, -2.0 * (v * z0_u) / d
    return r


def phasor_pair_fidelities(dev, pulse: ProbePulse, states=None) -> dict:
    """(w1, w2) -> overlap for every unordered weight pair, with the comb
    centred on pulse.omega_p, from complex comb phasors: reference_phasor
    of each row of dev's weight table or, given the cascade's ``states``,
    each state's bits' phasors multiplied as complex arrays in cavity
    order, and a pair's |r_w1 - r_w2|^2 as gap.real**2 + gap.imag**2."""
    grid = build_mode_grid(pulse.omega_p, pulse.bandwidth)
    stub = dev.resonator_model == "stub"
    r = [reference_phasor(stub, dev.z0, branches, grid.frequencies)
         for branches in _weight_table(dev)]
    if states is not None:
        r = [math.prod(r[b] for b in s.bits) for s in states]
    amp2 = pulse.mean_photons * grid.weights ** 2
    fidelities = {}
    for w1 in range(len(r)):
        for w2 in range(w1 + 1, len(r)):
            gap = r[w1] - r[w2]
            fidelities[(w1, w2)] = math.exp(-0.5 * float(np.sum(amp2 * (gap.real ** 2
                                                                          + gap.imag ** 2))))
    return fidelities
