"""Reference mode sum for tests: the theta-based overlap qparity computed
before its comb path moved to reflection phasors.

Every weight's theta is folded along the comb (network._fold, through
device._weight_fold), a cascade state's theta is its bits' thetas summed,
and a pair's overlap is |exp(-S)| with
S = sum_i |alpha C_i|^2 (1 - exp(-i (theta_s - theta_s')(w_i))).  It shares
no code with network._phasor or fidelity._mode_sum.
"""

from __future__ import annotations

import numpy as np

from qparity.cascade import _cascade_sums
from qparity.device import QubitState, _weight_fold
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
