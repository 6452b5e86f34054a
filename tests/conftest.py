"""Shared fixtures: the worked two-mode device and its solved operating point."""

from __future__ import annotations

import math

import pytest

from qparity import Mode, ParityDevice, solve_eraser

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session")
def paper_device() -> ParityDevice:
    """Three qubits on two modes at 9.99/10.01 GHz, 10 fF couplers, 50 ohm."""
    return ParityDevice.equal_coupling(
        n=3,
        modes=(Mode(TWO_PI * 9.99e9, 10e-15), Mode(TWO_PI * 10.01e9, 10e-15)),
        chi=TWO_PI * 5e6,
    )


@pytest.fixture(scope="session")
def paper_solution(paper_device):
    return solve_eraser(paper_device)


def _mp_phase(dev: ParityDevice, weight: int):
    """50-digit phase of one weight's network as theta(omega, resonances) =
    -2 atan(z0 B), smooth away from branch zeros, with the state-shifted
    resonances it is built on."""
    import mpmath as mp

    from oracle_network import shifted_frequency

    from qparity.device import QubitState

    mp.mp.dps = 50
    state = QubitState.of_weight(dev.n, weight)
    z0 = mp.mpf(dev.z0)
    resonances = [mp.mpf(shifted_frequency(mo.omega, [dev.chi] * dev.n, state))
                  for mo in dev.modes]
    couplers = [mp.mpf(mo.c_couple) for mo in dev.modes]

    def theta(w, res):
        b = 0
        for w_r, c_c in zip(res, couplers):
            if dev.resonator_model == "stub":
                x_res = z0 * mp.tan(mp.pi / 2 * w / w_r)
            else:
                c = mp.pi / (4 * w_r * z0)
                l = 1 / (w_r ** 2 * c)
                x_res = w * l / (1 - w * w * l * c)
            b -= 1 / (x_res - 1 / (w * c_c))
        return -2 * mp.atan(z0 * b)

    return theta, resonances


@pytest.fixture(scope="session")
def mp_phase():
    return _mp_phase
