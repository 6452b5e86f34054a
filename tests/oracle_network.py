"""A device's one-port as a network tree, and its impedance, for tests.

qparity reads a device's one-port as numbers, a coupler and a resonance per
parallel branch (network._branch_table).  Here the same one-port is built as
a tree of qparity.network elements for phase_sweep and
reflection_coefficient, the oracle the closed form is checked against, and
evaluated as an impedance away from its poles.  The state's pulled mode
frequencies come from device._pulled_rows, the one pull rule.
"""

from __future__ import annotations

import math

import numpy as np

from qparity.device import ParityDevice, QubitState, _pulled_rows, _signs, _state_row
from qparity.network import (Capacitor, Inductor, NetworkElement, NetworkError, Parallel,
                             QuarterWaveStub, Series, _check_omega, _impedance_parts,
                             lumped_equivalent)

# Total admittance magnitude below which a frequency counts as sitting on a
# pole of Z (the one-port looks like an exact open).
POLE_ADMITTANCE_TOL = 1e-18

# |cos| threshold below which the stub tan() form is numerically meaningless.
STUB_COS_TOL = 1e-14


class PoleProximity(NetworkError):
    """Evaluation requested too close to a pole for the impedance form."""


def stub_impedance(omega: float, z0: float, omega_r: float) -> complex:
    """Impedance of a shorted quarter-wave stub, i*z0*tan((pi/2)(w/w_r)).

    Raises PoleProximity within STUB_COS_TOL of a tan singularity; use the
    admittance (projective) form there instead.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if z0 <= 0.0 or omega_r <= 0.0:
        raise ValueError("z0 and omega_r must be > 0")
    x = 0.5 * math.pi * (omega / omega_r)
    c = math.cos(x)
    if abs(c) < STUB_COS_TOL:
        raise PoleProximity(
            f"stub evaluated within {STUB_COS_TOL} of a tan singularity "
            f"(omega={omega:.6e}, omega_r={omega_r:.6e})"
        )
    return 1j * z0 * math.tan(x)


def network_impedance(net: NetworkElement, omega: float) -> complex:
    """Complex impedance of the one-port at a single frequency.

    Raises PoleProximity when the total admittance magnitude drops below
    POLE_ADMITTANCE_TOL (a pole of Z); the reflection coefficient remains
    well defined there via reflection_coefficient.
    """
    w = _check_omega(omega)
    num, den = _impedance_parts(net, w)
    if np.abs(den) < POLE_ADMITTANCE_TOL * np.abs(num):
        raise PoleProximity(
            f"admittance magnitude below {POLE_ADMITTANCE_TOL} S at "
            f"omega={float(w):.6e} (pole of Z)"
        )
    return complex(num / den)


def shifted_frequency(omega_mode: float, chis, state: QubitState) -> float:
    """State-pulled mode frequency: omega + sum_j (-1)**s_j * chi_j."""
    chis = tuple(chis)
    if len(chis) != state.n:
        raise ValueError(f"{len(chis)} chis for {state.n} qubits")
    return _pulled_rows([omega_mode], [(c,) for c in chis], [_signs(state)])[0][0]


def _resonator(omega_r: float, z0: float, model: str) -> NetworkElement:
    if model == "stub":
        return QuarterWaveStub(z0=z0, omega_r=omega_r)
    c, l = lumped_equivalent(omega_r, z0)
    return Parallel((Inductor(l), Capacitor(c)))


def build_state_network(dev: ParityDevice, state: QubitState) -> NetworkElement:
    """One-port seen by the probe for a given joint qubit state, as a tree
    for phase_sweep and reflection_coefficient (phase curves read the same
    numbers directly).

    Parallel combination over modes of (coupling capacitor in series with
    the state-shifted resonator); a single-mode device degenerates to the
    bare series branch.
    """
    branches = tuple(Series((Capacitor(mode.c_couple),
                             _resonator(w_shift, dev.z0, dev.resonator_model)))
                     for mode, w_shift in zip(dev.modes, _state_row(dev, state)))
    return branches[0] if len(branches) == 1 else Parallel(branches)
