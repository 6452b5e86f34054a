"""Qubit-state-dependent reflection networks for multi-qubit parity devices.

An n-qubit device couples every qubit dispersively to m resonant modes; each
qubit pulls every mode by +/- chi depending on its state, so the one-port
seen by the probe depends on the joint qubit state only through the shifted
mode frequencies.  Under equal coupling the phase response collapses onto
Hamming weight, giving at most n+1 distinct curves.

Every state's phase curve is DC-referenced by construction (the closed
form counts each branch's zeros from zero frequency), so cross-state phase
differences, 2*pi offsets included, are meaningful as the parity conditions
require, whatever band a curve is evaluated on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .network import (
    Capacitor,
    Inductor,
    NetworkElement,
    Parallel,
    PhaseCurve,
    QuarterWaveStub,
    Series,
    lumped_equivalent,
)

__all__ = [
    "NonPositiveResult",
    "QubitState",
    "DispersiveCoupling",
    "Mode",
    "ParityDevice",
    "shifted_frequency",
    "build_state_network",
    "analysis_band",
    "state_phase_curve",
    "phase_for_state",
    "phase_derivatives",
]

TWO_PI = 2.0 * math.pi


class NonPositiveResult(ValueError):
    """Dispersive shifts drove a mode frequency to zero or below."""


@dataclass(frozen=True)
class QubitState:
    """Computational-basis state of n qubits, e.g. QubitState((0, 1, 1))."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not 1 <= len(bits) <= 8:
            raise ValueError(f"need 1..8 qubits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def of_weight(cls, n: int, weight: int) -> "QubitState":
        """Representative state with the given Hamming weight (1s last)."""
        if not 0 <= weight <= n:
            raise ValueError(f"weight {weight} out of range for {n} qubits")
        return cls((0,) * (n - weight) + (1,) * weight)

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def weight(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class DispersiveCoupling:
    """Dispersive pull chi of one qubit on one mode, optionally from (g, delta).

    chi, g, delta are angular rates; chi = g**2/delta must hold to 1e-12
    relative when both are given.
    """

    chi: float
    g: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.chi <= 0.0:
            raise ValueError(f"chi must be > 0, got {self.chi}")
        if (self.g is None) != (self.delta is None):
            raise ValueError("give both g and delta or neither")
        if self.g is not None:
            implied = self.g ** 2 / self.delta
            if abs(implied - self.chi) > 1e-12 * abs(self.chi):
                raise ValueError(
                    f"chi={self.chi!r} inconsistent with g**2/delta={implied!r}"
                )

    @classmethod
    def from_g_delta(cls, g: float, delta: float) -> "DispersiveCoupling":
        return cls(chi=g ** 2 / delta, g=g, delta=delta)


@dataclass(frozen=True)
class Mode:
    """One resonant mode and its probe coupling capacitor."""

    omega: float
    c_couple: float

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError(f"mode frequency must be > 0, got {self.omega}")
        if self.c_couple <= 0.0:
            raise ValueError(f"coupling capacitance must be > 0, got {self.c_couple}")


@dataclass(frozen=True)
class ParityDevice:
    """n qubits, m modes, chi matrix, and the one-port construction recipe.

    chi_matrix[j][k] is qubit j's pull on mode k.  resonator_model selects
    the quarter-wave stub (tan form) or its lumped LC equivalent for each
    branch; the stub form is the default because it reproduces the worked
    two-mode solution exactly.
    """

    n: int
    modes: tuple
    chi_matrix: tuple
    equal_chi: bool
    z0: float = 50.0
    resonator_model: str = "stub"
    band: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.n <= 8:
            raise ValueError(f"need 1..8 qubits, got n={self.n}")
        modes = tuple(self.modes)
        if not modes:
            raise ValueError("need at least one mode")
        freqs = [mo.omega for mo in modes]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("mode frequencies must be strictly increasing")
        chi = tuple(tuple(row) for row in self.chi_matrix)
        if len(chi) != self.n or any(len(row) != len(modes) for row in chi):
            raise ValueError(
                f"chi_matrix must be {self.n} x {len(modes)}, got "
                f"{len(chi)} x {set(len(r) for r in chi)}"
            )
        if self.equal_chi:
            vals = {c.chi for row in chi for c in row}
            if len(vals) != 1:
                raise ValueError("equal_chi device has non-identical chi entries")
        if self.z0 <= 0.0:
            raise ValueError(f"z0 must be > 0, got {self.z0}")
        if self.resonator_model not in ("stub", "lumped"):
            raise ValueError(f"unknown resonator_model {self.resonator_model!r}")
        if self.band is not None:
            lo, hi = self.band
            if not 0.0 < lo < hi:
                raise ValueError(f"bad band {self.band}")
            object.__setattr__(self, "band", (float(lo), float(hi)))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "chi_matrix", chi)

    @classmethod
    def equal_coupling(cls, n: int, modes, chi: float, z0: float = 50.0,
                       resonator_model: str = "stub", band=None) -> "ParityDevice":
        """Canonical device: every qubit pulls every mode by the same chi."""
        modes = tuple(modes)
        coupling = DispersiveCoupling(chi=chi)
        matrix = tuple(tuple(coupling for _ in modes) for _ in range(n))
        return cls(n=n, modes=modes, chi_matrix=matrix, equal_chi=True,
                   z0=z0, resonator_model=resonator_model, band=band)

    @property
    def m(self) -> int:
        return len(self.modes)

    @property
    def chi(self) -> float:
        """The common chi of an equal-coupling device."""
        if not self.equal_chi:
            raise ValueError("device does not have a single common chi")
        return self.chi_matrix[0][0].chi

    @property
    def max_chi(self) -> float:
        return max(c.chi for row in self.chi_matrix for c in row)

    def with_chi(self, chi: float) -> "ParityDevice":
        """Equal-coupling clone with a new chi (solver knob)."""
        if not self.equal_chi:
            raise ValueError("with_chi requires an equal_chi device")
        coupling = DispersiveCoupling(chi=chi)
        matrix = tuple(tuple(coupling for _ in self.modes) for _ in range(self.n))
        return replace(self, chi_matrix=matrix)

    def with_mode_frequencies(self, omegas) -> "ParityDevice":
        """Clone with new mode frequencies, keeping coupling capacitors."""
        omegas = tuple(float(w) for w in omegas)
        if len(omegas) != self.m:
            raise ValueError(f"need {self.m} frequencies, got {len(omegas)}")
        modes = tuple(Mode(w, mo.c_couple) for w, mo in zip(omegas, self.modes))
        return replace(self, modes=modes)


def shifted_frequency(omega_mode: float, chis, state: QubitState) -> float:
    """State-pulled mode frequency: omega + sum_j (-1)**s_j * chi_j."""
    chis = tuple(chis)
    if len(chis) != state.n:
        raise ValueError(f"{len(chis)} chis for {state.n} qubits")
    shifted = omega_mode + sum(
        (1.0 if b == 0 else -1.0) * c for b, c in zip(state.bits, chis)
    )
    if shifted <= 0.0:
        raise NonPositiveResult(
            f"shifts drove mode frequency to {shifted:.3e} rad/s"
        )
    return shifted


def _resonator(omega_r: float, z0: float, model: str) -> NetworkElement:
    if model == "stub":
        return QuarterWaveStub(z0=z0, omega_r=omega_r)
    c, l = lumped_equivalent(omega_r, z0)
    return Parallel((Inductor(l), Capacitor(c)))


def build_state_network(dev: ParityDevice, state: QubitState) -> NetworkElement:
    """One-port seen by the probe for a given joint qubit state.

    Parallel combination over modes of (coupling capacitor in series with
    the state-shifted resonator); a single-mode device degenerates to the
    bare series branch.
    """
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    branches = []
    for k, mode in enumerate(dev.modes):
        chis = [dev.chi_matrix[j][k].chi for j in range(dev.n)]
        w_shift = shifted_frequency(mode.omega, chis, state)
        branches.append(Series((
            Capacitor(mode.c_couple),
            _resonator(w_shift, dev.z0, dev.resonator_model),
        )))
    if len(branches) == 1:
        return branches[0]
    return Parallel(tuple(branches))


def _loaded_zero_estimate(mode: Mode, z0: float) -> float:
    """Series resonance of coupling cap + tank, in the lumped picture."""
    c_r, l_r = lumped_equivalent(mode.omega, z0)
    return 1.0 / math.sqrt(l_r * (c_r + mode.c_couple))


def analysis_band(dev: ParityDevice) -> tuple[float, float]:
    """Frequency window of the device's sweeps and of its phase curves'
    zero and pole searches.

    Phases are DC-referenced and hold at any omega > 0, whatever the band
    is.  The default covers every state's loaded features
    (zeros are pulled a few percent below the bare modes by the coupling
    capacitors) with a margin on both sides.
    """
    if dev.band is not None:
        return dev.band
    spread = dev.n * dev.max_chi
    z_min = min(_loaded_zero_estimate(mo, dev.z0) for mo in dev.modes) - spread
    w_max = max(mo.omega for mo in dev.modes) + spread
    margin = max(20.0 * spread, 0.004 * dev.modes[0].omega)
    return (z_min - margin, w_max + margin)


def state_phase_curve(dev: ParityDevice, state: QubitState) -> PhaseCurve:
    """Closed-form phase curve for one state over the device's analysis band.

    Equal-coupling devices collapse onto Hamming weight: equal-weight states
    map to the same representative state, hence the identical network and
    bit-identical phases, making the weight-collapse invariant exact.
    """
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    if dev.equal_chi:
        state = QubitState.of_weight(dev.n, state.weight)
    return PhaseCurve(build_state_network(dev, state), dev.z0, analysis_band(dev))


def weight_phase_curve(dev: ParityDevice, weight: int) -> PhaseCurve:
    return state_phase_curve(dev, QubitState.of_weight(dev.n, weight))


def phase_for_state(dev: ParityDevice, state: QubitState, omega: float):
    """Unwrapped reflection phase of the state network at omega.

    Every state's phase is DC-referenced, so differences between states
    (including their 2*pi winding offsets) are well defined.
    """
    return state_phase_curve(dev, state).theta(omega)


def phase_derivatives(dev: ParityDevice, state: QubitState, omega: float,
                      order: int = 1) -> float:
    """d theta/d omega (order 1, seconds) or second derivative (order 2)."""
    return state_phase_curve(dev, state).dtheta(omega, order=order)


def loaded_poles(dev: ParityDevice, state: QubitState) -> tuple[float, ...]:
    """Pole frequencies of the loaded one-port for this state.

    The coupling capacitors renormalize the bare resonances, so these differ
    from the shifted mode frequencies; diagnostics report both rather than
    assuming either bookkeeping.
    """
    return tuple(float(p) for p in state_phase_curve(dev, state).poles)
