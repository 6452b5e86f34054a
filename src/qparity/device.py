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
    _crossings,
    lumped_equivalent,
)

__all__ = [
    "NonPositiveResult",
    "QubitState",
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
class Mode:
    """One resonant mode and its probe coupling capacitor."""

    omega: float
    c_couple: float

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"mode omega must be finite and > 0, got {self.omega!r}")
        if not 0.0 < self.c_couple < math.inf:
            raise ValueError(f"mode c_couple must be finite and > 0, got {self.c_couple!r}")


@dataclass(frozen=True)
class ParityDevice:
    """n qubits, m modes, chi matrix, and the one-port construction recipe.

    chi_matrix[j][k] is qubit j's pull on mode k, in rad/s: an n x m tuple
    of floats, each finite and > 0.  resonator_model selects the
    quarter-wave stub (tan form) or its lumped LC equivalent for each
    branch; the stub form is the default because it reproduces the worked
    two-mode solution exactly.
    """

    n: int
    modes: tuple
    chi_matrix: tuple
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
        chi = tuple(tuple(float(c) for c in row) for row in self.chi_matrix)
        if len(chi) != self.n or any(len(row) != len(modes) for row in chi):
            raise ValueError(
                f"chi_matrix must be {self.n} x {len(modes)}, got "
                f"{len(chi)} x {set(len(r) for r in chi)}"
            )
        for j, row in enumerate(chi):
            for k, c in enumerate(row):
                if not 0.0 < c < math.inf:
                    raise ValueError(f"chi_matrix[{j}][{k}] must be finite and > 0, "
                                     f"got {c!r}")
        if not 0.0 < self.z0 < math.inf:
            raise ValueError(f"z0 must be finite and > 0, got {self.z0!r}")
        if self.resonator_model not in ("stub", "lumped"):
            raise ValueError(f"unknown resonator_model {self.resonator_model!r}")
        if self.band is not None:
            lo, hi = self.band
            if not 0.0 < lo < hi < math.inf:
                raise ValueError(f"band needs finite 0 < lo < hi, got {self.band}")
            object.__setattr__(self, "band", (float(lo), float(hi)))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "chi_matrix", chi)

    @classmethod
    def equal_coupling(cls, n: int, modes, chi: float, z0: float = 50.0,
                       resonator_model: str = "stub", band=None) -> "ParityDevice":
        """Canonical device: every qubit pulls every mode by the same chi."""
        modes = tuple(modes)
        return cls(n=n, modes=modes, chi_matrix=((chi,) * len(modes),) * n,
                   z0=z0, resonator_model=resonator_model, band=band)

    @property
    def m(self) -> int:
        return len(self.modes)

    @property
    def equal_chi(self) -> bool:
        """Whether every qubit pulls every mode by the same chi."""
        return len({c for row in self.chi_matrix for c in row}) == 1

    @property
    def chi(self) -> float:
        """The common chi of an equal-coupling device."""
        if not self.equal_chi:
            raise ValueError("device does not have a single common chi")
        return self.chi_matrix[0][0]

    @property
    def max_chi(self) -> float:
        return max(c for row in self.chi_matrix for c in row)

    def with_chi(self, chi: float) -> "ParityDevice":
        """Equal-coupling clone with a new chi (solver knob)."""
        if not self.equal_chi:
            raise ValueError("with_chi requires an equal_chi device")
        return replace(self, chi_matrix=((chi,) * self.m,) * self.n)

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


def _shifted_modes(dev: ParityDevice, state: QubitState) -> tuple[float, ...]:
    """The state's pulled mode frequencies, in mode order."""
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    return tuple(shifted_frequency(mode.omega, [row[k] for row in dev.chi_matrix], state)
                 for k, mode in enumerate(dev.modes))


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
                     for mode, w_shift in zip(dev.modes, _shifted_modes(dev, state)))
    return branches[0] if len(branches) == 1 else Parallel(branches)


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
    map to the same representative state, hence the identical branch table
    and bit-identical phases, making the weight-collapse invariant exact.
    """
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    if dev.equal_chi:
        state = QubitState.of_weight(dev.n, state.weight)
    return PhaseCurve([mo.c_couple for mo in dev.modes], _shifted_modes(dev, state),
                      dev.z0, analysis_band(dev), dev.resonator_model)


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


def loaded_poles_by_weight(dev: ParityDevice) -> list[tuple[float, ...]]:
    """loaded_poles of every Hamming weight's representative state, 0..n,
    located together in one broadcast search."""
    curves = [weight_phase_curve(dev, w) for w in range(dev.n + 1)]
    return [tuple(float(p) for p in poles) for poles in _crossings(curves)]
