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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .network import (Capacitor, Inductor, NetworkElement, Parallel, PhaseCurve,
                      QuarterWaveStub, Series, _check_frequency, _check_omega, _crossings,
                      _curve_table, _fold, _fold_jets, lumped_equivalent)

__all__ = [
    "NonPositiveResult",
    "QubitState",
    "Mode",
    "ParityDevice",
    "shifted_frequency",
    "build_state_network",
    "analysis_band",
    "state_phase_curve",
]

TWO_PI = 2.0 * math.pi


class NonPositiveResult(ValueError):
    """Dispersive shifts drove a mode frequency, or the low edge of a default
    analysis band, to zero or below."""


@dataclass(frozen=True)
class QubitState:
    """Computational-basis state of n qubits, e.g. QubitState((0, 1, 1))."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(self.bits)
        if not 1 <= len(bits) <= 8:
            raise ValueError(f"need 1..8 qubits, got {len(bits)}")
        if any(b != 0 and b != 1 for b in bits):  # int() would truncate 0.5 and 1.9
            raise ValueError(f"bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", tuple(int(b) for b in bits))

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


def _mode_omega(omega):
    """Mode's check of a mode frequency; returns it."""
    if not 0.0 < omega < math.inf:
        raise ValueError(f"mode omega must be finite and > 0, got {omega!r}")
    return omega


@dataclass(frozen=True)
class Mode:
    """One resonant mode and its probe coupling capacitor."""

    omega: float
    c_couple: float

    def __post_init__(self):
        _mode_omega(self.omega)
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
    return _pulled_rows([omega_mode], [(c,) for c in chis], [_signs(state)])[0][0]


def _signs(state: QubitState) -> tuple:
    return tuple(-1.0 if b else 1.0 for b in state.bits)


@functools.cache
def _weight_signs(n: int) -> tuple:
    """QubitState.of_weight(n, w)'s signs for w = 0..n, built once per n."""
    return tuple(_signs(QubitState.of_weight(n, w)) for w in range(n + 1))


def _pulled(omega_mode: float, chis, signs) -> float:
    """omega + sum_j sign_j * chi_j, summed in qubit order, unchecked."""
    return omega_mode + sum([s * c for s, c in zip(signs, chis)])


def _pulled_rows(omegas, chi_matrix, signs) -> list:
    """The one state-to-modes rule: for each row of qubit ``signs``, every
    mode's frequency _pulled by its column of the n x m chi_matrix.  Refuses
    the first pull to or below zero, in row then mode order."""
    pulls = list(zip(*chi_matrix))
    rows = [[_pulled(omega, chis, s) for omega, chis in zip(omegas, pulls)] for s in signs]
    low = [shifted for row in rows for shifted in row if shifted <= 0.0]
    if low:
        raise NonPositiveResult(f"shifts drove mode frequency to {low[0]:.3e} rad/s")
    return rows


def _resonator(omega_r: float, z0: float, model: str) -> NetworkElement:
    if model == "stub":
        return QuarterWaveStub(z0=z0, omega_r=omega_r)
    c, l = lumped_equivalent(omega_r, z0)
    return Parallel((Inductor(l), Capacitor(c)))


def _state_row(dev: ParityDevice, state: QubitState) -> list:
    """The state's pulled mode frequencies, in mode order (_pulled_rows)."""
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    return _pulled_rows([mo.omega for mo in dev.modes], dev.chi_matrix, [_signs(state)])[0]


def _weight_table(dev: ParityDevice, omegas=None, chi=None) -> np.ndarray:
    """Every Hamming weight's branch table, stacked (n + 1, m, columns): row w
    is weight_phase_curve(dev, w)'s.  ``omegas`` (bare mode frequencies,
    checked in mode order with Mode's message, no Mode built) and a common
    ``chi`` stand in for dev's own, so a solver point needs no device.

    Row w is QubitState.of_weight(n, w)'s pulls (_pulled_rows), which stand
    for every weight-w state only under equal coupling: without ``chi`` an
    unequal chi matrix is refused first, then a pull to or below zero, then
    _curve_table checks and builds the table.  No band is read (analysis_band).
    """
    if chi is None and not dev.equal_chi:
        raise ValueError("weight rows stand for every state only under equal coupling, "
                         "not this chi matrix; read each state with state_phase_curve")
    omegas = ([mo.omega for mo in dev.modes] if omegas is None
              else [_mode_omega(float(w)) for w in omegas])
    chi_matrix = dev.chi_matrix if chi is None else ((float(chi),) * dev.m,) * dev.n
    rows = _pulled_rows(omegas, chi_matrix, _weight_signs(dev.n))
    return _curve_table([mo.c_couple for mo in dev.modes], rows, dev.z0, dev.resonator_model)


def _weight_fold(dev: ParityDevice, omega, jets: bool = False, omegas=None, chi=None):
    """theta of every Hamming weight along omega, one row per weight, or with
    ``jets`` the jets at one frequency, from one fold of the whole
    _weight_table (network._fold_jets; rows by weight, d theta/d omega_r by
    branch and weight).  theta folds one weight's table at a time, so a comb
    of thousands of points holds no (n + 1)-fold temporaries.  Weight w's
    rows are weight_phase_curve(dev, w)'s theta or jets, bit for bit."""
    table = _weight_table(dev, omegas, chi)
    stub = dev.resonator_model == "stub"
    if jets:
        return _fold_jets(stub, dev.z0, table, _check_frequency(omega))
    w = _check_omega(omega)
    return np.array([_fold(stub, dev.z0, branches, w) for branches in table])


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


def _loaded_zero_estimate(mode: Mode, z0: float) -> float:
    """Series resonance of coupling cap + tank, in the lumped picture."""
    c_r, l_r = lumped_equivalent(mode.omega, z0)
    return 1.0 / math.sqrt(l_r * (c_r + mode.c_couple))


def analysis_band(dev: ParityDevice) -> tuple[float, float]:
    """Frequency window of the device's sweeps and of its phase curves'
    zero and pole searches; fidelity checks omega_p against it too.

    Phases are DC-referenced and hold at any omega > 0, whatever the band
    is, so the weight tables read none.  The default covers every state's
    loaded features (zeros are pulled a few percent below the bare modes
    by the coupling capacitors) with a margin on both sides, and is
    refused (NonPositiveResult) where it reaches f <= 0.
    """
    if dev.band is not None:
        return dev.band
    spread = dev.n * dev.max_chi
    z_min = min(_loaded_zero_estimate(mo, dev.z0) for mo in dev.modes) - spread
    w_max = max(mo.omega for mo in dev.modes) + spread
    margin = max(20.0 * spread, 0.004 * dev.modes[0].omega)
    band = (z_min - margin, w_max + margin)
    if not 0.0 < band[0] < band[1] < math.inf:
        raise NonPositiveResult(f"need finite 0 < band[0] < band[1], got {band}")
    return band


def state_phase_curve(dev: ParityDevice, state: QubitState) -> PhaseCurve:
    """Closed-form phase curve for one state over the device's analysis band.

    Equal-coupling devices collapse onto Hamming weight: equal-weight states
    read the same representative's row, so their phases are bit-identical and
    the weight-collapse invariant exact; any other chi matrix reads its own.
    """
    if state.n == dev.n and dev.equal_chi:
        state = QubitState.of_weight(dev.n, state.weight)
    return PhaseCurve([mo.c_couple for mo in dev.modes], _state_row(dev, state),
                      dev.z0, analysis_band(dev), dev.resonator_model)


def weight_phase_curve(dev: ParityDevice, weight: int) -> PhaseCurve:
    return state_phase_curve(dev, QubitState.of_weight(dev.n, weight))


def loaded_poles_by_weight(dev: ParityDevice) -> list[tuple[float, ...]]:
    """Pole frequencies of the loaded one-port of every Hamming weight's
    representative state, 0..n, found in one broadcast search of _weight_table.

    The coupling capacitors renormalize the bare resonances, so these differ
    from the shifted mode frequencies; diagnostics report both rather than
    assuming either bookkeeping.
    """
    bands = np.tile(analysis_band(dev), (dev.n + 1, 1))
    poles = _crossings(dev.resonator_model == "stub", dev.z0, _weight_table(dev), bands)
    return [tuple(float(p) for p in row) for row in poles]
