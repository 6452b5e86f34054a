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

from .network import (PhaseCurve, _branch_table, _check_frequency, _check_omega, _crossings,
                      _fold, _fold_jets, _phasor, lumped_equivalent)

__all__ = [
    "NonPositiveResult",
    "QubitState",
    "Mode",
    "ParityDevice",
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


@dataclass(frozen=True)
class Mode:
    """One resonant mode and its probe coupling capacitor."""

    omega: float
    c_couple: float

    def __post_init__(self):
        for name in ("omega", "c_couple"):
            if not 0.0 < (value := getattr(self, name)) < math.inf:
                raise ValueError(f"mode {name} must be finite and > 0, got {value!r}")


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


def _signs(state: QubitState) -> tuple:
    return tuple(-1.0 if b else 1.0 for b in state.bits)


@functools.cache
def _weight_signs(n: int) -> tuple:
    """QubitState.of_weight(n, w)'s signs for w = 0..n, built once per n."""
    return tuple(_signs(QubitState.of_weight(n, w)) for w in range(n + 1))


def _pulled_rows(omegas, chi_matrix, signs) -> list:
    """The one state-to-modes rule: for each row of qubit ``signs``, every
    mode's omega + sum_j sign_j * chi_j down its chi_matrix column, summed in
    qubit order.  Refuses the first pull to or below zero, row then mode."""
    pulls = list(zip(*chi_matrix))
    rows = [[omega + sum([s * c for s, c in zip(row, chis)])
             for omega, chis in zip(omegas, pulls)] for row in signs]
    low = [shifted for row in rows for shifted in row if shifted <= 0.0]
    if low:
        raise NonPositiveResult(f"shifts drove mode frequency to {low[0]:.3e} rad/s")
    return rows


def _weight_rows(omegas, chi: float, n: int):
    """The weight rows' one pull rule: row w is the bare mode frequencies
    ``omegas`` (Python floats) pulled by QubitState.of_weight(n, w)'s signs
    under one ``chi``, its pull summed once for all modes in _pulled_rows'
    float order, bit for bit.  None where the omegas do not strictly rise or
    a pull leaves (0, inf) (a row's first entry is then its lowest, its last
    its highest): where a device with these modes and chi, or its weight
    table, is refused."""
    rows = [[omega + pull for omega in omegas]
            for pull in (sum([s * chi for s in signs]) for signs in _weight_signs(n))]
    increasing = all(a < b for a, b in zip(omegas, omegas[1:]))
    return rows if increasing and all(0.0 < r[0] and r[-1] < math.inf for r in rows) else None


def _state_row(dev: ParityDevice, state: QubitState) -> list:
    """The state's pulled mode frequencies, in mode order (_pulled_rows)."""
    if state.n != dev.n:
        raise ValueError(f"state has {state.n} qubits, device has {dev.n}")
    return _pulled_rows([mo.omega for mo in dev.modes], dev.chi_matrix, [_signs(state)])[0]


def _weight_table(dev: ParityDevice) -> np.ndarray:
    """Every Hamming weight's branch table, stacked (n + 1, m, columns), of
    the rows of _weight_rows: row w is weight_phase_curve(dev, w)'s, which
    stands for every weight-w state only under equal coupling, so an
    unequal chi matrix is refused first.  Where _weight_rows gives none,
    _pulled_rows sums them again to name a pull to or below zero, and
    network._branch_table refuses the rest.  No band is read."""
    if not dev.equal_chi:
        raise ValueError("weight rows stand for every state only under equal coupling, "
                         "not this chi matrix; read each state with state_phase_curve")
    omegas, chi = [mo.omega for mo in dev.modes], dev.chi_matrix[0][0]
    rows = (_weight_rows(omegas, chi, dev.n)
            or _pulled_rows(omegas, ((chi,) * dev.m,) * dev.n, _weight_signs(dev.n)))
    return _branch_table(dev.resonator_model == "stub", dev.z0,
                         [mo.c_couple for mo in dev.modes], rows)


def _weight_fold(dev: ParityDevice, omega, jets: bool = False):
    """theta of every Hamming weight along omega, one row per weight and one
    weight's table at a time (a long comb holds no (n + 1)-fold
    temporaries), or with ``jets`` the jets at one frequency from one fold
    of the whole _weight_table, as _rows_jets folds (network._fold_jets;
    d theta/d omega_r by branch, then weight).  Weight w's rows are
    weight_phase_curve(dev, w)'s, bit for bit."""
    table, stub = _weight_table(dev), dev.resonator_model == "stub"
    if jets:
        return _fold_jets(stub, dev.z0, table, _check_frequency(omega))
    w = _check_omega(omega)
    return np.array([_fold(stub, dev.z0, branches, w) for branches in table])


def _rows_jets(dev: ParityDevice, rows, omega: float):
    """The jets at omega of rows from _weight_rows with dev's couplers, as
    _weight_fold folds them: a solver point's fold, with no device built."""
    stub = dev.resonator_model == "stub"
    table = _branch_table(stub, dev.z0, [mo.c_couple for mo in dev.modes], rows)
    return _fold_jets(stub, dev.z0, table, _check_frequency(omega))


def _weight_phasors(dev: ParityDevice, omega) -> np.ndarray:
    """r = e^{i theta} of every Hamming weight along omega, one row per
    weight, from _weight_table by network._phasor, one weight at a time as
    _weight_fold's theta: what a mode sum reads, with no 2*pi offsets."""
    table = _weight_table(dev)
    stub, w = dev.resonator_model == "stub", _check_omega(omega)
    return np.array([_phasor(stub, dev.z0, branches, w) for branches in table])


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
