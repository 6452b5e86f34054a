"""Back-of-envelope engineering numbers: Purcell T1, measurement time, power.

All functions take angular frequencies (rad/s).  Where the literature quotes
plain MHz/GHz values into ratio formulas, the arithmetic is reproduced by
converting to ordinary (cyclic) frequencies first; every report entry is
tagged with the convention used so the ambiguity stays visible.
"""

from __future__ import annotations

import math

__all__ = [
    "HBAR",
    "NonFiniteEstimate",
    "purcell_t1",
    "purcell_t1_angular",
    "measurement_time",
    "measurement_time_angular",
    "peak_power",
    "kappa_from_coupling",
    "estimate_report",
]

TWO_PI = 2.0 * math.pi
HBAR = 1.054571817e-34  # J*s


class NonFiniteEstimate(ValueError):
    """An estimate left float range; ``inputs`` names the estimate_report
    arguments it is computed from."""

    def __init__(self, result: str, inputs: tuple):
        super().__init__(f"{result} is out of float range")
        self.inputs = inputs


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if value is None or not value > 0.0:  # nan too; inf is estimate_report's
            raise ValueError(f"{name} must be > 0, got {value}")


def purcell_t1(delta: float, kappa: float, chi: float) -> float:
    """Purcell-limited qubit lifetime T1 = delta/(kappa*chi).

    Inputs are angular; the ratio is evaluated with cyclic frequencies
    (x/2pi), which is the arithmetic that reproduces the quoted hundreds of
    microseconds for GHz detuning and MHz rates.  See purcell_t1_angular for
    the all-angular evaluation.
    """
    _require_positive(delta=delta, kappa=kappa, chi=chi)
    return (delta / TWO_PI) / ((kappa / TWO_PI) * (chi / TWO_PI))


def purcell_t1_angular(delta: float, kappa: float, chi: float) -> float:
    """Same ratio with all quantities kept angular (2*pi smaller)."""
    _require_positive(delta=delta, kappa=kappa, chi=chi)
    return delta / (kappa * chi)


def measurement_time(chi: float, safety_factor: float = 10.0) -> float:
    """Measurement time T = safety_factor / (chi/2pi).

    safety_factor 10 keeps the pulse bandwidth a small fraction of the
    resonance width; 1 is the optimistic bound.
    """
    _require_positive(chi=chi, safety_factor=safety_factor)
    return safety_factor / (chi / TWO_PI)


def measurement_time_angular(chi: float, safety_factor: float = 10.0) -> float:
    _require_positive(chi=chi, safety_factor=safety_factor)
    return safety_factor / chi


def peak_power(alpha_sq: float, omega_p: float, duration: float) -> tuple[float, float]:
    """Peak pulse power P = |alpha|^2 * hbar * omega_p / T as (watts, dBm)."""
    if not alpha_sq >= 0.0:  # refuses nan too
        raise ValueError(f"alpha_sq must be >= 0, got {alpha_sq}")
    _require_positive(omega_p=omega_p, duration=duration)
    watts = alpha_sq * HBAR * omega_p / duration
    dbm = 10.0 * math.log10(watts / 1e-3) if watts > 0.0 else -math.inf
    return watts, dbm


def kappa_from_coupling(c_couple: float, z0: float, omega_r: float) -> float:
    """External loss rate of a capacitively coupled quarter-wave resonator.

    kappa = (4/pi) * omega_r**3 * C**2 * Z0**2 (rad/s); an order-of-magnitude
    estimator only -- use a measured kappa when available.
    """
    _require_positive(c_couple=c_couple, z0=z0, omega_r=omega_r)
    return (4.0 / math.pi) * omega_r ** 3 * c_couple ** 2 * z0 ** 2


def estimate_report(delta: float, kappa: float, chi: float, alpha_sq: float,
                    omega_p: float, duration: float) -> dict:
    """All estimates with both frequency conventions, tagged.

    Raises NonFiniteEstimate when a result overflows float range.
    """
    t1 = purcell_t1(delta, kappa, chi), purcell_t1_angular(delta, kappa, chi)
    tm = measurement_time(chi), measurement_time_angular(chi), measurement_time(chi, 1.0)
    watts, dbm = peak_power(alpha_sq, omega_p, duration)
    for result, values, inputs in (("Purcell T1", t1, ("delta", "kappa", "chi")),
                                   ("measurement time", tm, ("chi",)),
                                   ("peak power", (watts,), ("alpha_sq", "omega_p",
                                                             "duration"))):
        if not all(map(math.isfinite, values)):
            raise NonFiniteEstimate(result, inputs)
    return {
        "inputs": {
            "delta_Hz": delta / TWO_PI,
            "kappa_Hz": kappa / TWO_PI,
            "chi_Hz": chi / TWO_PI,
            "alpha_sq": alpha_sq,
            "f_p_Hz": omega_p / TWO_PI,
            "T_s": duration,
        },
        "purcell_T1_s": {
            "cyclic": t1[0],
            "angular": t1[1],
            "convention_note": (
                "cyclic: MHz/GHz inputs read as ordinary frequencies "
                "(reproduces the quoted ~1e2 us scale); angular: literal "
                "rad/s ratio, 2*pi shorter"
            ),
        },
        "measurement_time_s": {
            "cyclic": tm[0],
            "angular": tm[1],
            "safety_factor": 10.0,
            "optimistic_cyclic": tm[2],
            "convention_note": (
                "cyclic: T = 10/(chi/2pi) (reproduces the quoted ~us scale); "
                "angular: T = 10/chi"
            ),
        },
        "peak_power": {
            "watts": watts,
            "dBm": dbm if watts > 0.0 else None,  # JSON has no -inf
            "convention_note": "photon energy hbar*omega_p with angular omega_p",
        },
        "kappa_estimate_note": (
            "kappa here is an input; kappa_from_coupling() gives an "
            "order-of-magnitude estimate from the coupling capacitor"
        ),
    }
