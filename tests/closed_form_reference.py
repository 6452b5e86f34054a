"""Reference closed forms for tests: algebraic twins of qparity.fidelity's
closed forms, written another way, that the acceptance criteria compare
against."""

from __future__ import annotations

import math

from qparity.fidelity import _mean_photons


def quadratic_closed_radical(alpha: complex, b2: float, bandwidth: float) -> float:
    """Real-radical form of the quadratic overlap, algebraically equal to
    fidelity_quadratic_closed:
    F = exp(-|alpha|^2 (1 - sqrt((1 + sqrt(1 + 4 x^2)) / (2 + 8 x^2)))),
    x = b2 W^2."""
    a2 = _mean_photons(alpha)
    x = b2 * bandwidth ** 2
    inner = math.sqrt(1.0 + 4.0 * x * x)
    return math.exp(-a2 * (1.0 - math.sqrt((1.0 + inner) / (2.0 + 8.0 * x * x))))
