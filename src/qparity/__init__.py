"""Design toolkit for direct multi-qubit parity measurement in circuit QED.

Models qubit-state-dependent microwave reflection networks, solves the
quantum-eraser phase conditions for probe frequency and dispersive coupling,
and quantifies measurement fidelity for finite-bandwidth coherent probes.
"""

# each module's __all__ is its public API; the package re-exports them all,
# so a public name is listed once, beside its definition
from .network import *  # noqa: F403
from .device import *  # noqa: F403
from .eraser import *  # noqa: F403
from .fidelity import *  # noqa: F403
from .cascade import *  # noqa: F403
from .estimates import *  # noqa: F403

__version__ = "1.0.0"
