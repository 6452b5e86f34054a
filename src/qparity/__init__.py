"""Design toolkit for direct multi-qubit parity measurement in circuit QED.

Models qubit-state-dependent microwave reflection networks, solves the
quantum-eraser phase conditions for probe frequency and dispersive coupling,
and quantifies measurement fidelity for finite-bandwidth coherent probes.
"""

from .network import (
    Capacitor,
    Inductor,
    NetworkError,
    Parallel,
    PhaseCurve,
    PhaseProfile,
    QuarterWaveStub,
    RefinementLimit,
    Series,
    lumped_equivalent,
    phase_sweep,
    reflection_coefficient,
    wrap_phase,
)
from .device import (
    Mode,
    NonPositiveResult,
    ParityDevice,
    QubitState,
    analysis_band,
    state_phase_curve,
    weight_phase_curve,
)
from .eraser import (
    DispersionReport,
    EraserDegenerate,
    EraserError,
    EraserSolution,
    InfeasibleDevice,
    NoSolution,
    PoleCollision,
    contrast,
    dispersion_report,
    eraser_residuals,
    min_modes_required,
    solution_to_dict,
    solve_eraser,
)
from .fidelity import (
    FidelityReport,
    ModeGrid,
    ProbePulse,
    build_mode_grid,
    eraser_quality,
    fidelity_even_odd,
    fidelity_linear_closed,
    fidelity_numeric,
    fidelity_quadratic_closed,
    linear_expansion,
    quadratic_expansion,
)
from .cascade import (
    ComparisonReport,
    compare_schemes,
    tune_cascade,
)
from .estimates import (
    HBAR,
    estimate_report,
    kappa_from_coupling,
    measurement_time,
    measurement_time_angular,
    peak_power,
    purcell_t1,
    purcell_t1_angular,
)

__version__ = "1.0.0"
