"""Observer-based output-feedback vibration control of a hinged piezo beam.

Modal truncation of the damped beam equation, Luenberger observer plus
state feedback designed by pole placement, steady-state-bound gain tuning,
fixed-step simulation of the coupled plant/observer/residual dynamics, and
spillover bound evaluation.
"""

from .analysis import (
    BoundReport,
    PerformanceMetrics,
    ResidualReport,
    TailStudy,
    build_bound_report,
    damping_decay_rates,
    error_bound_curve,
    performance_metrics,
    residual_bounds,
    residual_tail_study,
    state_bound_curve,
)
from .beam import (
    BeamParams,
    PhysicalBeam,
    nondimensionalize,
)
from .config import ExperimentConfig, load_config, resolve_config
from .errors import (
    ConfigError,
    DivergenceError,
    InternalConsistencyError,
    NoFeasibleGainError,
    PlacementError,
    SingularControllabilityError,
    UnstableMatrixError,
)
from .modal import (
    DampingModel,
    ModalSystem,
    Placement,
    ResidualBlock,
    actuator_gain,
    assemble,
    residual_block,
    resonant_frequencies,
)
from .signals import (
    DisturbanceSpec,
    Harmonic,
    NoiseSpec,
    NoiseWaveform,
    build_disturbance,
    constant_disturbance,
    modal_force,
    polyharmonic_disturbance,
    tail_disturbance,
)
from .simulate import (
    Coupling,
    SimConfig,
    SimulationResult,
    simulate,
    simulate_residual_mode,
    stability_cap,
)
from .synthesis import (
    GainSet,
    PlacementVerdict,
    check_placement,
    decay_rate,
    eigvec_condition,
    place_observer_poles,
    place_poles,
    radial_pole_targets,
    tune_gains,
)

__version__ = "0.1.0"
