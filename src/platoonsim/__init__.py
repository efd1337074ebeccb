"""Mixed-platoon car-following simulation and AV controller tuning."""

from .controller import (
    ControllerParams,
    beta_upper_bound,
    validate_controller_conditions,
)
from .dynamics import (
    IdmParams,
    OvrvParams,
    equilibrium_spacing,
    rdc_check,
)
from .metrics import (
    FuelCoefficients,
    MetricsReport,
    default_fuel_coefficients,
    load_fuel_coefficients,
    summarize,
)
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    descent_direction,
    objective_j,
    optimize,
    project_feasible,
)
from .simulator import (
    ControllerConfig,
    LeadProfile,
    Scenario,
    Trajectory,
    check_safety,
    place_avs,
    simulate,
)

__version__ = "0.1.0"
