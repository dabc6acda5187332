"""Mean-field linear-quadratic control with moment-based verification.

The package solves control problems whose cost couples to the state's law
through its first two moments.  A quadratic ansatz reduces the dynamic
programming equation on measures to a three-component Riccati system; the
optimal feedback is linear in the state and the mean.  Two independent
verification routes are built in: a deterministic oracle (a linear law's
cost from every initial law, as backward cost coefficients) and an
interacting-particle Monte Carlo simulation, both of which also cover the
partially observed case via the prediction process.
"""

__version__ = "0.1.0"

from .errors import (AssumptionError, ConfigError, DomainError,
                     FiniteEscapeError, SimulationDivergedError)
from .model import (Coefficient, MeasureMoments, ProblemSpec,
                    ValidationResult, as_coefficient, validate_spec)
from .riccati import (DIVERGENCE_LIMIT, RiccatiSolution, closed_form,
                      solve_riccati)
from .control import FeedbackLaw, optimal_feedback, residual_sweep, value_function
from .simulate import (CloudTrajectory, CostCoefficients, CostReport,
                       SimConfig, cost_coefficients, cost_from_cloud,
                       evolve_cloud)
from .partial_obs import (PartialObsSpec, Reduction, cost_decomposition_check,
                          error_variance, reduced_problem)
from .checks import EM_BIAS_CONST, mc_tolerance
from .presets import PRESET_NAMES, partial_preset, preset, scalar_preset
from .config import ResolvedConfig, load_config, parse_config

__all__ = [
    "__version__",
    # errors
    "AssumptionError", "ConfigError", "DomainError", "FiniteEscapeError",
    "SimulationDivergedError",
    # model
    "Coefficient", "MeasureMoments", "ProblemSpec", "ValidationResult",
    "as_coefficient", "validate_spec",
    # riccati
    "DIVERGENCE_LIMIT", "RiccatiSolution", "closed_form", "solve_riccati",
    # control
    "FeedbackLaw", "optimal_feedback", "residual_sweep", "value_function",
    # simulate
    "CloudTrajectory", "CostCoefficients", "CostReport", "EM_BIAS_CONST",
    "SimConfig", "cost_coefficients", "cost_from_cloud", "evolve_cloud",
    "mc_tolerance",
    # partial observation
    "PartialObsSpec", "Reduction", "cost_decomposition_check",
    "error_variance", "reduced_problem",
    # presets and config
    "PRESET_NAMES", "partial_preset", "preset", "scalar_preset",
    "ResolvedConfig", "load_config", "parse_config",
]
