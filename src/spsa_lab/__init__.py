"""Gradient-free optimization with stabilized single-sample perturbation updates.

Provides the one- and two-sample simultaneous-perturbation recursions
with oblivious or iterate-dependent exploration gains, iid and
difference-correlated (zigzag) probe streams, mean-field and flow
analysis, and a reproducible ensemble experiment harness with a CLI.
"""

from .core import DivergenceGuard, run_batch
from .ensemble import (
    DeltaDecomposition,
    batch_means_covariance,
    batch_means_cross_covariance,
    delta_decompose,
    run_ensemble_matrix,
    scaled_covariance,
    scaling_fit,
)
from .exploration import BaseNoise, ProbeGenerator, derive_seed, regeneration_test
from .meanflow import (
    EquilibriumReport,
    FlowTrajectory,
    MeanFieldEvaluator,
    SolverError,
    bias_sweep,
    find_equilibrium,
    gradient_flow_field,
    integrate_flow,
    monte_carlo_field,
)
from .objectives import (
    Objective,
    builtin_objective,
    grad_check,
    quadratic_1d,
    quadratic_nd,
    trig_quadratic_1d,
)
from .schedules import (
    CenterActiveGain,
    ConstantGain,
    DecayingGain,
    ExplorationGain,
    GainFloorError,
    ObjectiveActiveGain,
    StepSizeSchedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaseNoise",
    "CenterActiveGain",
    "ConstantGain",
    "DecayingGain",
    "DeltaDecomposition",
    "DivergenceGuard",
    "EquilibriumReport",
    "ExplorationGain",
    "FlowTrajectory",
    "GainFloorError",
    "MeanFieldEvaluator",
    "Objective",
    "ObjectiveActiveGain",
    "ProbeGenerator",
    "SolverError",
    "StepSizeSchedule",
    "batch_means_covariance",
    "batch_means_cross_covariance",
    "bias_sweep",
    "builtin_objective",
    "delta_decompose",
    "derive_seed",
    "find_equilibrium",
    "grad_check",
    "gradient_flow_field",
    "integrate_flow",
    "monte_carlo_field",
    "quadratic_1d",
    "quadratic_nd",
    "regeneration_test",
    "run_batch",
    "run_ensemble_matrix",
    "scaled_covariance",
    "scaling_fit",
    "trig_quadratic_1d",
]
