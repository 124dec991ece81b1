"""Robust adaptive beamforming with subspace-projected covariance reconstruction.

The package models a uniform linear array whose physical aperture is
virtually extended, samples the Capon spectrum at the extension's
orthogonal selection zeros outside the look sector, and rebuilds an
interference-plus-noise covariance from the projected extended sample
covariance. Classical baselines and a Monte Carlo harness round it out.
"""

from .array_model import (
    ArrayGeometry,
    Scenario,
    SteeringVector,
    generate_snapshots,
    selection_function,
    selection_zeros,
    steering_matrix,
    steering_vector,
)
from .baselines import (
    BeamformerMethod,
    BeamformerWeights,
    SingularCovarianceError,
    capon_integral_ipnc,
    capon_integral_weights,
    conditioned_matrix,
    diagonal_loading_weights,
    distortionless_solve,
    optimal_weights,
    scm_mvdr_weights,
)
from .covariance import (
    CovarianceEstimate,
    CovarianceKind,
    extended_block,
    hermitize,
    sample_covariance,
    theoretical_covariance,
    true_ipnc,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    default_config,
    emit_csv,
    load_config,
    normalize_config,
    run_experiment,
)
from .lcssp import (
    LcsspConfig,
    NoConvergenceError,
    ProjectionMatrix,
    build_projection,
    estimate_interferer_directions,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
)
from .metrics import (
    BeampatternCurve,
    beampattern,
    default_beampattern_grid,
    output_sinr,
    sinr_deviation,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BeamformerMethod",
    "BeamformerWeights",
    "BeampatternCurve",
    "ConfigError",
    "CovarianceEstimate",
    "CovarianceKind",
    "ExperimentConfig",
    "LcsspConfig",
    "NoConvergenceError",
    "ProjectionMatrix",
    "Scenario",
    "SingularCovarianceError",
    "SteeringVector",
    "SweepResult",
    "beampattern",
    "build_projection",
    "capon_integral_ipnc",
    "capon_integral_weights",
    "conditioned_matrix",
    "default_beampattern_grid",
    "default_config",
    "diagonal_loading_weights",
    "distortionless_solve",
    "emit_csv",
    "estimate_interferer_directions",
    "extended_block",
    "generate_snapshots",
    "hermitize",
    "lcssp_weights",
    "load_config",
    "normalize_config",
    "normalized_error",
    "optimal_weights",
    "output_sinr",
    "reconstruct_ipnc",
    "run_experiment",
    "sample_covariance",
    "scm_mvdr_weights",
    "select_dimension",
    "selection_function",
    "selection_zeros",
    "sinr_deviation",
    "steering_matrix",
    "steering_vector",
    "theoretical_covariance",
    "true_ipnc",
    "__version__",
]
