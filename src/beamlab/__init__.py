"""Robust adaptive beamforming with subspace-projected covariance reconstruction.

The package models a uniform linear array whose physical aperture is
virtually extended, samples the Capon spectrum at the extension's
orthogonal selection zeros outside the look sector, and rebuilds an
interference-plus-noise covariance from the projected extended sample
covariance. Classical baselines and a Monte Carlo harness round it out.
Library functions take and return plain numpy arrays.
"""

from .array_model import selection_zeros, steering_matrix, steering_vector
from .baselines import (
    SingularCovarianceError,
    capon_integral_ipnc,
    capon_integral_weights,
    conditioned_matrix,
    diagonal_loading_weights,
    distortionless_solve,
    hermitize,
    optimal_weights,
    scm_mvdr_weights,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    default_config,
    load_config,
    normalize_config,
)
from .harness import SweepResult, emit_csv, run_experiment
from .lcssp import (
    LcsspConfig,
    NoConvergenceError,
    build_projection,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
)
from .metrics import (
    default_beampattern_grid,
    output_sinr,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "LcsspConfig",
    "NoConvergenceError",
    "SingularCovarianceError",
    "SweepResult",
    "build_projection",
    "capon_integral_ipnc",
    "capon_integral_weights",
    "conditioned_matrix",
    "default_beampattern_grid",
    "default_config",
    "diagonal_loading_weights",
    "distortionless_solve",
    "emit_csv",
    "hermitize",
    "lcssp_weights",
    "load_config",
    "normalize_config",
    "normalized_error",
    "optimal_weights",
    "output_sinr",
    "reconstruct_ipnc",
    "run_experiment",
    "scm_mvdr_weights",
    "select_dimension",
    "selection_zeros",
    "steering_matrix",
    "steering_vector",
    "__version__",
]
