"""Covariance construction: sample, theoretical, true IPNC, block forms."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .array_model import steering_matrix


class CovarianceKind(str, Enum):
    SAMPLE = "sample"
    THEORETICAL = "theoretical"
    TRUE_IPNC = "true_ipnc"
    RECONSTRUCTED = "reconstructed"


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Hermitian complex matrix tagged with its provenance."""

    matrix: np.ndarray
    n: int
    kind: CovarianceKind


def hermitize(matrix):
    """Symmetrize (A + A^H)/2; downstream solvers assume exact Hermitian."""
    return (matrix + matrix.conj().T) / 2.0


def sample_covariance(snapshots):
    """Batch sample covariance (1/K) X X^H of an n x K snapshot matrix."""
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("snapshot matrix must be nonempty and two dimensional")
    r = hermitize(x @ x.conj().T / x.shape[1])
    return CovarianceEstimate(matrix=r, n=x.shape[0], kind=CovarianceKind.SAMPLE)


def _source_covariance(scenario, n, directions, powers, use_true_geometry):
    geometry = scenario.geometry if use_true_geometry else None
    a = steering_matrix(
        directions, n, geometry, scenario.geometry.spacing_wavelengths
    )
    r = (a * np.asarray(powers, dtype=float)) @ a.conj().T
    r += scenario.noise_power * np.eye(n)
    return hermitize(r)


def theoretical_covariance(scenario, n, use_true_geometry=True):
    """Exact covariance sum_p power_p a_p a_p^H + noise I at dimension n.

    Uses the scenario's true directions; ``use_true_geometry`` switches
    between perturbed and nominal element positions.
    """
    if use_true_geometry and n < scenario.geometry.n_physical:
        raise ValueError("dimension below physical count with true geometry")
    directions = [scenario.soi_direction_true, *scenario.interferer_directions_true]
    powers = [scenario.soi_power, *scenario.interferer_powers]
    r = _source_covariance(scenario, n, directions, powers, use_true_geometry)
    return CovarianceEstimate(matrix=r, n=n, kind=CovarianceKind.THEORETICAL)


def true_ipnc(scenario, n):
    """Interference-plus-noise covariance with true directions and geometry.

    Evaluation ground truth only; never available to a beamformer.
    """
    if n < scenario.geometry.n_physical:
        raise ValueError("dimension below physical count")
    r = _source_covariance(
        scenario,
        n,
        scenario.interferer_directions_true,
        scenario.interferer_powers,
        use_true_geometry=True,
    )
    return CovarianceEstimate(matrix=r, n=n, kind=CovarianceKind.TRUE_IPNC)


def extended_block(cov, m):
    """Top-left m x m principal submatrix; preserves Hermitian PSD structure."""
    if m < 1 or m > cov.n:
        raise ValueError("block size must lie in [1, n]")
    return CovarianceEstimate(matrix=cov.matrix[:m, :m].copy(), n=m, kind=cov.kind)
