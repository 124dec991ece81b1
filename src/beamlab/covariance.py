"""Covariance construction: sample, theoretical and true IPNC matrices.

Every function returns a Hermitian complex ``n x n`` numpy array.
"""

import numpy as np

from .array_model import steering_matrix


def hermitize(matrix):
    """Symmetrize (A + A^H)/2; downstream solvers assume exact Hermitian."""
    return (matrix + matrix.conj().T) / 2.0


def sample_covariance(snapshots):
    """Batch sample covariance (1/K) X X^H of an n x K snapshot matrix."""
    x = np.asarray(snapshots, dtype=complex)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise ValueError("snapshot matrix must be nonempty and two dimensional")
    return hermitize(x @ x.conj().T / x.shape[1])


def _source_covariance(scenario, n, directions, powers, use_true_geometry):
    geometry = scenario.geometry if use_true_geometry else None
    a = steering_matrix(directions, n, geometry)
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
    return _source_covariance(scenario, n, directions, powers, use_true_geometry)


def true_ipnc(scenario, n):
    """Interference-plus-noise covariance with true directions and geometry.

    Evaluation ground truth only; never available to a beamformer.
    """
    if n < scenario.geometry.n_physical:
        raise ValueError("dimension below physical count")
    return _source_covariance(
        scenario,
        n,
        scenario.interferer_directions_true,
        scenario.interferer_powers,
        use_true_geometry=True,
    )
