"""Evaluation metrics: output SINR, deviation from optimal, beampatterns."""

from dataclasses import dataclass

import numpy as np

from .array_model import steering_matrix, steering_vector
from .baselines import optimal_weights
from .covariance import true_ipnc


@dataclass(frozen=True, eq=False)
class BeampatternCurve:
    """Normalized gain versus angle; peak pinned at exactly 0 dB."""

    angles: np.ndarray
    gains_db: np.ndarray


def output_sinr(weights, soi_power, true_sv, ipnc):
    """Output SINR in dB against the true steering vector and true IPNC.

    10 log10( soi_power |w^H a|^2 / (w^H R w) ); the denominator uses the
    interference-plus-noise covariance only, so the optimal weights
    maximize this over all w.
    """
    w = weights.values
    num = soi_power * abs(np.vdot(w, true_sv.values)) ** 2
    den = float(np.real(np.vdot(w, ipnc.matrix @ w)))
    if den <= 0:
        raise ValueError("nonpositive interference-plus-noise power; weights invalid")
    with np.errstate(divide="ignore"):
        return float(10.0 * np.log10(num / den))


def sinr_deviation(weights, scenario):
    """Optimal output SINR minus the achieved one, in dB; nonnegative."""
    m = len(weights.values)
    ipnc = true_ipnc(scenario, m)
    tsv = steering_vector(scenario.soi_direction_true, m, scenario.geometry)
    w_opt = optimal_weights(ipnc, tsv)
    best = output_sinr(w_opt, scenario.soi_power, tsv, ipnc)
    return best - output_sinr(weights, scenario.soi_power, tsv, ipnc)


def default_beampattern_grid():
    """1801 angles over [-90, 90] degrees at 0.1 degree steps, in radians."""
    return np.deg2rad(np.arange(-900, 901) * 0.1)


def beampattern(weights, grid):
    """Normalized response 20 log10 |w^H a(theta)| over ``grid`` (radians).

    Nominal-geometry steering vectors by convention; the curve is shifted
    so its maximum is exactly 0 dB, making it invariant to any nonzero
    scaling of the weights.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("angle grid must be nonempty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0):
        raise ValueError("angle grid must be strictly increasing")
    steer = steering_matrix(grid, len(weights.values))
    response = np.abs(weights.values.conj() @ steer)
    gains = 20.0 * np.log10(np.maximum(response, 1e-300))
    gains -= gains.max()
    return BeampatternCurve(angles=grid, gains_db=gains)
