"""Evaluation metrics: output SINR, deviation from optimal, beampatterns."""

from dataclasses import dataclass

import numpy as np

from .array_model import steering_matrix, steering_vector
from .baselines import inner, optimal_weights, record_failure
from .covariance import true_ipnc


@dataclass(frozen=True, eq=False)
class BeampatternCurve:
    """Normalized gain versus angle; peak pinned at exactly 0 dB."""

    angles: np.ndarray
    gains_db: np.ndarray


def output_sinr(weights, soi_power, true_sv, ipnc, failures=None):
    """Output SINR in dB against the true steering vector and true IPNC.

    10 log10( soi_power |w^H a|^2 / (w^H R w) ); the denominator uses the
    interference-plus-noise covariance only, so the optimal weights
    maximize this over all w.

    Also takes (B, n) weights with (B,) powers, (B, n) steering vectors
    and (B, n, n) IPNCs and returns (B,) values; a nonpositive
    denominator raises ValueError, or with a ``failures`` dict is stored
    under the item's index (see ``baselines``) and gives nan.
    """
    w = np.asarray(weights)
    num = soi_power * np.abs(inner(w, true_sv)) ** 2
    den = inner(w, (ipnc @ w[..., None])[..., 0]).real
    bad = den <= 0
    for i in np.flatnonzero(np.atleast_1d(bad)):
        record_failure(
            failures, i, ValueError("nonpositive interference-plus-noise power; weights invalid")
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(bad, np.nan, 10.0 * np.log10(num / den))
    return float(sinr) if w.ndim == 1 else sinr


def sinr_deviation(weights, scenario):
    """Optimal output SINR minus the achieved one, in dB; nonnegative."""
    m = len(weights)
    ipnc = true_ipnc(scenario, m)
    tsv = steering_vector(scenario.soi_direction_true, m, scenario.geometry)
    w_opt = optimal_weights(ipnc, tsv)
    best = output_sinr(w_opt, scenario.soi_power, tsv, ipnc)
    return best - output_sinr(weights, scenario.soi_power, tsv, ipnc)


def beampattern_grid_deg():
    """1801 angles over [-90, 90] degrees at 0.1 degree steps."""
    return np.arange(-900, 901) * 0.1


def default_beampattern_grid():
    """``beampattern_grid_deg()`` in radians."""
    return np.deg2rad(beampattern_grid_deg())


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
    steer = steering_matrix(grid, len(weights))
    return BeampatternCurve(angles=grid, gains_db=pattern_gains_db(weights, steer))


def pattern_gains_db(weights, steer):
    """Gains 20 log10 |w^H a_j| over the columns of ``steer``, peak at 0 dB.

    ``weights`` may be a (..., n) stack; each curve is normalized on its own.
    """
    response = np.abs(weights.conj() @ steer)
    gains = 20.0 * np.log10(np.maximum(response, 1e-300))
    return gains - gains.max(axis=-1, keepdims=True)
