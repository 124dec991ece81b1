"""Evaluation metrics: output SINR and normalized beampattern gains."""

import numpy as np

from .baselines import inner


def output_sinr(weights, soi_power, true_sv, ipnc):
    """Output SINR in dB against the true steering vector and true IPNC.

    10 log10( soi_power |w^H a|^2 / (w^H R w) ); the denominator uses the
    interference-plus-noise covariance only, so the optimal weights
    maximize this over all w.

    Also takes (..., n) weights, (...) powers, (..., n) steering vectors
    and (..., n, n) IPNCs whose leading axes broadcast together, and
    returns the broadcast values; a nonpositive denominator at any item
    raises LinAlgError, a ValueError, for the whole stack. A point fails
    when its method raises a LinAlgError; any other exception stops the run.
    """
    w = np.asarray(weights)
    num = soi_power * np.abs(inner(w, true_sv)) ** 2
    den = inner(w, (ipnc @ w[..., None])[..., 0]).real
    if np.any(den <= 0):
        raise np.linalg.LinAlgError("nonpositive interference-plus-noise power; weights invalid")
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = 10.0 * np.log10(num / den)
    return float(sinr) if w.ndim == 1 else sinr


def beampattern_grid_deg():
    """1801 angles over [-90, 90] degrees at 0.1 degree steps."""
    return np.arange(-900, 901) * 0.1


def default_beampattern_grid():
    """``beampattern_grid_deg()`` in radians."""
    return np.deg2rad(beampattern_grid_deg())


def pattern_gains_db(weights, steer):
    """Gains 20 log10 |w^H a_j| over the columns of ``steer``, peak at 0 dB.

    ``weights`` may be a (..., n) stack; each curve is normalized on its own.
    """
    response = np.abs(weights.conj() @ steer)
    gains = 20.0 * np.log10(np.maximum(response, 1e-300))
    return gains - gains.max(axis=-1, keepdims=True)
