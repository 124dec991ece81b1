"""Array signal model for uniform linear arrays.

Steering vectors, the zeros of the selection (indication) function
a^H(phi0) a(phi), and the two helpers that ``steering_matrix`` shares
with the Monte Carlo draw: element positions under sensor-position
errors and steering stacks over physical and virtually extended
apertures. All angles are radians; degrees appear only at CLI and
config surfaces.
"""

import math

import numpy as np

HALF_PI = math.pi / 2
# Element spacing in wavelengths; the selection zeros assume it is 0.5.
SPACING_WL = 0.5
_ENDPOINT_TOL = 1e-12


def _element_positions(n, position_errors):
    """Positions in wavelengths of n elements at nominal spacing, plus the
    placement error of each physical element.

    A (..., n_physical) stack of errors gives a (..., n) stack of
    positions; elements past n_physical are virtual and stay nominal.
    """
    if n < 1:
        raise ValueError("need at least one element")
    errs = np.asarray(position_errors, dtype=float)
    pos = np.tile(np.arange(n) * SPACING_WL, (*errs.shape[:-1], 1))
    n_err = min(n, errs.shape[-1])
    pos[..., :n_err] += errs[..., :n_err]
    return pos


def _steering_grid(positions, sines):
    """Unit-norm array response columns, exp(j (2 pi positions) sin_j) / sqrt(n).

    (..., n) positions and (..., J) sines give a (..., n, J) stack. The
    phase is formed as (2 pi positions) * sin_j, in that order: it
    matches the documented snapshot draw protocol bit for bit, and
    2 pi (positions sin_j) does not.
    """
    phases = (2.0 * np.pi * positions)[..., :, None] * np.asarray(sines)[..., None, :]
    return np.exp(1j * phases) / math.sqrt(positions.shape[-1])


def steering_matrix(angles, n):
    """Stack unit-norm steering vectors of an n-element ULA as columns, one
    per angle.

    Angles are radians in [-pi/2, pi/2]; the closed interval admits the
    arcsin(-1) endpoint produced by selection_zeros, and angles within
    rounding of an endpoint are clamped to it. Element 0 is the phase
    reference, so it is exactly 1/sqrt(n).
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if not np.all(np.abs(angles) <= HALF_PI + _ENDPOINT_TOL):  # nan fails too
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    return _steering_grid(_element_positions(n, []), np.sin(np.clip(angles, -HALF_PI, HALF_PI)))


def steering_vector(angle, n):
    """Unit-norm ULA steering vector toward ``angle``.

    Parameters
    ----------
    angle : float
        Direction in radians, |angle| <= pi/2 (see ``steering_matrix``).
    n : int
        Element count, at least 1.

    Returns
    -------
    numpy.ndarray
        Complex vector of length n, the column of ``steering_matrix``.
    """
    return steering_matrix([float(angle)], n)[:, 0]


def selection_zeros(phi0, n):
    """The n-1 angles where the selection function about ``phi0`` vanishes.

    Returns sorted angles phi_m = arcsin(2 z/n + sin phi0) for every
    nonzero integer z in the half-open interval
    [ceil((-1 - sin phi0) n/2), (1 - sin phi0) n/2); the left endpoint is
    included (it can map to arcsin(-1) = -pi/2), the right excluded.
    Together with phi0 the corresponding steering vectors form an
    orthonormal basis of the n-dimensional space. Assumes half-wavelength
    spacing.
    """
    if n < 2:
        raise ValueError("need at least two elements for a nonempty zero set")
    phi0 = float(phi0)
    if not np.isfinite(phi0) or abs(phi0) >= HALF_PI:
        raise ValueError("phi0 must lie strictly inside (-pi/2, pi/2)")
    s0 = math.sin(phi0)
    lo = math.ceil((-1.0 - s0) * n / 2.0 - _ENDPOINT_TOL)
    hi = (1.0 - s0) * n / 2.0
    zs = np.array(
        [z for z in range(lo, math.ceil(hi) + 1) if z != 0 and z < hi - _ENDPOINT_TOL]
    )
    args = np.clip(2.0 * zs / n + s0, -1.0, 1.0)
    return np.sort(np.arcsin(args))

