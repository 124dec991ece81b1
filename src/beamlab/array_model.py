"""Array signal model for uniform linear arrays.

Steering vectors, the zeros of the selection (indication) function
a^H(phi0) a(phi), and snapshot synthesis for physical and virtually
extended arrays under direction and sensor-position mismatch. All angles
are radians; degrees appear only at CLI and config surfaces.
"""

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2
# Element spacing in wavelengths; the selection zeros assume it is 0.5.
SPACING_WL = 0.5
MAX_POSITION_ERROR_WL = 0.25
_ENDPOINT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Physical ULA description at half-wavelength spacing.

    ``position_errors`` holds per-element placement errors in wavelengths
    (zeros for nominal geometry). Virtual elements past ``n_physical``
    always sit at exact nominal spacing: they are synthetic, so no
    placement error applies to them.
    """

    n_physical: int
    position_errors: np.ndarray = None

    def __post_init__(self):
        if self.n_physical < 1:
            raise ValueError("n_physical must be at least 1")
        errs = self.position_errors
        if errs is None:
            errs = np.zeros(self.n_physical)
        else:
            errs = np.asarray(errs, dtype=float)
        if errs.shape != (self.n_physical,):
            raise ValueError("position_errors must have length n_physical")
        if np.any(np.abs(errs) > MAX_POSITION_ERROR_WL):
            raise ValueError("position errors above a quarter wavelength are not sane")
        object.__setattr__(self, "position_errors", errs)

    def positions(self, n):
        """Element positions in wavelengths for an n-element (virtual) array."""
        return _element_positions(n, self.position_errors)


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


def steering_matrix(angles, n, geometry=None):
    """Stack unit-norm steering vectors as columns, one per angle.

    Angles are radians in [-pi/2, pi/2]; the closed interval admits the
    arcsin(-1) endpoint produced by selection_zeros, and angles within
    rounding of an endpoint are clamped to it. Phases are referenced to
    element 0, so element 0 is exactly 1/sqrt(n) regardless of geometry
    perturbations. Elements past ``geometry.n_physical`` are virtual.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if not np.all(np.abs(angles) <= HALF_PI + _ENDPOINT_TOL):  # nan fails too
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    errs = [] if geometry is None else geometry.position_errors
    pos = _element_positions(n, errs)
    return _steering_grid(pos - pos[..., :1], np.sin(np.clip(angles, -HALF_PI, HALF_PI)))


def steering_vector(angle, n, geometry=None):
    """Unit-norm ULA steering vector toward ``angle``.

    Parameters
    ----------
    angle : float
        Direction in radians, |angle| <= pi/2 (see ``steering_matrix``).
    n : int
        Element count; indices past ``geometry.n_physical`` are virtual.
    geometry : ArrayGeometry, optional
        Perturbed geometry; nominal positions when omitted.

    Returns
    -------
    numpy.ndarray
        Complex vector of length n, the column of ``steering_matrix``.
    """
    return steering_matrix([float(angle)], n, geometry)[:, 0]


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


@dataclass(frozen=True, eq=False)
class Scenario:
    """Ground truth for one Monte Carlo run.

    True quantities drive data generation and evaluation; presumed and
    nominal ones are what the beamformers are allowed to know. Source
    powers are linear (not dB). Zero source power is allowed for
    noise-only studies; noise power must be positive.
    """

    soi_direction_true: float
    soi_direction_presumed: float
    interferer_directions_true: np.ndarray
    interferer_directions_nominal: np.ndarray
    soi_power: float
    interferer_powers: np.ndarray
    noise_power: float
    geometry: ArrayGeometry

    def __post_init__(self):
        for name in ("interferer_directions_true", "interferer_directions_nominal"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(
            self, "interferer_powers", np.atleast_1d(np.asarray(self.interferer_powers, dtype=float))
        )
        p = len(self.interferer_directions_true)
        if len(self.interferer_directions_nominal) != p or len(self.interferer_powers) != p:
            raise ValueError("interferer direction and power vectors must share a length")
        dirs = np.concatenate(
            (
                [self.soi_direction_true, self.soi_direction_presumed],
                self.interferer_directions_true,
                self.interferer_directions_nominal,
            )
        )
        if np.any(np.abs(dirs) >= HALF_PI):
            raise ValueError("directions must lie strictly inside (-pi/2, pi/2)")
        if self.soi_power < 0 or np.any(self.interferer_powers < 0):
            raise ValueError("source powers must be nonnegative")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")


def _normal_blocks(n_rows, ks, seed, out=None):
    """Complex standard normals of seed's stream, an (n_rows, k) block per k.

    The stream is drawn once, for the largest k, into a new array or into
    the leading entries of the float buffer ``out``; each block, in the
    order of ``ks``, is a view of its first 2 n_rows k numbers read as
    complex pairs. For n_rows = P + 1 + n that is the k draw of
    ``generate_snapshots``: the waveform rows of [SOI, *interferers],
    then the noise rows.
    """
    size = 2 * n_rows * max(ks)
    flat = np.empty(size) if out is None else out[:size]
    np.random.default_rng(seed).standard_normal(out=flat)
    for k in ks:
        yield flat[: 2 * n_rows * k].view(complex).reshape(n_rows, k)


def generate_snapshots(scenario, n_elements, k, seed):
    """Synthesize k array snapshots at dimension ``n_elements``.

    Column t is s(t) a(soi) + sum_p i_p(t) a(interferer_p) + noise, with
    waveforms and noise drawn as i.i.d. circular complex Gaussians (two
    real normals of variance sigma^2/2 per sample). True directions and
    true geometry apply to the first ``geometry.n_physical`` rows; rows
    beyond are virtual elements at nominal positions. Deterministic for a
    given seed, and the first M rows of an L-element draw equal the
    M-element draw with the same seed. The k draw takes the first
    2 k (P + 1 + n) normals of the seed's stream, the waveforms' before
    the noise's, so at one seed and dimension the draw of every k is
    read from a prefix of the largest k's stream.
    """
    if n_elements < scenario.geometry.n_physical:
        raise ValueError("extended dimension must not be below the physical element count")
    if k < 1:
        raise ValueError("need at least one snapshot")
    directions = [scenario.soi_direction_true, *scenario.interferer_directions_true]
    powers = np.array([scenario.soi_power, *scenario.interferer_powers])
    (z,) = _normal_blocks(len(powers) + n_elements, [k], seed)
    waveforms = np.sqrt(powers / 2.0)[:, None] * z[: len(powers)]
    steer = steering_matrix(directions, n_elements, scenario.geometry)
    x = np.zeros((n_elements, k), dtype=complex)
    for sv, waveform in zip(steer.T, waveforms):
        x += np.outer(sv, waveform)
    x += math.sqrt(scenario.noise_power / 2.0) * z[len(powers) :]
    return x
