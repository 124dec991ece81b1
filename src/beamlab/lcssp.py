"""Projection-based IPNC reconstruction on a virtually extended array.

Pipeline: pick an extended dimension L whose selection-zero steering basis
approximates the interferers well enough, project the extended sample
covariance onto the basis vectors outside the look sector, and take the
physical-size block as the interference-plus-noise covariance estimate.
The zero-set formula assumes half-wavelength element spacing.
"""

from dataclasses import dataclass

import numpy as np

from .array_model import selection_zeros, steering_matrix
from .baselines import conditioned_matrix, distortionless_solve
from .covariance import hermitize


class NoConvergenceError(RuntimeError):
    """No dimension up to l_max met the normalized-error threshold."""

    def __init__(self, message, best_l=None, best_error=None):
        super().__init__(message)
        self.best_l = best_l
        self.best_error = best_error


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Orthogonal projector onto retained basis steering vectors.

    ``retained_angles`` are the selection zeros outside the look sector;
    ``excluded_angles`` are the zeros inside it plus the sector center.
    Hermitian, idempotent, rank equal to the retained count.
    """

    matrix: np.ndarray
    dim: int
    retained_angles: np.ndarray
    excluded_angles: np.ndarray


@dataclass(frozen=True, eq=False)
class LcsspConfig:
    """Knobs for projector construction and dimension selection.

    ``l_initial`` doubles as the physical element count M (the search
    starts there and the reconstructed block has that size). ``fixed_l``
    skips the threshold search and pins the extended dimension. ``l_max``
    defaults to 8 * l_initial.
    """

    presumed_soi: float
    soi_sector_halfwidth: float
    nominal_interferers: np.ndarray
    delta: float = 0.05
    l_initial: int = 10
    l_max: int = None
    fixed_l: int = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "nominal_interferers",
            np.atleast_1d(np.asarray(self.nominal_interferers, dtype=float)),
        )
        if self.nominal_interferers.size == 0:
            raise ValueError("need at least one nominal interferer direction")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.l_initial < 2:
            raise ValueError("l_initial must be at least 2")
        if self.l_max is None:
            object.__setattr__(self, "l_max", 8 * self.l_initial)
        if self.l_max < self.l_initial:
            raise ValueError("l_max must be at least l_initial")
        if self.fixed_l is not None and self.fixed_l < self.l_initial:
            raise ValueError("fixed_l must be at least l_initial")
        if self.soi_sector_halfwidth < 0:
            raise ValueError("sector halfwidth must be nonnegative")


def build_projection(config, l):
    """Projector onto the l-dimensional basis vectors outside the look sector.

    The l-1 selection zeros about the presumed direction are split by the
    closed sector [presumed - halfwidth, presumed + halfwidth]; the
    projector sums a a^H over the zeros outside it. Unit-norm steering
    vectors over an orthonormal set make this an exact orthogonal
    projector.
    """
    if l < 2:
        raise ValueError("projector dimension must be at least 2")
    zeros = selection_zeros(config.presumed_soi, l)
    inside = np.abs(zeros - config.presumed_soi) <= config.soi_sector_halfwidth
    retained = zeros[~inside]
    if retained.size == 0:
        raise ValueError(
            f"look sector swallows every basis angle at dimension {l}; halfwidth too large"
        )
    excluded = np.concatenate((zeros[inside], [config.presumed_soi]))
    basis = steering_matrix(retained, l)
    matrix = hermitize(basis @ basis.conj().T)
    return ProjectionMatrix(
        matrix=matrix, dim=l, retained_angles=retained, excluded_angles=excluded
    )


def normalized_error(projection, interferer_angles):
    """Relative energy of the interferer steering vectors lost to projection.

    ||C B - B||_F / ||B||_F with B the nominal interferer steering matrix
    at the projector's dimension; always in [0, 1].
    """
    angles = np.atleast_1d(np.asarray(interferer_angles, dtype=float))
    if angles.size == 0:
        raise ValueError("need at least one interferer angle")
    b = steering_matrix(angles, projection.dim)
    return float(
        np.linalg.norm(projection.matrix @ b - b) / np.linalg.norm(b)
    )


def select_dimension(config):
    """Smallest dimension in [l_initial, l_max] meeting the delta threshold.

    Returns (l, projector); ``config.fixed_l`` pins l and skips the
    search. Raises NoConvergenceError, carrying the best error seen, when
    no dimension qualifies.
    """
    if config.fixed_l is not None:
        return config.fixed_l, build_projection(config, config.fixed_l)
    best_l, best_error = None, np.inf
    for l in range(config.l_initial, config.l_max + 1):
        projection = build_projection(config, l)
        error = normalized_error(projection, config.nominal_interferers)
        if error <= config.delta:
            return l, projection
        if error < best_error:
            best_l, best_error = l, error
    raise NoConvergenceError(
        f"no dimension up to {config.l_max} reached delta={config.delta:g}; "
        f"best error {best_error:.6g} at l={best_l}",
        best_l=best_l,
        best_error=best_error,
    )


def reconstruct_ipnc(projection, cov_l, m):
    """Top-left m x m block of C R_L C^H, the reconstructed IPNC; Hermitian PSD.

    Only the m rows C_m R_L C^H are formed (C_m: the first m rows of C),
    not the L x L product; with all of C on the right, BLAS rounds the
    block as it does the leading block of a larger m, which it does not
    for C_m R_L C_m^H. ``cov_l`` may be a (B, L, L) stack; the result is
    then (B, m, m).
    """
    if cov_l.shape[-2:] != projection.matrix.shape:
        raise ValueError("covariance dimension must match the projector")
    if not 1 <= m <= projection.dim:
        raise ValueError("block size must lie in [1, extended dimension]")
    c = projection.matrix
    return hermitize((c[:m] @ cov_l @ c.conj().T)[..., :m])


def lcssp_weights(ipnc, presumed_sv, failures=None):
    """MVDR weights against the reconstructed IPNC; w^H a = 1 exactly.

    Takes a stack like ``baselines.distortionless_solve``.
    """
    return distortionless_solve(ipnc, presumed_sv, failures)


def estimate_interferer_directions(scm, count, config, grid_step=np.deg2rad(0.1)):
    """Largest Capon-spectrum peaks outside the look sector.

    Automatic alternative to config-provided nominal interferer
    directions: scans 1/(a^H R^-1 a) of the physical-size covariance on a
    uniform grid, keeps local maxima outside the sector, and returns the
    ``count`` strongest angles sorted ascending.
    """
    if count < 1:
        raise ValueError("need at least one direction")
    half = np.pi / 2
    grid = np.arange(-half + grid_step, half, grid_step)
    steer = steering_matrix(grid, scm.shape[0])
    u = np.linalg.solve(conditioned_matrix(scm), steer)
    spectrum = 1.0 / np.einsum("ij,ij->j", steer.conj(), u).real
    outside = np.abs(grid - config.presumed_soi) > config.soi_sector_halfwidth
    peaks = []
    for i in range(1, len(grid) - 1):
        if outside[i] and spectrum[i] > spectrum[i - 1] and spectrum[i] >= spectrum[i + 1]:
            peaks.append((spectrum[i], grid[i]))
    if len(peaks) < count:
        raise ValueError(f"found only {len(peaks)} spectrum peaks outside the sector")
    peaks.sort(key=lambda item: -item[0])
    return np.sort(np.array([angle for _, angle in peaks[:count]]))
