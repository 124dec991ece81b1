"""Projection-based IPNC reconstruction on a virtually extended array.

Pipeline: pick an extended dimension L whose selection-zero steering basis
approximates the interferers well enough, project the extended sample
covariance onto the basis vectors outside the look sector, and take the
physical-size block as the interference-plus-noise covariance estimate.
The projector is a plain Hermitian (L, L) array; its sampled angles are
the ``selection_zeros(presumed, L)`` outside the closed look sector.
The zero-set formula assumes half-wavelength element spacing.
"""

from dataclasses import dataclass

import numpy as np

from .array_model import selection_zeros, steering_matrix
from .baselines import distortionless_solve, hermitize


class NoConvergenceError(RuntimeError):
    """No dimension up to l_max met the normalized-error threshold."""


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
    """Hermitian (l, l) projector onto the basis vectors outside the look sector.

    The l-1 selection zeros about the presumed direction are split by the
    closed sector [presumed - halfwidth, presumed + halfwidth]; the
    projector sums a a^H over the zeros outside it. Unit-norm steering
    vectors over an orthonormal set make this an exact orthogonal
    projector, idempotent with rank the retained count; it blocks the
    zeros inside the sector and the presumed direction itself.
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
    basis = steering_matrix(retained, l)
    return hermitize(basis @ basis.conj().T)


def normalized_error(projector, interferer_angles):
    """Relative energy of the interferer steering vectors lost to projection.

    ||C B - B||_F / ||B||_F with C the (l, l) projector and B the nominal
    interferer steering matrix at dimension l; always in [0, 1].
    """
    angles = np.atleast_1d(np.asarray(interferer_angles, dtype=float))
    if angles.size == 0:
        raise ValueError("need at least one interferer angle")
    b = steering_matrix(angles, len(projector))
    # I - C is an orthogonal projector, so the exact ratio is at most 1;
    # rounding lifts it by an ulp when C blocks every interferer.
    return min(float(np.linalg.norm(projector @ b - b) / np.linalg.norm(b)), 1.0)


def select_dimension(config):
    """Smallest dimension in [l_initial, l_max] meeting the delta threshold.

    Returns (l, projector) with the (l, l) projector of
    ``build_projection``; ``config.fixed_l`` pins l and skips the search.
    A dimension whose look sector holds every selection zero has no
    projector and never qualifies; its empty projector loses all of the
    interferers' energy, an error of exactly 1. Raises
    NoConvergenceError, whose message names the smallest error seen and
    its dimension, when no dimension qualifies.
    """
    if config.fixed_l is not None:
        return config.fixed_l, build_projection(config, config.fixed_l)
    closest_l, closest_error = None, np.inf
    for l in range(config.l_initial, config.l_max + 1):
        try:
            projector = build_projection(config, l)
        except ValueError:
            error = 1.0
        else:
            error = normalized_error(projector, config.nominal_interferers)
            if error <= config.delta:
                return l, projector
        if error < closest_error:
            closest_l, closest_error = l, error
    raise NoConvergenceError(
        f"no dimension up to {config.l_max} reached delta={config.delta:g}; "
        f"best error {closest_error:.6g} at l={closest_l}"
    )


def reconstruct_ipnc(projector, cov_l, m):
    """Top-left m x m block of C R_L C^H, the reconstructed IPNC; Hermitian PSD.

    C is the (L, L) projector. Only the m rows C_m R_L C^H are formed
    (C_m: the first m rows of C), not the L x L product; with all of C on
    the right, BLAS rounds the block as it does the leading block of a
    larger m, which it does not for C_m R_L C_m^H. ``cov_l`` may be an
    (..., L, L) stack; the result is then (..., m, m).
    """
    if cov_l.shape[-2:] != projector.shape:
        raise ValueError("covariance dimension must match the projector")
    if not 1 <= m <= len(projector):
        raise ValueError("block size must lie in [1, extended dimension]")
    return hermitize((projector[:m] @ cov_l @ projector.conj().T)[..., :m])


def lcssp_weights(ipnc, presumed_sv):
    """MVDR weights against the reconstructed IPNC; w^H a = 1 exactly.

    Takes a stack like ``baselines.distortionless_solve``.
    """
    return distortionless_solve(ipnc, presumed_sv)
