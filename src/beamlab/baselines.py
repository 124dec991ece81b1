"""Reference beamformers: optimal, SCM-MVDR, diagonal loading, Capon integral."""

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .array_model import steering_matrix
from .covariance import CovarianceEstimate, CovarianceKind, hermitize

COND_LIMIT = 1e12
LOADING_FLOOR = 1e-10


class SingularCovarianceError(RuntimeError):
    """Covariance stayed numerically singular after the loading retry."""


class BeamformerMethod(str, Enum):
    OPTIMAL = "optimal"
    SCM_MVDR = "scm_mvdr"
    DIAGONAL_LOADING = "diagonal_loading"
    CAPON_INTEGRAL = "capon_integral"
    LCSSP = "lcssp"


@dataclass(frozen=True, eq=False)
class BeamformerWeights:
    """Complex weight vector plus the presumed steering vector it targets.

    Every constructor in this package enforces the distortionless
    constraint values^H presumed = 1.
    """

    values: np.ndarray
    presumed_sv: object
    method: BeamformerMethod


def conditioned_matrix(matrix):
    """Return a solvable Hermitian matrix, loading the diagonal once if needed.

    Condition number above COND_LIMIT triggers a single retry with
    LOADING_FLOOR * trace/n added to the diagonal; still singular raises.
    """
    cond = np.linalg.cond(matrix)
    if np.isfinite(cond) and cond <= COND_LIMIT:
        return matrix
    n = matrix.shape[0]
    loaded = matrix + (LOADING_FLOOR * np.trace(matrix).real / n) * np.eye(n)
    cond = np.linalg.cond(loaded)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularCovarianceError(
            f"covariance condition number {cond:.3e} exceeds {COND_LIMIT:.0e} after loading"
        )
    return loaded


def distortionless_solve(matrix, sv_values):
    """w = R^-1 a / (a^H R^-1 a) via a Hermitian linear solve.

    The normalization makes w^H a = 1 exact in floating point.
    """
    m = conditioned_matrix(matrix)
    u = scipy.linalg.solve(m, sv_values, assume_a="her")
    den = np.vdot(sv_values, u)
    if not np.isfinite(den.real) or abs(den) < 1e-300:
        raise SingularCovarianceError("steering vector lies in the solve nullspace")
    return u / den


def optimal_weights(ipnc, true_sv):
    """MVDR weights from the true IPNC and true steering vector.

    The evaluation ceiling: maximizes output SINR over all weight vectors.
    """
    values = distortionless_solve(ipnc.matrix, true_sv.values)
    return BeamformerWeights(values=values, presumed_sv=true_sv, method=BeamformerMethod.OPTIMAL)


def scm_mvdr_weights(scm, presumed_sv):
    """Plain sample-matrix-inversion MVDR against the presumed direction."""
    values = distortionless_solve(scm.matrix, presumed_sv.values)
    return BeamformerWeights(values=values, presumed_sv=presumed_sv, method=BeamformerMethod.SCM_MVDR)


def diagonal_loading_weights(scm, presumed_sv, loading=None):
    """MVDR on R + loading I; default loading is 10x the smallest eigenvalue.

    The smallest SCM eigenvalue estimates the noise floor; it is clipped
    at zero so a rank-deficient SCM cannot produce negative loading.
    """
    if loading is None:
        noise_est = max(float(np.linalg.eigvalsh(scm.matrix)[0]), 0.0)
        loading = 10.0 * noise_est
    if loading < 0:
        raise ValueError("loading must be nonnegative")
    matrix = scm.matrix + loading * np.eye(scm.n)
    values = distortionless_solve(matrix, presumed_sv.values)
    return BeamformerWeights(
        values=values, presumed_sv=presumed_sv, method=BeamformerMethod.DIAGONAL_LOADING
    )


def _validate_intervals(sector_complement):
    intervals = [(float(lo), float(hi)) for lo, hi in sector_complement]
    if not intervals:
        raise ValueError("sector complement must contain at least one interval")
    for lo, hi in intervals:
        if not -np.pi / 2 <= lo < hi <= np.pi / 2:
            raise ValueError("intervals must be ordered and lie within [-pi/2, pi/2]")
    return intervals


def _capon_accumulate(steer, rinv, deltas):
    """Sum over grid columns a_j of a_j a_j^H * deltas[j] / (a_j^H rinv a_j)."""
    q = np.einsum("ij,ij->j", steer.conj(), rinv @ steer).real
    scaled = steer * (deltas / q)
    return scaled @ steer.conj().T


def capon_integral_ipnc(scm, sector_complement, n_samples=200):
    """Reconstruct the IPNC by integrating a(theta) a^H(theta) / capon(theta).

    Midpoint quadrature over the union of ``sector_complement`` intervals
    (radians), with points allocated to intervals proportionally to their
    length. capon(theta) is the Capon spectrum a^H R^-1 a of the supplied
    covariance. Nominal half-wavelength geometry throughout.
    """
    if n_samples < 2:
        raise ValueError("need at least two quadrature points")
    intervals = _validate_intervals(sector_complement)
    total = sum(hi - lo for lo, hi in intervals)
    matrix = conditioned_matrix(scm.matrix)
    rinv = scipy.linalg.solve(matrix, np.eye(scm.n, dtype=complex), assume_a="her")
    midpoints = []
    deltas = []
    for lo, hi in intervals:
        ni = max(1, round(n_samples * (hi - lo) / total))
        step = (hi - lo) / ni
        midpoints.append(lo + (np.arange(ni) + 0.5) * step)
        deltas.append(np.full(ni, step))
    grid = np.concatenate(midpoints)
    steer = steering_matrix(grid, scm.n)
    acc = _capon_accumulate(steer, rinv, np.concatenate(deltas))
    return CovarianceEstimate(
        matrix=hermitize(acc), n=scm.n, kind=CovarianceKind.RECONSTRUCTED
    )


def capon_integral_weights(scm, presumed_sv, sector_complement, n_samples=200):
    """MVDR weights against the Capon-integral reconstructed IPNC."""
    ipnc = capon_integral_ipnc(scm, sector_complement, n_samples)
    values = distortionless_solve(ipnc.matrix, presumed_sv.values)
    return BeamformerWeights(
        values=values, presumed_sv=presumed_sv, method=BeamformerMethod.CAPON_INTEGRAL
    )
