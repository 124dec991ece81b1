"""Reference beamformers: optimal, SCM-MVDR, diagonal loading, Capon integral.

Each weight function returns the complex vector w, with w^H a = 1 exactly.

Every function here takes an (..., n, n) stack of covariances over any
leading axes, with steering vectors that broadcast to (..., n), and
returns (..., n) weights from one batched LAPACK call per step; a single
matrix gives a single result. A failing item raises for the whole stack.
"""

import numpy as np

COND_LIMIT = 1e12
LOADING_FLOOR = 1e-10
# Midpoint quadrature points of the Capon integral, shared by the
# intervals of the sector complement in proportion to their lengths.
CAPON_SAMPLES = 200


class SingularCovarianceError(np.linalg.LinAlgError):
    """Covariance stayed numerically singular after the loading retry. A point
    fails when its method raises a LinAlgError; any other exception stops the run."""


def hermitize(matrix):
    """Symmetrize (A + A^H)/2 of a matrix or a (..., n, n) stack.

    The solvers here assume exact Hermitian input.
    """
    return (matrix + np.swapaxes(matrix, -1, -2).conj()) / 2.0


def _eigvalsh(stack):
    """Batched eigenvalues, ascending; nan rows for items with non-finite entries.

    LAPACK would reject the whole batch for one such item.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(stack)
    out = np.full(stack.shape[:-1], np.nan)
    out[finite] = np.linalg.eigvalsh(stack[finite])
    return out


def _condition_numbers(eigenvalues):
    """max|lambda| / min|lambda|: the 2-norm condition number of a Hermitian matrix.

    inf for a singular matrix (the zero matrix included, as in
    ``np.linalg.cond``) and nan for a non-finite one; neither passes a
    ``<= COND_LIMIT`` test.
    """
    mags = np.abs(eigenvalues)
    smallest = mags.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smallest == 0, np.inf, mags.max(axis=-1) / smallest)


def conditioned_matrix(matrix):
    """Return a solvable Hermitian matrix, loading the diagonal once if needed.

    Condition number above COND_LIMIT triggers a single retry with
    LOADING_FLOOR * trace/n added to the diagonal; still singular raises.
    A finite stack with positive traces passes whole if one batched
    Cholesky of R - tau I, tau = 2 trace / COND_LIMIT, succeeds: every
    eigenvalue then exceeds tau and none exceeds the trace, so the
    condition number is below COND_LIMIT / 2. Otherwise one batched
    eigvalsh checks the stack, and only the items that fail are loaded.
    Returns ``matrix`` itself when nothing was loaded.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    trace = np.trace(matrix, axis1=-2, axis2=-1).real
    if np.isfinite(matrix).all() and np.all(trace > 0):
        # tau comes off the diagonal of one copy, a strided view of it:
        # every other entry keeps its bits, as under R - tau I.
        tau = 2 * trace / COND_LIMIT
        shifted = matrix.copy()
        shifted.reshape(*matrix.shape[:-2], n * n)[..., :: n + 1] -= tau[..., None]
        try:
            np.linalg.cholesky(shifted)
            return matrix
        except np.linalg.LinAlgError:
            del shifted  # not held beside the copies the check below makes
    need = ~(_condition_numbers(_eigvalsh(matrix)) <= COND_LIMIT)
    if not need.any():
        return matrix
    loaded = matrix[need] + (LOADING_FLOOR * trace[need] / n)[:, None, None] * np.eye(n)
    cond = _condition_numbers(_eigvalsh(loaded))
    failing = cond[~(cond <= COND_LIMIT)]
    if failing.size:
        raise SingularCovarianceError(
            f"covariance condition number {failing[0]:.6e} exceeds {COND_LIMIT:.0e} after loading"
        )
    out = matrix.copy()
    out[need] = loaded
    return out


def inner(u, v):
    """u^H v over the last axis of two vectors or stacks, one matmul per item."""
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def distortionless_solve(matrix, sv_values):
    """w = R^-1 a / (a^H R^-1 a), with R^-1 a from one batched solve.

    The solve runs one LAPACK call per item and forms no inverse. The
    normalization makes w^H a = 1 exact in floating point.
    """
    matrix = np.asarray(matrix)
    svs = np.broadcast_to(sv_values, matrix.shape[:-1])
    u = np.linalg.solve(conditioned_matrix(matrix), svs[..., None])[..., 0]
    den = inner(svs, u)
    if np.any(~np.isfinite(den.real) | (np.abs(den) < 1e-300)):
        raise SingularCovarianceError("steering vector lies in the solve nullspace")
    return u / den[..., None]


def optimal_weights(ipnc, true_sv):
    """MVDR weights from the true IPNC and true steering vector.

    The evaluation ceiling: maximizes output SINR over all weight vectors.
    """
    return distortionless_solve(ipnc, true_sv)


def scm_mvdr_weights(scm, presumed_sv):
    """Plain sample-matrix-inversion MVDR against the presumed direction."""
    return distortionless_solve(scm, presumed_sv)


def diagonal_loading_weights(scm, presumed_sv):
    """MVDR on R + loading I, the loading 10x the smallest eigenvalue.

    The smallest SCM eigenvalue estimates the noise floor; it is clipped
    at zero so a rank-deficient SCM cannot produce negative loading.
    """
    scm = np.asarray(scm)
    loading = 10.0 * np.maximum(_eigvalsh(scm)[..., 0], 0.0)
    return distortionless_solve(scm + loading[..., None, None] * np.eye(scm.shape[-1]), presumed_sv)


def _validate_intervals(sector_complement):
    intervals = [(float(lo), float(hi)) for lo, hi in sector_complement]
    if not intervals:
        raise ValueError("sector complement must contain at least one interval")
    for lo, hi in intervals:
        if not -np.pi / 2 <= lo < hi <= np.pi / 2:
            raise ValueError("intervals must be ordered and lie within [-pi/2, pi/2]")
    return intervals


def _diagonal_sums(stack):
    """(..., 2n - 1) sums of each diagonal q - p = n - 1, ..., -(n - 1) of an
    (..., n, n) stack, each a plain sequential sum over p from 0.

    Row p of the column-reversed stack is added into columns p, ..., p +
    n - 1 of a zeroed accumulator, for p in order: column r then gains
    entry (p, n - 1 - r + p), on diagonal n - 1 - r.
    """
    *lead, n, _ = stack.shape
    reversed_rows = stack[..., ::-1]
    sums = np.zeros((*lead, 2 * n - 1), dtype=stack.dtype)
    for p in range(n):
        sums[..., p : p + n] += reversed_rows[..., p, :]
    return sums


def capon_integral_ipnc(scm, sector_complement):
    """Reconstruct the IPNC by integrating a(theta) a^H(theta) / capon(theta).

    Midpoint quadrature of CAPON_SAMPLES points over the union of
    ``sector_complement`` intervals (radians), with points allocated to
    intervals proportionally to their length. capon(theta) is the Capon
    spectrum a^H R^-1 a of the supplied covariance.

    The array is the nominal half-wavelength ULA, a(theta)_p =
    e^{i pi p sin theta} / sqrt(n), so a a^H is Toeplitz: entry (p, q) is
    f_{p-q}(theta) with f_d(theta) = e^{i pi d sin theta} / n. Hence
    capon(theta) = sum_d c_d f_d(theta) over the 2n - 1 lags d, with c_d
    the sum of R^-1's diagonal q - p = d, and the integral is the Toeplitz
    matrix with lag-d entry sum_j delta_j f_d(theta_j) / capon(theta_j):
    two products with one fixed (2n - 1) x J Fourier matrix, n times
    fewer flops than forming the (n, J) steering products. Perturbed
    element positions break the lag structure, so the identity holds on
    the nominal geometry only.
    """
    intervals = _validate_intervals(sector_complement)
    total = sum(hi - lo for lo, hi in intervals)
    n = np.shape(scm)[-1]
    rinv = np.linalg.inv(conditioned_matrix(scm))
    midpoints = []
    deltas = []
    for lo, hi in intervals:
        ni = max(1, round(CAPON_SAMPLES * (hi - lo) / total))
        step = (hi - lo) / ni
        midpoints.append(lo + (np.arange(ni) + 0.5) * step)
        deltas.append(np.full(ni, step))
    lags = np.arange(n - 1, -n, -1)
    fourier = np.exp(1j * np.pi * lags[:, None] * np.sin(np.concatenate(midpoints))) / n
    # Each product runs once per item, (1, .) @ (., .), so no item's bits
    # depend on the batch around it.
    spectrum = (_diagonal_sums(rinv)[..., None, :] @ fourier)[..., 0, :]
    # The quadrature weights delta_j / capon(theta_j) overwrite the complex
    # spectrum, so the product below takes them with no real copy or cast.
    weights = np.divide(np.concatenate(deltas), spectrum.real, out=spectrum)
    lower = (weights[..., None, :] @ fourier[:n].T)[..., 0, :]  # lags n - 1, ..., 0
    entries = np.concatenate((lower, lower[..., -2::-1].conj()), axis=-1)
    p = np.arange(n)
    return entries[..., n - 1 - p[:, None] + p]  # exactly Hermitian


def capon_integral_weights(scm, presumed_sv, sector_complement):
    """MVDR weights against the Capon-integral reconstructed IPNC."""
    return distortionless_solve(capon_integral_ipnc(scm, sector_complement), presumed_sv)
