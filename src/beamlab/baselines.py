"""Reference beamformers: optimal, SCM-MVDR, diagonal loading, Capon integral.

Each weight function returns the complex vector w, with w^H a = 1 exactly.

Every function here also takes a (B, n, n) stack of covariances, with a
(B, n) stack of steering vectors or one shared (n,) vector, and returns
(B, n) weights from one batched LAPACK call per step; a single matrix is
the batch of one. A failing item raises, unless the caller passes a
``failures`` dict: then the item's exception is stored under its batch
index (the first one per item wins), its matrix is replaced by the
identity so later batched calls stay well posed, and its result must be
ignored.
"""

import numpy as np

from .array_model import steering_matrix
from .covariance import hermitize

COND_LIMIT = 1e12
LOADING_FLOOR = 1e-10


class SingularCovarianceError(RuntimeError):
    """Covariance stayed numerically singular after the loading retry."""


def _as_stack(matrix):
    """(B, n, n) view of a matrix or a stack, and whether it was one matrix."""
    matrix = np.asarray(matrix)
    return (matrix[None], True) if matrix.ndim == 2 else (matrix, False)


def record_failure(failures, index, error):
    """Store ``error`` for batch item ``index``, or raise it without a record."""
    if failures is None:
        raise error
    failures.setdefault(int(index), error)


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


def conditioned_matrix(matrix, failures=None):
    """Return a solvable Hermitian matrix, loading the diagonal once if needed.

    Condition number above COND_LIMIT triggers a single retry with
    LOADING_FLOOR * trace/n added to the diagonal; still singular raises.
    One batched eigvalsh checks a whole stack and only the items that
    fail are loaded. Returns ``matrix`` itself when nothing was loaded.
    """
    stack, single = _as_stack(matrix)
    out = _conditioned(stack, _eigvalsh(stack), failures)
    if out is stack:
        return matrix
    return out[0] if single else out


def _conditioned(stack, eigenvalues, failures):
    """``conditioned_matrix`` of a (B, n, n) stack whose eigenvalues are known.

    Returns ``stack`` itself when nothing was loaded.
    """
    need = ~(_condition_numbers(eigenvalues) <= COND_LIMIT)
    if not need.any():
        return stack
    n = stack.shape[-1]
    idx = np.flatnonzero(need)
    trace = np.trace(stack[idx], axis1=-2, axis2=-1).real
    loaded = stack[idx] + (LOADING_FLOOR * trace / n)[:, None, None] * np.eye(n)
    cond = _condition_numbers(_eigvalsh(loaded))
    out = stack.copy()
    out[idx] = loaded
    for i, c in zip(idx, cond):
        if not c <= COND_LIMIT:
            message = f"covariance condition number {c:.3e} exceeds {COND_LIMIT:.0e} after loading"
            record_failure(failures, i, SingularCovarianceError(message))
            out[i] = np.eye(n)
    return out


def inner(u, v):
    """u^H v over the last axis of two vectors or stacks, one matmul per item."""
    return (u.conj()[..., None, :] @ v[..., :, None])[..., 0, 0]


def distortionless_solve(matrix, sv_values, failures=None):
    """w = R^-1 a / (a^H R^-1 a), with R^-1 from one batched inverse.

    The normalization makes w^H a = 1 exact in floating point.
    """
    return _distortionless_solve(matrix, sv_values, failures)


def _distortionless_solve(matrix, sv_values, failures, eigenvalues=None):
    """``distortionless_solve``, reusing the stack's ascending ``eigenvalues`` if given."""
    stack, single = _as_stack(matrix)
    svs = np.broadcast_to(sv_values, stack.shape[:-1])
    u = (np.linalg.inv(_solvable(stack, failures, eigenvalues)) @ svs[..., None])[..., 0]
    den = inner(svs, u)
    for i in np.flatnonzero(~np.isfinite(den.real) | (np.abs(den) < 1e-300)):
        record_failure(
            failures, i, SingularCovarianceError("steering vector lies in the solve nullspace")
        )
        den[i] = 1.0
    w = u / den[:, None]
    return w[0] if single else w


def _solvable(matrix, failures, eigenvalues):
    """``conditioned_matrix``, or its check on the stack's ``eigenvalues`` if given."""
    if eigenvalues is None:
        return conditioned_matrix(matrix, failures)
    return _conditioned(matrix, eigenvalues, failures)


def optimal_weights(ipnc, true_sv, failures=None):
    """MVDR weights from the true IPNC and true steering vector.

    The evaluation ceiling: maximizes output SINR over all weight vectors.
    """
    return distortionless_solve(ipnc, true_sv, failures)


def scm_mvdr_weights(scm, presumed_sv, failures=None):
    """Plain sample-matrix-inversion MVDR against the presumed direction."""
    return distortionless_solve(scm, presumed_sv, failures)


def diagonal_loading_weights(scm, presumed_sv, loading=None, failures=None):
    """MVDR on R + loading I; default loading is 10x the smallest eigenvalue.

    The smallest SCM eigenvalue estimates the noise floor; it is clipped
    at zero so a rank-deficient SCM cannot produce negative loading.
    """
    stack, single = _as_stack(scm)
    if loading is None:
        loading = _loading_level(_eigvalsh(stack))
    loading = np.broadcast_to(np.asarray(loading, dtype=float), stack.shape[:1])
    if np.any(loading < 0):
        raise ValueError("loading must be nonnegative")
    n = stack.shape[-1]
    w = distortionless_solve(stack + loading[:, None, None] * np.eye(n), presumed_sv, failures)
    return w[0] if single else w


def _loading_level(eigenvalues):
    """Default diagonal loading of SCMs with these ascending eigenvalues."""
    return 10.0 * np.maximum(eigenvalues[:, 0], 0.0)


def _validate_intervals(sector_complement):
    intervals = [(float(lo), float(hi)) for lo, hi in sector_complement]
    if not intervals:
        raise ValueError("sector complement must contain at least one interval")
    for lo, hi in intervals:
        if not -np.pi / 2 <= lo < hi <= np.pi / 2:
            raise ValueError("intervals must be ordered and lie within [-pi/2, pi/2]")
    return intervals


def _capon_accumulate(steer, rinv, deltas):
    """Sum over grid columns a_j of a_j a_j^H * deltas[j] / (a_j^H rinv a_j).

    ``rinv`` may be a (B, n, n) stack; the sum is then (B, n, n).
    """
    u = rinv @ steer
    u *= steer.conj()
    q = u.sum(axis=-2).real
    np.multiply(steer, (deltas / q)[..., None, :], out=u)
    return u @ steer.conj().T


def capon_integral_ipnc(scm, sector_complement, n_samples=200, failures=None):
    """Reconstruct the IPNC by integrating a(theta) a^H(theta) / capon(theta).

    Midpoint quadrature over the union of ``sector_complement`` intervals
    (radians), with points allocated to intervals proportionally to their
    length. capon(theta) is the Capon spectrum a^H R^-1 a of the supplied
    covariance. Nominal half-wavelength geometry throughout.
    """
    return _capon_integral_ipnc(scm, sector_complement, n_samples, failures)


def _capon_integral_ipnc(scm, sector_complement, n_samples, failures, eigenvalues=None):
    """``capon_integral_ipnc``, reusing the SCM stack's ascending ``eigenvalues`` if given."""
    if n_samples < 2:
        raise ValueError("need at least two quadrature points")
    intervals = _validate_intervals(sector_complement)
    total = sum(hi - lo for lo, hi in intervals)
    n = np.shape(scm)[-1]
    rinv = np.linalg.inv(_solvable(scm, failures, eigenvalues))
    midpoints = []
    deltas = []
    for lo, hi in intervals:
        ni = max(1, round(n_samples * (hi - lo) / total))
        step = (hi - lo) / ni
        midpoints.append(lo + (np.arange(ni) + 0.5) * step)
        deltas.append(np.full(ni, step))
    grid = np.concatenate(midpoints)
    steer = steering_matrix(grid, n)
    return hermitize(_capon_accumulate(steer, rinv, np.concatenate(deltas)))


def capon_integral_weights(scm, presumed_sv, sector_complement, n_samples=200, failures=None):
    """MVDR weights against the Capon-integral reconstructed IPNC."""
    ipnc = capon_integral_ipnc(scm, sector_complement, n_samples, failures)
    return distortionless_solve(ipnc, presumed_sv, failures)
