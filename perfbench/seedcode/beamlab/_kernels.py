"""Low-level numeric kernels with optional numba acceleration.

The environment variable ``BEAMLAB_BACKEND`` selects the implementation:

* ``auto`` (default): use numba when importable, numpy otherwise.
* ``numba``: require numba, fail at import if missing.
* ``numpy``: force the pure-numpy fallbacks.

Both backends produce results equal to floating-point tolerance; a given
backend is deterministic run to run.
"""

import math
import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

_CHOICES = ("auto", "numba", "numpy")
_requested = os.environ.get("BEAMLAB_BACKEND", "auto").strip().lower()
if _requested not in _CHOICES:
    raise RuntimeError(
        f"BEAMLAB_BACKEND must be one of {_CHOICES}, got {_requested!r}"
    )
if _requested == "numba" and not HAS_NUMBA:
    raise RuntimeError("BEAMLAB_BACKEND=numba but numba is not importable")

_use_numba = _requested != "numpy" and HAS_NUMBA


def active_backend():
    """Name of the kernel implementation in use, ``"numba"`` or ``"numpy"``."""
    return "numba" if _use_numba else "numpy"


def steering_grid_numpy(positions, sines):
    """Unit-norm array response columns for each steering sine.

    Parameters
    ----------
    positions : float array, shape (n,)
        Element positions in wavelengths, referenced so positions[0] = 0.
    sines : float array, shape (g,)
        sin(angle) for each requested direction.

    Returns
    -------
    complex array, shape (n, g)
        Column j is exp(j 2 pi positions sin_j) / sqrt(n).
    """
    n = positions.shape[0]
    phases = 2.0 * np.pi * np.outer(positions, sines)
    return np.exp(1j * phases) / math.sqrt(n)


def capon_accumulate_numpy(steer, rinv, deltas):
    """Accumulate sum_j a_j a_j^H * deltas[j] / (a_j^H rinv a_j).

    ``steer`` holds the grid steering vectors as columns (n, g); ``rinv``
    is the inverse covariance; ``deltas`` are the quadrature widths.
    """
    q = np.einsum("ij,ij->j", steer.conj(), rinv @ steer).real
    scaled = steer * (deltas / q)
    return scaled @ steer.conj().T


if HAS_NUMBA:

    @njit(cache=True)
    def _steering_grid_nb(positions, sines):  # pragma: no cover - jitted
        n = positions.shape[0]
        g = sines.shape[0]
        scale = 1.0 / math.sqrt(n)
        out = np.empty((n, g), np.complex128)
        for j in range(g):
            for i in range(n):
                ph = 2.0 * math.pi * positions[i] * sines[j]
                out[i, j] = complex(math.cos(ph), math.sin(ph)) * scale
        return out

    @njit(cache=True)
    def _capon_accumulate_nb(steer, rinv, deltas):  # pragma: no cover - jitted
        # Matrix products stay on BLAS; only the cheap per-column
        # quadratic-form reduction and rescaling are explicit loops.
        n = steer.shape[0]
        g = steer.shape[1]
        u = rinv @ steer
        scaled = np.empty((n, g), np.complex128)
        for j in range(g):
            q = 0.0
            for i in range(n):
                q += (steer[i, j].conjugate() * u[i, j]).real
            c = deltas[j] / q
            for i in range(n):
                scaled[i, j] = steer[i, j] * c
        return scaled @ np.conj(steer).T


def _steering_grid_dispatch(positions, sines):
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    sines = np.ascontiguousarray(sines, dtype=np.float64)
    if _use_numba:
        return _steering_grid_nb(positions, sines)
    return steering_grid_numpy(positions, sines)


def _capon_accumulate_dispatch(steer, rinv, deltas):
    steer = np.ascontiguousarray(steer, dtype=np.complex128)
    rinv = np.ascontiguousarray(rinv, dtype=np.complex128)
    deltas = np.ascontiguousarray(deltas, dtype=np.float64)
    if _use_numba:
        return _capon_accumulate_nb(steer, rinv, deltas)
    return capon_accumulate_numpy(steer, rinv, deltas)


steering_grid = _steering_grid_dispatch
capon_accumulate = _capon_accumulate_dispatch
