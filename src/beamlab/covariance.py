"""Covariance construction: Hermitian symmetrization and source covariances.

Every function returns Hermitian complex ``n x n`` numpy arrays, or
(..., n, n) stacks of them.
"""

import numpy as np


def hermitize(matrix):
    """Symmetrize (A + A^H)/2 of a matrix or a (..., n, n) stack.

    Downstream solvers assume exact Hermitian input.
    """
    return (matrix + np.swapaxes(matrix, -1, -2).conj()) / 2.0


def _source_covariance(steer, powers, noise_power):
    """hermitize(A diag(powers) A^H + noise_power I) of the columns A of ``steer``.

    A (..., n, P) steering stack with (..., P) powers gives a (..., n, n)
    stack: the true IPNC of every trial of a sweep chunk comes from one
    call.
    """
    powers = np.asarray(powers, dtype=float)
    r = (steer * powers[..., None, :]) @ np.swapaxes(steer.conj(), -1, -2)
    r += noise_power * np.eye(steer.shape[-2])
    return hermitize(r)
