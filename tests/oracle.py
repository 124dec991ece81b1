"""Per-point reference for the engine's snapshot draw, in plain numpy.

The documented draw protocol, one point at a time, for the tests to
compare ``harness._draw_points`` and the beamformers' inputs against.
An n-element array sits at half-wavelength spacing; its first
len(position_errors) elements are physical and carry their placement
error in wavelengths, the rest are virtual and nominal. Sources
[SOI, *interferers] have true directions in radians and linear powers,
over noise of unit power.
"""

import numpy as np


def positions(n, position_errors=()):
    """Element positions in wavelengths, referenced to element 0."""
    pos = np.arange(n) * 0.5
    pos[: len(position_errors)] += position_errors
    return pos - pos[0]


def steering(angles, pos):
    """Unit-norm steering vectors exp(j 2 pi pos sin(angle)) / sqrt(n) as columns."""
    return np.exp(2j * np.pi * pos[:, None] * np.sin(angles)) / np.sqrt(len(pos))


def hermitian(r):
    """(R + R^H) / 2."""
    return (r + r.conj().T) / 2


def covariance(directions, powers, pos):
    """sum_p powers_p a_p a_p^H + I of the sources at ``directions``."""
    a = steering(directions, pos)
    r = (a * np.asarray(powers, dtype=float)) @ a.conj().T
    return hermitian(r + np.eye(len(pos)))


def normals(n_rows, k, seed):
    """(n_rows, k) complex normals of seed's stream: an (n_rows, k, 2)
    standard-normal draw read as (real, imaginary) pairs."""
    d = np.random.default_rng(seed).standard_normal((n_rows, k, 2))
    return d[..., 0] + 1j * d[..., 1]


def snapshots(directions, powers, pos, k, seed):
    """k snapshots of the sources over noise, drawn from seed's stream: one
    standard-normal (k, 2) block per source in order, the circular complex
    waveform of its power, then an (n, k, 2) block of noise."""
    rng = np.random.default_rng(seed)
    x = np.zeros((len(pos), k), dtype=complex)
    for a, p in zip(steering(directions, pos).T, powers):
        d = rng.standard_normal((k, 2))
        x += np.outer(a, np.sqrt(p / 2) * (d[:, 0] + 1j * d[:, 1]))
    d = rng.standard_normal((len(pos), k, 2))
    return x + np.sqrt(1 / 2) * (d[..., 0] + 1j * d[..., 1])


def sample_covariance(x):
    """(1/k) X X^H of an (n, k) snapshot matrix."""
    return hermitian(x @ x.conj().T / x.shape[1])
