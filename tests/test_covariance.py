"""Drawn and reconstructed covariances and the identities linking them."""

import numpy as np
import pytest

import oracle
from beamlab import (
    LcsspConfig,
    build_projection,
    default_config,
    hermitize,
    normalize_config,
    reconstruct_ipnc,
)
from beamlab import harness


def test_sample_covariance_hermitian_psd(drawn_covariances):
    # The drawn covariances are exactly Hermitian and positive semidefinite,
    # rank deficient below L snapshots included.
    config = normalize_config(default_config("sinr_vs_snapshots"))
    cov = drawn_covariances(config, [1.0, 5.0, 40.0], range(3))
    np.testing.assert_array_equal(cov, np.swapaxes(cov, -1, -2).conj())
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-12 * np.max(np.abs(cov))


def test_hermitize_idempotent_on_hermitian():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T, atol=0)
    np.testing.assert_allclose(hermitize(h), h, atol=0)


def test_theoretical_covariance_structure():
    # Unit-norm steering: each interferer adds its power to the true
    # IPNC's trace, and unit noise adds one per element.
    config = normalize_config(default_config("sinr_vs_inr"))
    x_values = np.array([0.0, 20.0, 40.0])
    ipnc = harness._draw_points(config, x_values, range(3), config.l, None).ipnc
    np.testing.assert_array_equal(ipnc, np.swapaxes(ipnc, -1, -2).conj())
    # The interferer power changes with x, so every (trial, x) point has its own.
    assert ipnc.shape[:2] == (3, 3)
    expected = np.tile(2 * 10.0 ** np.r_[0.0, 2.0, 4.0] + 10, (3, 1))
    np.testing.assert_allclose(np.trace(ipnc, axis1=-2, axis2=-1).real, expected, rtol=1e-12)


def test_sample_covariance_converges_to_theoretical():
    pos = oracle.positions(6)
    directions, powers = np.deg2rad([0.0, -30.0, 30.0]), [10.0, 100.0, 100.0]
    scm = oracle.sample_covariance(oracle.snapshots(directions, powers, pos, 100_000, seed=11))
    theo = oracle.covariance(directions, powers, pos)
    rel = np.linalg.norm(scm - theo) / np.linalg.norm(theo)
    assert rel < 0.02


def test_extended_block_extracts_leading_submatrix():
    rng = np.random.default_rng(2)
    r8 = hermitize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    proj = build_projection(
        LcsspConfig(
            presumed_soi=0.0,
            soi_sector_halfwidth=np.deg2rad(6.0),
            nominal_interferers=np.deg2rad([-30.0, 30.0]),
        ),
        8,
    )
    full = reconstruct_ipnc(proj, r8, 8)
    sub = reconstruct_ipnc(proj, r8, 3)
    np.testing.assert_array_equal(sub, full[:3, :3])
    with pytest.raises(ValueError):
        reconstruct_ipnc(proj, r8, 9)
    with pytest.raises(ValueError):
        reconstruct_ipnc(proj, r8, 0)
