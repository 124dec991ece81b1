"""Covariance estimators and the structural identities linking them."""

import numpy as np
import pytest

from beamlab import (
    ArrayGeometry,
    LcsspConfig,
    Scenario,
    build_projection,
    generate_snapshots,
    hermitize,
    reconstruct_ipnc,
    sample_covariance,
    steering_vector,
    theoretical_covariance,
    true_ipnc,
)


def _scenario(m=10):
    return Scenario(
        soi_direction_true=0.0,
        soi_direction_presumed=0.0,
        interferer_directions_true=np.deg2rad([-30.0, 30.0]),
        interferer_directions_nominal=np.deg2rad([-30.0, 30.0]),
        soi_power=10.0,
        interferer_powers=np.array([100.0, 100.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(m),
    )


def test_sample_covariance_hand_computed():
    x = np.array([[1.0 + 0j, 1j], [2.0, 0.0]])
    expected = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    np.testing.assert_allclose(sample_covariance(x), expected, atol=1e-15)


def test_sample_covariance_rejects_empty():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros((4, 0), dtype=complex))


def test_sample_covariance_hermitian_psd():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 40)) + 1j * rng.standard_normal((6, 40))
    r = sample_covariance(x)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    assert np.min(np.linalg.eigvalsh(r)) > -1e-12


def test_hermitize_idempotent_on_hermitian():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    np.testing.assert_allclose(h, h.conj().T, atol=0)
    np.testing.assert_allclose(hermitize(h), h, atol=0)


def test_theoretical_covariance_structure():
    sc = _scenario()
    r = theoretical_covariance(sc, 10)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    assert np.trace(r).real == pytest.approx(10.0 + 2 * 100.0 + 10 * 1.0, rel=1e-12)


def test_true_ipnc_plus_soi_term_equals_full_covariance():
    sc = _scenario()
    full = theoretical_covariance(sc, 10)
    ipnc = true_ipnc(sc, 10)
    a = steering_vector(sc.soi_direction_true, 10, sc.geometry)
    rebuilt = ipnc + sc.soi_power * np.outer(a, a.conj())
    np.testing.assert_allclose(rebuilt, full, atol=1e-12)


def test_sample_covariance_converges_to_theoretical():
    sc = _scenario(m=6)
    scm = sample_covariance(generate_snapshots(sc, 6, 100_000, seed=11))
    theo = theoretical_covariance(sc, 6)
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


def test_theoretical_covariance_geometry_choice():
    sc = Scenario(
        soi_direction_true=0.1,
        soi_direction_presumed=0.0,
        interferer_directions_true=np.array([0.6]),
        interferer_directions_nominal=np.array([0.5]),
        soi_power=1.0,
        interferer_powers=np.array([10.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(4, np.array([0.0, 0.05, -0.05, 0.02])),
    )
    with_errors = theoretical_covariance(sc, 4, use_true_geometry=True)
    nominal = theoretical_covariance(sc, 4, use_true_geometry=False)
    assert not np.allclose(with_errors, nominal)
