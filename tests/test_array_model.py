"""Array geometry, steering vectors, selection zeros, snapshot generation."""

import numpy as np
import pytest

from beamlab import (
    ArrayGeometry,
    Scenario,
    generate_snapshots,
    selection_function,
    selection_zeros,
    steering_matrix,
    steering_vector,
)
from beamlab.array_model import _normal_blocks, _steering_grid


def test_steering_vector_first_element_and_norm():
    sv = steering_vector(0.3, 12)
    assert sv.shape == (12,)
    assert sv[0] == pytest.approx(1 / np.sqrt(12), abs=0)
    assert np.linalg.norm(sv) == pytest.approx(1.0, abs=1e-12)


def test_steering_vector_phase_progression():
    n, angle = 8, 0.25
    sv = steering_vector(angle, n)
    expected = np.exp(2j * np.pi * 0.5 * np.arange(n) * np.sin(angle)) / np.sqrt(n)
    np.testing.assert_allclose(sv, expected, atol=1e-14)


def test_steering_grid_matches_direct_formula():
    rng = np.random.default_rng(0)
    positions = np.arange(10) * 0.5 + rng.uniform(-0.05, 0.05, 10)
    sines = np.sort(rng.uniform(-1.0, 1.0, 64))
    got = _steering_grid(positions, sines)
    expected = np.exp(2j * np.pi * np.outer(positions, sines)) / np.sqrt(len(positions))
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_steering_vector_broadside_is_uniform():
    sv = steering_vector(0.0, 5)
    np.testing.assert_allclose(sv, np.full(5, 1 / np.sqrt(5)), atol=0)


def test_position_errors_perturb_only_physical_elements():
    errors = np.array([0.0, 0.04, -0.03, 0.02])
    geom = ArrayGeometry(4, errors)
    pos = geom.positions(7)
    np.testing.assert_allclose(pos[:4], np.arange(4) * 0.5 + errors, atol=0)
    np.testing.assert_allclose(pos[4:], np.arange(4, 7) * 0.5, atol=0)


def test_first_element_stays_reference_under_position_errors():
    # A global array shift is unobservable; phases are referenced to
    # element 0 so element 0 keeps its nominal value.
    geom = ArrayGeometry(6, np.full(6, 0.1))
    sv = steering_vector(0.4, 6, geom)
    assert sv[0] == pytest.approx(1 / np.sqrt(6), abs=0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, np.array([0.3, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ArrayGeometry(4, np.zeros(3))


def test_steering_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        steering_vector(np.pi / 2 + 0.01, 8)
    steering_vector(np.pi / 2, 8)


def test_selection_function_unity_at_center_zero_at_zeros():
    n, phi0 = 10, 0.1
    assert selection_function(phi0, phi0, n) == pytest.approx(1.0, abs=1e-12)
    for z in selection_zeros(phi0, n):
        assert abs(selection_function(z, phi0, n)) < 1e-12


def test_selection_zeros_closed_form():
    n = 10
    zeros = selection_zeros(0.0, n)
    ints = np.array([-5, -4, -3, -2, -1, 1, 2, 3, 4])
    np.testing.assert_allclose(zeros, np.arcsin(2 * ints / n), atol=1e-14)
    assert zeros[0] == pytest.approx(-np.pi / 2, abs=1e-14)


def test_selection_zeros_count_and_sorting():
    for n in (2, 7, 10, 20, 40):
        for phi0 in (0.0, 0.17, -0.35):
            zeros = selection_zeros(phi0, n)
            assert len(zeros) == n - 1
            assert np.all(np.diff(zeros) > 0)
            assert np.all(np.abs(zeros) <= np.pi / 2)


def test_selection_zeros_with_center_form_orthonormal_basis():
    for n in (2, 10, 20):
        for phi0 in (0.0, np.deg2rad(10.0), np.deg2rad(-20.0)):
            angles = np.concatenate(([phi0], selection_zeros(phi0, n)))
            basis = steering_matrix(angles, n)
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-10)


def test_steering_matrix_columns_match_vectors():
    angles = np.array([-0.4, 0.0, 0.3])
    mat = steering_matrix(angles, 6)
    for j, ang in enumerate(angles):
        np.testing.assert_allclose(mat[:, j], steering_vector(ang, 6), atol=1e-14)


def _scenario(n_interferers=2, geometry=None):
    return Scenario(
        soi_direction_true=0.05,
        soi_direction_presumed=0.0,
        interferer_directions_true=np.deg2rad([-30.0, 30.0][:n_interferers]),
        interferer_directions_nominal=np.deg2rad([-30.0, 30.0][:n_interferers]),
        soi_power=10.0,
        interferer_powers=np.full(n_interferers, 100.0),
        noise_power=1.0,
        geometry=geometry or ArrayGeometry(10),
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(
            soi_direction_true=0.0,
            soi_direction_presumed=0.0,
            interferer_directions_true=np.array([0.5]),
            interferer_directions_nominal=np.array([0.5, 0.6]),
            soi_power=1.0,
            interferer_powers=np.array([1.0]),
            noise_power=1.0,
            geometry=ArrayGeometry(4),
        )
    with pytest.raises(ValueError):
        Scenario(
            soi_direction_true=np.pi / 2,
            soi_direction_presumed=0.0,
            interferer_directions_true=np.array([0.5]),
            interferer_directions_nominal=np.array([0.5]),
            soi_power=1.0,
            interferer_powers=np.array([1.0]),
            noise_power=1.0,
            geometry=ArrayGeometry(4),
        )
    with pytest.raises(ValueError):
        sc = _scenario()
        Scenario(
            soi_direction_true=sc.soi_direction_true,
            soi_direction_presumed=sc.soi_direction_presumed,
            interferer_directions_true=sc.interferer_directions_true,
            interferer_directions_nominal=sc.interferer_directions_nominal,
            soi_power=1.0,
            interferer_powers=np.array([1.0, 1.0]),
            noise_power=0.0,
            geometry=sc.geometry,
        )


def test_snapshots_shape_and_input_checks():
    sc = _scenario()
    x = generate_snapshots(sc, 12, 5, seed=7)
    assert x.shape == (12, 5)
    assert x.dtype == np.complex128
    with pytest.raises(ValueError):
        generate_snapshots(sc, 9, 5, seed=7)
    with pytest.raises(ValueError):
        generate_snapshots(sc, 12, 0, seed=7)


def test_snapshots_match_reference_draw_protocol():
    # Independent reimplementation of the documented draw order: one
    # standard-normal (k, 2) block per source (SOI first, interferers in
    # listed order), then an (n, k, 2) block for noise.
    sc = _scenario()
    n, k, seed = 13, 6, 99
    rng = np.random.default_rng(seed)
    pos = sc.geometry.positions(n)
    pos = pos - pos[0]

    def sv(angle):
        return np.exp(2j * np.pi * pos * np.sin(angle)) / np.sqrt(n)

    expected = np.zeros((n, k), dtype=complex)
    dirs = [sc.soi_direction_true, *sc.interferer_directions_true]
    powers = [sc.soi_power, *sc.interferer_powers]
    for ang, p in zip(dirs, powers):
        d = rng.standard_normal((k, 2))
        wave = np.sqrt(p / 2) * (d[:, 0] + 1j * d[:, 1])
        expected += np.outer(sv(ang), wave)
    d = rng.standard_normal((n, k, 2))
    expected += np.sqrt(sc.noise_power / 2) * (d[..., 0] + 1j * d[..., 1])
    got = generate_snapshots(sc, n, k, seed=seed)
    np.testing.assert_array_equal(got, expected)


def test_normal_blocks_are_each_k_draw():
    # Every block, for an unsorted grid with repeats, holds the complex
    # normals of a fresh k draw: the (P + 1, k, 2) waveform block, then
    # the (n, k, 2) noise block.
    n_sources, n, seed = 3, 13, 99
    ks = [50, 1, 8, 50, 3]
    blocks = list(_normal_blocks(n_sources + n, ks, seed))
    assert len(blocks) == len(ks)
    for k, block in zip(ks, blocks):
        rng = np.random.default_rng(seed)
        d = np.concatenate(
            (rng.standard_normal((n_sources, k, 2)), rng.standard_normal((n, k, 2)))
        )
        assert block.shape == (n_sources + n, k)
        np.testing.assert_array_equal(block.real, d[..., 0])
        np.testing.assert_array_equal(block.imag, d[..., 1])


def _silent_scenario():
    sc = _scenario()
    return Scenario(
        soi_direction_true=sc.soi_direction_true,
        soi_direction_presumed=sc.soi_direction_presumed,
        interferer_directions_true=sc.interferer_directions_true,
        interferer_directions_nominal=sc.interferer_directions_nominal,
        soi_power=0.0,
        interferer_powers=np.zeros(2),
        noise_power=sc.noise_power,
        geometry=sc.geometry,
    )


def test_snapshot_stream_prefix_property():
    # Extending the array must not reshuffle the random draws: sources
    # consume the same stream regardless of dimension, and the noise
    # block fills row-major, so with silent sources the physical rows of
    # an extended draw equal the physical-only draw bit for bit.
    sc = _silent_scenario()
    wide = generate_snapshots(sc, 20, 16, seed=5)
    narrow = generate_snapshots(sc, 10, 16, seed=5)
    np.testing.assert_array_equal(wide[:10], narrow)


def test_snapshot_source_scale_under_extension():
    # Unit-norm steering ties per-element source amplitude to the
    # generation dimension: the physical rows of an extended draw carry
    # the same source waveforms scaled by sqrt(m / l).
    sc = _scenario()
    silent = _silent_scenario()
    wide_src = generate_snapshots(sc, 20, 16, seed=5) - generate_snapshots(silent, 20, 16, seed=5)
    narrow_src = generate_snapshots(sc, 10, 16, seed=5) - generate_snapshots(silent, 10, 16, seed=5)
    np.testing.assert_allclose(wide_src[:10], np.sqrt(10 / 20) * narrow_src, atol=1e-12)


def test_snapshots_deterministic_per_seed():
    sc = _scenario()
    a = generate_snapshots(sc, 10, 8, seed=3)
    b = generate_snapshots(sc, 10, 8, seed=3)
    c = generate_snapshots(sc, 10, 8, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
