"""Element positions, steering vectors, selection zeros, the snapshot draw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from beamlab import (
    default_config,
    normalize_config,
    selection_zeros,
    steering_matrix,
    steering_vector,
)
from beamlab import harness
from beamlab.array_model import _element_positions, _steering_grid
from beamlab.config import MAX_DIMENSION


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
    errors = np.array([[0.0, 0.04, -0.03, 0.02], [0.0, -0.01, 0.05, 0.0]])
    pos = _element_positions(7, errors)
    np.testing.assert_array_equal(pos[:, :4], np.arange(4) * 0.5 + errors)
    np.testing.assert_array_equal(pos[:, 4:], np.tile(np.arange(4, 7) * 0.5, (2, 1)))


def test_first_element_stays_reference_under_position_errors():
    # A global array shift is unobservable; element 0 is the phase
    # reference, so it keeps its nominal value under drawn position errors.
    config = default_config("sinr_vs_snr")
    config.position_error_halfwidth_wl = 0.2
    config = normalize_config(config)
    points = harness._draw_points(config, np.array([0.0, 10.0]), range(4), config.l, None)
    np.testing.assert_array_equal(points.tsv[..., 0], 1 / np.sqrt(config.m))


def test_steering_rejects_out_of_range_angles():
    # pi - 0.3 has the sine of 0.3, but only [-pi/2, pi/2] names a
    # direction; within rounding of an endpoint an angle is clamped to it.
    for bad in (np.pi / 2 + 0.01, np.nan):
        with pytest.raises(ValueError):
            steering_vector(bad, 8)
    for bad in ([np.pi - 0.3], [0.1, np.nan], [-np.pi / 2 - 1e-9], [[0.2, np.inf]]):
        with pytest.raises(ValueError):
            steering_matrix(bad, 6)
    ends = steering_matrix([np.pi / 2 + 1e-13, -np.pi / 2 - 1e-13], 6)
    np.testing.assert_array_equal(ends, steering_matrix([np.pi / 2, -np.pi / 2], 6))
    np.testing.assert_array_equal(steering_vector(np.pi / 2 + 1e-13, 6), ends[:, 0])
    steering_vector(np.pi / 2, 8)


def test_degenerate_arrays_and_look_directions_are_rejected():
    with pytest.raises(ValueError, match="at least one element"):
        steering_matrix([0.0], 0)
    with pytest.raises(ValueError, match="at least two elements"):
        selection_zeros(0.0, 1)
    with pytest.raises(ValueError, match="strictly inside"):
        selection_zeros(np.pi / 2, 8)


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=MAX_DIMENSION),
    phi0_deg=st.floats(min_value=-89.9, max_value=89.9),
)
def test_selection_zeros_with_center_form_orthonormal_basis(n, phi0_deg):
    phi0 = np.deg2rad(phi0_deg)
    zeros = selection_zeros(phi0, n)
    assert len(zeros) == n - 1
    assert np.all(np.diff(zeros) > 0)
    assert np.all(np.abs(zeros) <= np.pi / 2)
    basis = steering_matrix(np.concatenate(([phi0], zeros)), n)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(n), atol=1e-10)


def test_steering_matrix_columns_match_vectors():
    angles = np.array([-0.4, 0.0, 0.3])
    mat = steering_matrix(angles, 6)
    for j, ang in enumerate(angles):
        np.testing.assert_allclose(mat[:, j], steering_vector(ang, 6), atol=1e-14)


# SOI, then interferers at -30 and +30 degrees.
DIRECTIONS = [0.05, *np.deg2rad([-30.0, 30.0])]
POWERS = [10.0, 100.0, 100.0]


def test_snapshot_stream_prefix_property():
    # Extending the array must not reshuffle the random draws: sources
    # consume the same stream regardless of dimension, and the noise
    # block fills row-major, so with silent sources the physical rows of
    # an extended draw equal the physical-only draw bit for bit.
    silent = [0.0] * len(POWERS)
    wide = oracle.snapshots(DIRECTIONS, silent, oracle.positions(20), 16, seed=5)
    narrow = oracle.snapshots(DIRECTIONS, silent, oracle.positions(10), 16, seed=5)
    np.testing.assert_array_equal(wide[:10], narrow)


def test_snapshot_source_scale_under_extension():
    # Unit-norm steering ties per-element source amplitude to the
    # generation dimension: the physical rows of an extended draw carry
    # the same source waveforms scaled by sqrt(m / l).
    def sources(n):
        pos = oracle.positions(n)
        draw = oracle.snapshots(DIRECTIONS, POWERS, pos, 16, seed=5)
        return draw - oracle.snapshots(DIRECTIONS, [0.0] * len(POWERS), pos, 16, seed=5)

    np.testing.assert_allclose(sources(20)[:10], np.sqrt(10 / 20) * sources(10), atol=1e-12)


def test_snapshots_deterministic_per_seed(drawn_covariances):
    config = normalize_config(default_config("sinr_vs_snr"))

    def covariances():
        return drawn_covariances(config, [0.0, 10.0], range(2))

    a, b = covariances(), covariances()
    config.seed += 1
    c = covariances()
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
