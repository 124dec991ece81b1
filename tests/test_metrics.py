"""Output SINR and beampattern gains."""

import numpy as np
import pytest

from beamlab import default_beampattern_grid, output_sinr, steering_matrix, steering_vector
from beamlab.metrics import pattern_gains_db

# Largest sidelobe of the uniform ten-element pattern outside a 12 degree
# guard around broadside, sampled every 0.01 degree; independently
# computed reference.
UNIFORM_SIDELOBE_DB = -12.966168437164914


def test_output_sinr_matched_filter_identity_noise():
    a = steering_vector(0.0, 4)
    ident = np.eye(4, dtype=complex)
    # soi_power |w^H a|^2 / (w^H R w) = 2 * 1 / 1 with w = a
    assert output_sinr(a, 2.0, a, ident) == pytest.approx(10 * np.log10(2.0), abs=1e-12)


def test_output_sinr_rejects_degenerate_denominator():
    a = steering_vector(0.0, 3)
    zero = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ValueError):
        output_sinr(a, 1.0, a, zero)


def test_default_grid_covers_visible_region():
    grid = default_beampattern_grid()
    assert len(grid) == 1801
    assert grid[0] == pytest.approx(-np.pi / 2, abs=1e-12)
    assert grid[-1] == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.all(np.diff(grid) > 0)


def test_pattern_gains_peak_at_steering_direction():
    target = np.deg2rad(20.0)
    a = steering_vector(target, 10)
    grid = default_beampattern_grid()
    gains = pattern_gains_db(a, steering_matrix(grid, 10))
    assert gains.max() == pytest.approx(0.0, abs=0)
    assert abs(grid[np.argmax(gains)] - target) < np.deg2rad(0.11)


def test_pattern_gains_uniform_sidelobe_reference():
    a = steering_vector(0.0, 10)
    grid = np.deg2rad(np.arange(-9000, 9001) * 0.01)
    gains = pattern_gains_db(a, steering_matrix(grid, 10))
    outside = np.abs(np.rad2deg(grid)) >= 12.0
    assert gains[outside].max() == pytest.approx(UNIFORM_SIDELOBE_DB, abs=1e-9)
