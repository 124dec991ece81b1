"""Output SINR, deviation from optimal, beampattern evaluation."""

import numpy as np
import pytest

from beamlab import (
    ArrayGeometry,
    Scenario,
    beampattern,
    default_beampattern_grid,
    optimal_weights,
    output_sinr,
    sinr_deviation,
    steering_vector,
    true_ipnc,
)

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


def _scenario():
    return Scenario(
        soi_direction_true=0.05,
        soi_direction_presumed=0.0,
        interferer_directions_true=np.deg2rad([-30.0, 30.0]),
        interferer_directions_nominal=np.deg2rad([-30.0, 30.0]),
        soi_power=10.0,
        interferer_powers=np.array([100.0, 100.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(10),
    )


def test_sinr_deviation_of_optimal_is_zero():
    sc = _scenario()
    tsv = steering_vector(sc.soi_direction_true, 10, sc.geometry)
    w = optimal_weights(true_ipnc(sc, 10), tsv)
    assert sinr_deviation(w, sc) == pytest.approx(0.0, abs=1e-9)


def test_sinr_deviation_positive_for_mismatched_weights():
    sc = _scenario()
    wrong = steering_vector(np.deg2rad(3.0), 10)
    w = optimal_weights(true_ipnc(sc, 10), wrong)
    assert sinr_deviation(w, sc) > 0.0


def test_default_grid_covers_visible_region():
    grid = default_beampattern_grid()
    assert len(grid) == 1801
    assert grid[0] == pytest.approx(-np.pi / 2, abs=1e-12)
    assert grid[-1] == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.all(np.diff(grid) > 0)


def test_beampattern_peaks_at_steering_direction():
    target = np.deg2rad(20.0)
    a = steering_vector(target, 10)
    curve = beampattern(a, default_beampattern_grid())
    assert curve.gains_db.max() == pytest.approx(0.0, abs=0)
    peak = curve.angles[np.argmax(curve.gains_db)]
    assert abs(peak - target) < np.deg2rad(0.11)


def test_beampattern_uniform_sidelobe_reference():
    a = steering_vector(0.0, 10)
    grid = np.deg2rad(np.arange(-9000, 9001) * 0.01)
    curve = beampattern(a, grid)
    outside = np.abs(np.rad2deg(curve.angles)) >= 12.0
    assert curve.gains_db[outside].max() == pytest.approx(UNIFORM_SIDELOBE_DB, abs=1e-9)


def test_beampattern_rejects_bad_grid():
    a = steering_vector(0.0, 4)
    with pytest.raises(ValueError):
        beampattern(a, np.array([]))
    with pytest.raises(ValueError):
        beampattern(a, np.array([0.2, 0.1]))
