"""Projection construction, dimension selection, covariance reconstruction."""

import numpy as np
import pytest

from beamlab import (
    ArrayGeometry,
    CovarianceKind,
    LcsspConfig,
    NoConvergenceError,
    Scenario,
    build_projection,
    estimate_interferer_directions,
    generate_snapshots,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    sample_covariance,
    select_dimension,
    steering_matrix,
    steering_vector,
    theoretical_covariance,
)

INTERFERERS = np.deg2rad([-30.0, 30.0])

# Reference projection errors for the default layout (look direction 0,
# sector halfwidth 6 degrees, interferers at +-30), computed with an
# independent implementation. Dimensions that divide the interferer
# sines onto the zero lattice collapse the error to rounding level.
EPSILON_BY_DIMENSION = {
    10: 0.14142135623730956,
    11: 0.09090909090909091,
    13: 0.07692307692307693,
}
LATTICE_ALIGNED_DIMENSIONS = (12, 20)


def _config(**overrides):
    base = dict(
        presumed_soi=0.0,
        soi_sector_halfwidth=np.deg2rad(6.0),
        nominal_interferers=INTERFERERS,
        delta=0.05,
        l_initial=10,
    )
    base.update(overrides)
    return LcsspConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(delta=0.0)
    with pytest.raises(ValueError):
        _config(delta=1.5)
    with pytest.raises(ValueError):
        _config(nominal_interferers=np.array([]))
    with pytest.raises(ValueError):
        _config(l_initial=1)
    with pytest.raises(ValueError):
        _config(fixed_l=5)
    assert _config(l_max=None).l_max == 80


def test_projection_partitions_the_zero_set():
    cfg = _config()
    proj = build_projection(cfg, 20)
    assert proj.dim == 20
    assert len(proj.retained_angles) + len(proj.excluded_angles) == 20
    assert np.any(np.isclose(proj.excluded_angles, cfg.presumed_soi))
    inside = np.abs(proj.retained_angles - cfg.presumed_soi) <= cfg.soi_sector_halfwidth
    assert not inside.any()


def test_projection_is_orthogonal_projector():
    proj = build_projection(_config(), 20)
    c = proj.matrix
    np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
    np.testing.assert_allclose(c @ c, c, atol=1e-10)
    eigs = np.linalg.eigvalsh(c)
    assert int(np.sum(eigs > 0.5)) == len(proj.retained_angles)


def test_projection_passes_retained_and_blocks_excluded():
    proj = build_projection(_config(), 20)
    kept = steering_matrix(proj.retained_angles, 20)
    np.testing.assert_allclose(proj.matrix @ kept, kept, atol=1e-10)
    blocked = steering_matrix(proj.excluded_angles, 20)
    np.testing.assert_allclose(proj.matrix @ blocked, 0, atol=1e-10)


def test_projection_rejects_fully_excluded_sector():
    wide = _config(soi_sector_halfwidth=np.pi)
    with pytest.raises(ValueError):
        build_projection(wide, 20)


def test_normalized_error_reference_values():
    cfg = _config()
    for l, expected in EPSILON_BY_DIMENSION.items():
        eps = normalized_error(build_projection(cfg, l), INTERFERERS)
        assert eps == pytest.approx(expected, abs=1e-12)
    for l in LATTICE_ALIGNED_DIMENSIONS:
        eps = normalized_error(build_projection(cfg, l), INTERFERERS)
        assert eps < 1e-12


def test_select_dimension_returns_first_below_threshold():
    l, proj = select_dimension(_config())
    assert l == 12
    assert proj.dim == 12
    assert normalized_error(proj, INTERFERERS) <= 0.05


def test_select_dimension_no_convergence_reports_best():
    cfg = _config(
        nominal_interferers=np.deg2rad([7.0, 30.0]), delta=0.01, l_max=40
    )
    with pytest.raises(NoConvergenceError) as err:
        select_dimension(cfg)
    assert err.value.best_error > 0.01
    assert 10 <= err.value.best_l <= 40


def test_reconstruct_ipnc_takes_physical_block():
    cfg = _config()
    proj = build_projection(cfg, 20)
    sc = Scenario(
        soi_direction_true=0.0,
        soi_direction_presumed=0.0,
        interferer_directions_true=INTERFERERS,
        interferer_directions_nominal=INTERFERERS,
        soi_power=10.0,
        interferer_powers=np.array([1000.0, 1000.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(10, 0.5),
    )
    r20 = theoretical_covariance(sc, 20)
    rec = reconstruct_ipnc(proj, r20, 10)
    assert rec.n == 10
    assert rec.kind is CovarianceKind.RECONSTRUCTED
    full = proj.matrix @ r20.matrix @ proj.matrix.conj().T
    np.testing.assert_allclose(rec.matrix, (full + full.conj().T)[:10, :10] / 2, atol=1e-10)


def test_lcssp_weights_satisfy_constraint():
    cfg = _config()
    proj = build_projection(cfg, 20)
    sc = Scenario(
        soi_direction_true=0.0,
        soi_direction_presumed=0.0,
        interferer_directions_true=INTERFERERS,
        interferer_directions_nominal=INTERFERERS,
        soi_power=10.0,
        interferer_powers=np.array([100.0, 100.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(10, 0.5),
    )
    scm = sample_covariance(generate_snapshots(sc, 20, 50, seed=8))
    rec = reconstruct_ipnc(proj, scm, 10)
    a = steering_vector(0.0, 10)
    w = lcssp_weights(rec, a)
    assert w.values @ a.values.conj() == pytest.approx(1.0, abs=1e-12)


def test_select_dimension_fixed_matches_equivalent_auto():
    l_auto, proj_auto = select_dimension(_config())
    l_fixed, proj_fixed = select_dimension(_config(fixed_l=12))
    assert l_auto == l_fixed == 12
    np.testing.assert_array_equal(proj_fixed.matrix, proj_auto.matrix)
    assert normalized_error(proj_fixed, INTERFERERS) == normalized_error(proj_auto, INTERFERERS)


def test_estimate_interferer_directions_finds_strong_sources():
    sc = Scenario(
        soi_direction_true=0.0,
        soi_direction_presumed=0.0,
        interferer_directions_true=INTERFERERS,
        interferer_directions_nominal=INTERFERERS,
        soi_power=10.0,
        interferer_powers=np.array([1000.0, 1000.0]),
        noise_power=1.0,
        geometry=ArrayGeometry(10, 0.5),
    )
    theo = theoretical_covariance(sc, 10)
    found = estimate_interferer_directions(theo, 2, _config())
    np.testing.assert_allclose(np.sort(found), INTERFERERS, atol=np.deg2rad(0.11))
