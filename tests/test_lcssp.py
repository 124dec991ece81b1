"""Projection construction, dimension selection, covariance reconstruction."""

import re

import numpy as np
import pytest

import oracle
from beamlab import (
    LcsspConfig,
    NoConvergenceError,
    build_projection,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
    selection_zeros,
    steering_matrix,
    steering_vector,
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


def _partition(cfg, l):
    """(retained, excluded) angles by definition: the selection zeros outside
    the closed look sector, and those inside it plus the presumed direction."""
    zeros = selection_zeros(cfg.presumed_soi, l)
    outside = np.abs(zeros - cfg.presumed_soi) > cfg.soi_sector_halfwidth
    return zeros[outside], np.concatenate((zeros[~outside], [cfg.presumed_soi]))


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
    with pytest.raises(ValueError, match="l_max must be at least l_initial"):
        _config(l_max=9)
    with pytest.raises(ValueError, match="sector halfwidth must be nonnegative"):
        _config(soi_sector_halfwidth=-0.01)
    assert _config(l_max=None).l_max == 80


def test_projection_partitions_the_zero_set():
    cfg = _config()
    proj = build_projection(cfg, 20)
    assert proj.shape == (20, 20)
    retained, excluded = _partition(cfg, 20)
    assert len(retained) + len(excluded) == 20
    assert np.any(np.isclose(excluded, cfg.presumed_soi))
    inside = np.abs(retained - cfg.presumed_soi) <= cfg.soi_sector_halfwidth
    assert not inside.any()
    # The projector is the sum of a a^H over exactly the retained zeros.
    kept = steering_matrix(retained, 20)
    np.testing.assert_allclose(proj, kept @ kept.conj().T, atol=1e-12)


def test_projection_is_orthogonal_projector():
    cfg = _config()
    c = build_projection(cfg, 20)
    np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
    np.testing.assert_allclose(c @ c, c, atol=1e-10)
    eigs = np.linalg.eigvalsh(c)
    assert int(np.sum(eigs > 0.5)) == len(_partition(cfg, 20)[0])


def test_projection_passes_retained_and_blocks_excluded():
    cfg = _config()
    proj = build_projection(cfg, 20)
    retained, excluded = _partition(cfg, 20)
    kept = steering_matrix(retained, 20)
    np.testing.assert_allclose(proj @ kept, kept, atol=1e-10)
    blocked = steering_matrix(excluded, 20)
    np.testing.assert_allclose(proj @ blocked, 0, atol=1e-10)


def test_projection_rejects_fully_excluded_sector():
    wide = _config(soi_sector_halfwidth=np.pi)
    with pytest.raises(ValueError):
        build_projection(wide, 20)


def test_projection_and_error_reject_degenerate_inputs():
    cfg = _config()
    with pytest.raises(ValueError, match="at least 2"):
        build_projection(cfg, 1)
    with pytest.raises(ValueError, match="at least one interferer angle"):
        normalized_error(build_projection(cfg, 10), [])


def test_normalized_error_reference_values():
    cfg = _config()
    for l, expected in EPSILON_BY_DIMENSION.items():
        eps = normalized_error(build_projection(cfg, l), INTERFERERS)
        assert eps == pytest.approx(expected, abs=1e-12)
    for l in LATTICE_ALIGNED_DIMENSIONS:
        eps = normalized_error(build_projection(cfg, l), INTERFERERS)
        assert eps < 1e-12


def test_normalized_error_of_a_blocked_interferer_is_one():
    # Every projector blocks the presumed direction, so an interferer there
    # loses all its energy; rounding must not lift the error above 1.
    for presumed_deg in (0.0, 10.0, -20.0, 35.0):
        presumed = np.deg2rad(presumed_deg)
        cfg = _config(presumed_soi=presumed, nominal_interferers=[presumed])
        for l in range(10, 41):
            eps = normalized_error(build_projection(cfg, l), [presumed])
            assert 1.0 - 1e-12 <= eps <= 1.0


def test_select_dimension_returns_first_below_threshold():
    l, proj = select_dimension(_config())
    assert l == 12
    assert proj.shape == (12, 12)
    assert normalized_error(proj, INTERFERERS) <= 0.05


def test_select_dimension_no_convergence_reports_best():
    cfg = _config(
        nominal_interferers=np.deg2rad([7.0, 30.0]), delta=0.01, l_max=40
    )
    with pytest.raises(NoConvergenceError) as err:
        select_dimension(cfg)
    error, l = re.search(r"best error (\S+) at l=(\d+)$", str(err.value)).groups()
    assert float(error) > 0.01
    assert 10 <= int(l) <= 40


def test_select_dimension_skips_dimensions_without_a_projector():
    # A 70-degree sector holds every selection zero at l 11, 13 and 15 (the
    # even l keep the -90 degree zero), so no projector exists there; the
    # search goes on to the first l that qualifies.
    cfg = _config(
        soi_sector_halfwidth=np.deg2rad(70.0), nominal_interferers=np.deg2rad([-75.0, 75.0])
    )
    for l in (11, 13, 15):
        with pytest.raises(ValueError, match="swallows every basis angle"):
            build_projection(cfg, l)
    l, proj = select_dimension(cfg)
    assert l == 29
    np.testing.assert_array_equal(proj, build_projection(cfg, 29))
    assert normalized_error(proj, cfg.nominal_interferers) == pytest.approx(0.008926, abs=1e-6)
    # With no projector at any l, each counts as losing all the interferer
    # energy: the closest is the first l, at error 1.
    cfg = _config(soi_sector_halfwidth=np.deg2rad(90.0), l_max=20)
    with pytest.raises(NoConvergenceError, match=r"best error 1 at l=10$"):
        select_dimension(cfg)


def test_reconstruct_ipnc_takes_physical_block():
    cfg = _config()
    proj = build_projection(cfg, 20)
    directions, powers = [0.0, *INTERFERERS], [10.0, 1000.0, 1000.0]
    r20 = oracle.covariance(directions, powers, oracle.positions(20))
    rec = reconstruct_ipnc(proj, r20, 10)
    assert rec.shape == (10, 10)
    full = proj @ r20 @ proj.conj().T
    np.testing.assert_allclose(rec, (full + full.conj().T)[:10, :10] / 2, atol=1e-10)
    for m in (0, 21):
        with pytest.raises(ValueError):
            reconstruct_ipnc(proj, r20, m)
    with pytest.raises(ValueError):
        reconstruct_ipnc(proj, oracle.covariance(directions, powers, oracle.positions(10)), 10)


def test_lcssp_weights_satisfy_constraint():
    cfg = _config()
    proj = build_projection(cfg, 20)
    x = oracle.snapshots([0.0, *INTERFERERS], [10.0, 100.0, 100.0], oracle.positions(20), 50, 8)
    scm = oracle.sample_covariance(x)
    rec = reconstruct_ipnc(proj, scm, 10)
    a = steering_vector(0.0, 10)
    w = lcssp_weights(rec, a)
    assert w @ a.conj() == pytest.approx(1.0, abs=1e-12)


def test_select_dimension_fixed_matches_equivalent_auto():
    l_auto, proj_auto = select_dimension(_config())
    l_fixed, proj_fixed = select_dimension(_config(fixed_l=12))
    assert l_auto == l_fixed == 12
    np.testing.assert_array_equal(proj_fixed, proj_auto)
    assert normalized_error(proj_fixed, INTERFERERS) == normalized_error(proj_auto, INTERFERERS)

