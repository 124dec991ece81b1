"""Baseline beamformers, conditioning policy, sector-integral reconstruction."""

import numpy as np
import pytest

from beamlab import (
    ArrayGeometry,
    Scenario,
    SingularCovarianceError,
    capon_integral_ipnc,
    capon_integral_weights,
    conditioned_matrix,
    diagonal_loading_weights,
    distortionless_solve,
    generate_snapshots,
    sample_covariance,
    scm_mvdr_weights,
    optimal_weights,
    steering_vector,
    theoretical_covariance,
)
from beamlab.array_model import _steering_grid
from beamlab.baselines import _capon_accumulate

# Total angular measure of [-90, -6] and [6, 90] degrees in radians;
# quadrature weights must sum to it for any sample budget.
SECTOR_COMPLEMENT_MEASURE = 2.9321531433504737

COMPLEMENT = (
    (-np.pi / 2, np.deg2rad(-6.0)),
    (np.deg2rad(6.0), np.pi / 2),
)


def _scenario(m=10, inr_db=10.0):
    return Scenario(
        soi_direction_true=0.0,
        soi_direction_presumed=0.0,
        interferer_directions_true=np.deg2rad([-30.0, 30.0]),
        interferer_directions_nominal=np.deg2rad([-30.0, 30.0]),
        soi_power=10.0,
        interferer_powers=np.full(2, 10.0 ** (inr_db / 10.0)),
        noise_power=1.0,
        geometry=ArrayGeometry(m),
    )


def test_capon_accumulate_matches_direct_sum():
    rng = np.random.default_rng(1)
    n, g = 10, 64
    positions = np.arange(n) * 0.5 + rng.uniform(-0.05, 0.05, n)
    sines = np.sort(rng.uniform(-1.0, 1.0, g))
    x = rng.standard_normal((n, 3 * n)) + 1j * rng.standard_normal((n, 3 * n))
    rinv = np.linalg.inv(x @ x.conj().T / (3 * n) + np.eye(n))
    rinv = (rinv + rinv.conj().T) / 2
    deltas = rng.uniform(0.01, 0.1, g)
    steer = _steering_grid(positions, sines)
    got = _capon_accumulate(steer, rinv, deltas)
    expected = np.zeros((n, n), dtype=complex)
    for j in range(g):
        a = steer[:, j]
        q = (a.conj() @ rinv @ a).real
        expected += deltas[j] * np.outer(a, a.conj()) / q
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_distortionless_solve_matches_direct_inverse():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 60)) + 1j * rng.standard_normal((5, 60))
    r = x @ x.conj().T / 60
    a = steering_vector(0.2, 5)
    w = distortionless_solve(r, a)
    direct = np.linalg.solve(r, a)
    direct = direct / (a.conj() @ direct)
    np.testing.assert_allclose(w, direct, atol=1e-10)


def test_distortionless_constraint_is_exact():
    sc = _scenario()
    scm = sample_covariance(generate_snapshots(sc, 10, 50, seed=1))
    a = steering_vector(0.0, 10)
    for w in (
        scm_mvdr_weights(scm, a),
        diagonal_loading_weights(scm, a),
        capon_integral_weights(scm, a, COMPLEMENT),
    ):
        assert w @ a.conj() == pytest.approx(1.0, abs=1e-12)


def test_optimal_weights_diagonal_covariance():
    # R = diag(1, 2), a = e0: whitening leaves the first axis untouched.
    r = np.diag([1.0, 2.0]).astype(complex)
    a = np.array([1.0, 0.0], dtype=complex)
    w = optimal_weights(r, a)
    np.testing.assert_allclose(w, a, atol=1e-14)


def test_conditioned_matrix_passthrough_when_well_conditioned():
    r = np.diag([2.0, 1.0]).astype(complex)
    np.testing.assert_array_equal(conditioned_matrix(r), r)


def test_conditioned_matrix_loads_once_when_needed():
    r = np.diag([1.0, 1e-14]).astype(complex)
    out = conditioned_matrix(r)
    load = 1e-10 * np.trace(r).real / 2
    np.testing.assert_allclose(out, r + load * np.eye(2), atol=1e-30)
    assert np.linalg.cond(out) < 1e12


def test_conditioned_matrix_raises_when_loading_cannot_help():
    with pytest.raises(SingularCovarianceError):
        conditioned_matrix(np.zeros((3, 3), dtype=complex))


def test_conditioning_failure_is_per_item():
    good = np.diag([2.0, 1.0]).astype(complex)
    stack = np.stack([good, np.zeros((2, 2), dtype=complex), good])
    a = np.array([1.0, 0.0], dtype=complex)
    failures = {}
    w = scm_mvdr_weights(stack, a, failures)
    assert list(failures) == [1]
    assert isinstance(failures[1], SingularCovarianceError)
    np.testing.assert_array_equal(w[0], scm_mvdr_weights(good, a))
    np.testing.assert_array_equal(w[2], w[0])
    with pytest.raises(SingularCovarianceError):
        scm_mvdr_weights(stack, a)


def test_single_snapshot_scm_survives_conditioning():
    sc = _scenario()
    scm = sample_covariance(generate_snapshots(sc, 10, 1, seed=2))
    a = steering_vector(0.0, 10)
    w = scm_mvdr_weights(scm, a)
    assert w @ a.conj() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_loading_default_level():
    sc = _scenario()
    scm = sample_covariance(generate_snapshots(sc, 10, 50, seed=4))
    a = steering_vector(0.0, 10)
    level = 10.0 * max(np.linalg.eigvalsh(scm)[0], 0.0)
    np.testing.assert_allclose(
        diagonal_loading_weights(scm, a),
        diagonal_loading_weights(scm, a, loading=level),
        atol=1e-14,
    )


def test_capon_integral_weight_normalization():
    # With an identity covariance the integrand traces to one at every
    # angle, so the reconstruction trace equals the total measure.
    ident = sample_covariance(np.eye(10, dtype=complex) * np.sqrt(10))
    est = capon_integral_ipnc(ident, COMPLEMENT, n_samples=200)
    assert np.trace(est).real == pytest.approx(SECTOR_COMPLEMENT_MEASURE, rel=1e-12)
    est2 = capon_integral_ipnc(ident, COMPLEMENT, n_samples=400)
    assert np.trace(est2).real == pytest.approx(SECTOR_COMPLEMENT_MEASURE, rel=1e-12)


def test_capon_integral_quadrature_refinement_is_stable():
    sc = _scenario(inr_db=10.0)
    theo = theoretical_covariance(sc, 10)
    base = capon_integral_ipnc(theo, COMPLEMENT, n_samples=200)
    fine = capon_integral_ipnc(theo, COMPLEMENT, n_samples=400)
    rel = np.linalg.norm(fine - base) / np.linalg.norm(base)
    assert rel < 0.01


def test_capon_integral_rejects_bad_intervals():
    ident = sample_covariance(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        capon_integral_ipnc(ident, ((0.5, 0.1),))
    with pytest.raises(ValueError):
        capon_integral_ipnc(ident, ())
