"""Baseline beamformers, conditioning policy, sector-integral reconstruction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from beamlab import (
    SingularCovarianceError,
    capon_integral_ipnc,
    capon_integral_weights,
    conditioned_matrix,
    diagonal_loading_weights,
    distortionless_solve,
    scm_mvdr_weights,
    optimal_weights,
    steering_matrix,
    steering_vector,
)
from beamlab import baselines
from beamlab.baselines import COND_LIMIT

# Total angular measure of [-90, -6] and [6, 90] degrees in radians;
# quadrature weights must sum to it for any sample budget.
SECTOR_COMPLEMENT_MEASURE = 2.9321531433504737

COMPLEMENT = (
    (-np.pi / 2, np.deg2rad(-6.0)),
    (np.deg2rad(6.0), np.pi / 2),
)
# SOI at broadside, interferers at -30 and +30 degrees, all at 10 dB.
DIRECTIONS = np.deg2rad([0.0, -30.0, 30.0])
POWERS = [10.0, 10.0, 10.0]


def _scm(k, seed):
    """Sample covariance of k snapshots of the sources at ten elements."""
    x = oracle.snapshots(DIRECTIONS, POWERS, oracle.positions(10), k, seed)
    return oracle.sample_covariance(x)


def _random_covariances(rng, n, shape):
    """A ``shape`` stack of random Hermitian positive definite n x n matrices."""
    k = 2 * n
    x = rng.standard_normal((*shape, n, k)) + 1j * rng.standard_normal((*shape, n, k))
    return x @ np.swapaxes(x, -1, -2).conj() / k + 0.1 * np.eye(n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    edges=st.tuples(st.floats(-80.0, 80.0), st.floats(0.5, 9.0)),
    sides=st.sampled_from(["both", "left", "right"]),
    n_samples=st.integers(2, 300),
)
def test_capon_integral_matches_direct_sum(n, seed, edges, sides, n_samples):
    # The Toeplitz kernel against sum_j delta_j a_j a_j^H / (a_j^H R^-1 a_j),
    # formed angle by angle from nominal steering vectors, over the same
    # midpoint grid: one or two intervals around a look sector.
    center, halfwidth = np.deg2rad(edges)
    left = (-np.pi / 2, center - halfwidth)
    right = (center + halfwidth, np.pi / 2)
    complement = {"both": (left, right), "left": (left,), "right": (right,)}[sides]
    r = _random_covariances(np.random.default_rng(seed), n, (1,))[0]
    # A patch, not the function-scoped monkeypatch fixture, which a
    # hypothesis test cannot take.
    with mock.patch.object(baselines, "CAPON_SAMPLES", n_samples):
        got = capon_integral_ipnc(r, complement)
    rinv = np.linalg.inv(r)
    total = sum(hi - lo for lo, hi in complement)
    expected = np.zeros((n, n), dtype=complex)
    for lo, hi in complement:
        count = max(1, round(n_samples * (hi - lo) / total))
        step = (hi - lo) / count
        for theta in lo + (np.arange(count) + 0.5) * step:
            a = steering_matrix([theta], n)[:, 0]
            expected += step * np.outer(a, a.conj()) / (a.conj() @ rinv @ a).real
    scale = np.abs(expected).max()
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_array_equal(got, got.conj().T)


@pytest.mark.parametrize("shape", [(1,), (7,), (144,), (3, 1, 4)], ids=["1", "7", "144", "3x1x4"])
def test_capon_integral_item_bits_do_not_depend_on_the_batch(shape):
    # Any leading axes, a size-1 axis among them, leave each item's bits alone.
    stack = _random_covariances(np.random.default_rng(np.prod(shape)), 10, shape)
    together = capon_integral_ipnc(stack, COMPLEMENT)
    for index in np.ndindex(shape):
        alone = capon_integral_ipnc(stack[index], COMPLEMENT)
        np.testing.assert_array_equal(together[index], alone)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    lead=st.lists(st.integers(1, 3), max_size=2),
    dtype=st.sampled_from([float, complex]),
    negative_zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_sums_are_sequential_sums_over_rows(n, lead, dtype, negative_zeros, seed):
    # Entry r sums diagonal q - p = n - 1 - r from a +0.0 start, adding row
    # p's entry for p in ascending order, bit for bit; -0.0 entries and
    # magnitudes far apart show any other order or start.
    rng = np.random.default_rng(seed)
    shape = (*lead, n, n)
    stack = (rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)).astype(dtype)
    if dtype is complex:
        stack += 1j * rng.standard_normal(shape)
    if negative_zeros:
        stack[rng.random(shape) < 0.5] = -0.0
    expected = np.zeros((*lead, 2 * n - 1), dtype=dtype)
    for index in np.ndindex(*lead):
        for r in range(2 * n - 1):
            for p in range(max(0, r - n + 1), min(n, r + 1)):
                expected[(*index, r)] += stack[(*index, p, n - 1 - r + p)]
    got = baselines._diagonal_sums(stack)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


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
    scm = _scm(50, seed=1)
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


def test_distortionless_solve_rejects_a_steering_vector_in_the_nullspace():
    # A well-conditioned matrix passes the screen, but a zero steering
    # vector gives a^H R^-1 a = 0, which no normalization can fix.
    with pytest.raises(SingularCovarianceError, match="solve nullspace"):
        distortionless_solve(np.eye(3), np.zeros(3))


def test_conditioning_failure_is_per_item():
    # One failing item raises for its whole stack, and only that item
    # fails: the items beside it pass alone and as a stack of their own.
    # The harness redoes such a stack point by point (see
    # test_failing_points_do_not_touch_the_rest_of_the_stack).
    good = np.diag([2.0, 1.0]).astype(complex)
    stack = np.stack([good, np.zeros((2, 2), dtype=complex), good])
    a = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(SingularCovarianceError):
        scm_mvdr_weights(stack, a)
    with pytest.raises(SingularCovarianceError):
        scm_mvdr_weights(stack[1], a)
    w = scm_mvdr_weights(stack[[0, 2]], a)
    np.testing.assert_array_equal(w[0], scm_mvdr_weights(good, a))
    np.testing.assert_array_equal(w[1], w[0])


def test_single_snapshot_scm_survives_conditioning():
    scm = _scm(1, seed=2)
    a = steering_vector(0.0, 10)
    w = scm_mvdr_weights(scm, a)
    assert w @ a.conj() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_loading_default_level():
    scm = _scm(50, seed=4)
    a = steering_vector(0.0, 10)
    level = 10.0 * max(np.linalg.eigvalsh(scm)[0], 0.0)
    np.testing.assert_allclose(
        diagonal_loading_weights(scm, a),
        distortionless_solve(scm + level * np.eye(10), a),
        atol=1e-14,
    )


def _conditioned(matrix):
    """``conditioned_matrix``'s result, or the text of the error it raises."""
    try:
        return conditioned_matrix(matrix)
    except SingularCovarianceError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 12),
    log_cond=st.floats(10.5, 13.0),
    log_scale=st.floats(-6.0, 6.0),
    indefinite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=10, log_cond=13.0, log_scale=0.0, indefinite=False, seed=0)  # loads
@example(n=2, log_cond=10.5, log_scale=0.0, indefinite=False, seed=0)  # screen passes
def test_cholesky_screen_decides_like_the_eigenvalue_check(
    n, log_cond, log_scale, indefinite, seed
):
    # R = Q diag(lambda) Q^H with eigenvalue magnitudes from 1 down to
    # 1 / cond, times a scale; the smallest is negated for an indefinite R.
    # With the Cholesky screen forced to fail, conditioned_matrix runs its
    # eigvalsh check alone; the screen must not change a single bit, an
    # error text or whether R itself comes back. A stack that holds R
    # beside a well-conditioned matrix mixes passing and loading items
    # whenever R loads.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    lam = 10.0 ** np.concatenate(([0.0, -log_cond], rng.uniform(-log_cond, 0.0, n - 2)))
    if indefinite:
        lam[1] = -lam[1]

    def hermitian(eigenvalues):
        r = 10.0**log_scale * (q * eigenvalues) @ q.conj().T
        return (r + r.conj().T) / 2

    real_cholesky = np.linalg.cholesky
    passes = []

    def screen(a):
        factor = real_cholesky(a)
        passes.append(len(a))
        return factor

    r = hermitian(lam)
    for matrix in (r, np.stack([hermitian(np.linspace(1.0, 2.0, n)), r])):
        with mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.LinAlgError):
            reference = _conditioned(matrix)
        passes.clear()
        with mock.patch.object(np.linalg, "cholesky", screen):
            got = _conditioned(matrix)
        if isinstance(reference, str):
            assert got == reference
            continue
        assert got.shape == reference.shape and got.tobytes() == reference.tobytes()
        assert (got is matrix) == (reference is matrix)
        if passes:
            assert got is matrix
            assert np.all(np.linalg.cond(matrix) <= COND_LIMIT)


def _with_entry(row, col, value):
    r = np.eye(3, dtype=complex)
    r[row, col] = value
    return r


@pytest.mark.parametrize(
    ("matrix", "expected"),
    [
        (_with_entry(2, 0, np.nan), "covariance condition number nan exceeds"),
        (_with_entry(2, 0, np.inf), "covariance condition number nan exceeds"),
        (-np.eye(3, dtype=complex), "pass"),
        (np.stack([np.eye(3), np.zeros((3, 3))]) + 0j, "covariance condition number inf"),
    ],
    ids=["nan", "inf", "negative_definite", "zero_item"],
)
def test_screen_leaves_nonfinite_and_nonpositive_trace_to_eigvalsh(matrix, expected):
    # The screen runs only on finite stacks whose traces are all positive;
    # the rest decide by eigenvalue magnitudes as without it. LAPACK's
    # Cholesky factors a nan below the diagonal without complaint, so only
    # the finiteness check makes such an item raise; -I passes as itself,
    # since its condition number is 1.
    got = _conditioned(matrix)
    with mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.LinAlgError):
        reference = _conditioned(matrix)
    if expected == "pass":
        assert got is matrix and reference is matrix
    else:
        assert got == reference and got.startswith(expected), got


def test_capon_integral_weight_normalization():
    # With an identity covariance the integrand traces to one at every
    # angle, so the reconstruction trace equals the total measure.
    ident = np.eye(10, dtype=complex)
    est = capon_integral_ipnc(ident, COMPLEMENT)
    assert np.trace(est).real == pytest.approx(SECTOR_COMPLEMENT_MEASURE, rel=1e-12)
    with mock.patch.object(baselines, "CAPON_SAMPLES", 400):
        est2 = capon_integral_ipnc(ident, COMPLEMENT)
    assert np.trace(est2).real == pytest.approx(SECTOR_COMPLEMENT_MEASURE, rel=1e-12)


def test_capon_integral_quadrature_refinement_is_stable():
    theo = oracle.covariance(DIRECTIONS, POWERS, oracle.positions(10))
    base = capon_integral_ipnc(theo, COMPLEMENT)
    with mock.patch.object(baselines, "CAPON_SAMPLES", 400):
        fine = capon_integral_ipnc(theo, COMPLEMENT)
    rel = np.linalg.norm(fine - base) / np.linalg.norm(base)
    assert rel < 0.01


def test_capon_integral_rejects_bad_intervals():
    ident = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        capon_integral_ipnc(ident, ((0.5, 0.1),))
    with pytest.raises(ValueError):
        capon_integral_ipnc(ident, ())
