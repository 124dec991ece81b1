"""Property tests: projector algebra, projection error and the dimension
search against a direct scan, SOI removal and PSD reconstructions,
distortionless constraint, broadcasting over leading axes, SINR bound,
invariance of sweep results under trial-count and worker splits, the
factored point draw against the per-point draw, the blocked CSV
writer against a row-at-a-time one, its time over a long row period and
its table shape check, the memory of the CSV writer, the sweep and the draw,
the trial chunk layout and the memory model against it and against traced
and resident peaks."""

import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from beamlab import (
    ConfigError,
    LcsspConfig,
    NoConvergenceError,
    SingularCovarianceError,
    build_projection,
    capon_integral_ipnc,
    conditioned_matrix,
    default_config,
    diagonal_loading_weights,
    distortionless_solve,
    emit_csv,
    hermitize,
    normalize_config,
    normalized_error,
    optimal_weights,
    output_sinr,
    reconstruct_ipnc,
    run_experiment,
    select_dimension,
    selection_zeros,
    steering_matrix,
    steering_vector,
)
from beamlab import harness
from beamlab.baselines import COND_LIMIT, LOADING_FLOOR
from beamlab.config import (
    EXPERIMENTS,
    MAX_DIMENSION,
    MAX_POWER_DB,
    MEMORY_BUDGET,
    METHOD_NAMES,
    TRIAL_CHUNK,
    _sector_complement,
    memory_terms,
    run_layout,
    trial_chunks,
)
from beamlab.harness import MethodViews, SweepResult, _draw_mismatch
from beamlab.metrics import beampattern_grid_deg

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

degrees = st.floats(min_value=-60.0, max_value=60.0)
halfwidths = st.floats(min_value=0.0, max_value=20.0)
dimensions = st.integers(min_value=4, max_value=40)


def _lcssp_config(presumed_deg, halfwidth_deg, fixed_l=None):
    return LcsspConfig(
        presumed_soi=np.deg2rad(presumed_deg),
        soi_sector_halfwidth=np.deg2rad(halfwidth_deg),
        nominal_interferers=np.deg2rad([-30.0, 30.0]),
        l_initial=4,
        fixed_l=fixed_l,
    )


def _projection_or_skip(config, l):
    try:
        return build_projection(config, l)
    except ValueError:
        assume(False)


def _retained(config, l):
    """The selection zeros outside the closed look sector, by definition."""
    zeros = selection_zeros(config.presumed_soi, l)
    return zeros[np.abs(zeros - config.presumed_soi) > config.soi_sector_halfwidth]


@PROPERTY_SETTINGS
@given(presumed=degrees, halfwidth=halfwidths, l=dimensions)
def test_projector_is_hermitian_idempotent_with_retained_rank(presumed, halfwidth, l):
    config = _lcssp_config(presumed, halfwidth)
    c = _projection_or_skip(config, l)
    np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
    np.testing.assert_allclose(c @ c, c, atol=1e-10)
    assert abs(np.trace(c) - len(_retained(config, l))) < 1e-9


@PROPERTY_SETTINGS
@given(presumed=degrees, halfwidth=halfwidths, l=dimensions)
def test_select_dimension_with_fixed_l_equals_build_projection(presumed, halfwidth, l):
    config = _lcssp_config(presumed, halfwidth, fixed_l=l)
    expected = _projection_or_skip(config, l)
    l_chosen, proj = select_dimension(config)
    assert l_chosen == l
    assert proj.shape == (l, l)
    np.testing.assert_array_equal(proj, expected)
    kept = steering_matrix(_retained(config, l), l)
    np.testing.assert_allclose(proj @ kept, kept, atol=1e-10)


def _search_config(draw):
    """LcsspConfig of a drawn search: l_initial (the element count m), l_max,
    delta, the look sector and one to three nominal interferers. Sectors
    up to 90 degrees wide can swallow every selection zero at small l, and
    an interferer may sit on the presumed direction, which every
    projector blocks."""
    l_initial = draw(st.integers(min_value=2, max_value=12))
    presumed = draw(degrees)
    interferers = st.one_of(st.just(presumed), degrees)
    return LcsspConfig(
        presumed_soi=np.deg2rad(presumed),
        soi_sector_halfwidth=np.deg2rad(draw(st.floats(min_value=0.0, max_value=90.0))),
        nominal_interferers=np.deg2rad(draw(st.lists(interferers, min_size=1, max_size=3))),
        delta=draw(st.floats(min_value=1e-3, max_value=1.0)),
        l_initial=l_initial,
        l_max=l_initial + draw(st.integers(min_value=0, max_value=24)),
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_normalized_error_lies_in_unit_interval(data):
    # ||(C - I) B||_F / ||B||_F with I - C an orthogonal projector: it keeps
    # at most all of B's energy, and an interferer on an excluded zero or
    # on the presumed direction loses all of it.
    config = _search_config(data.draw)
    l = data.draw(st.integers(min_value=config.l_initial, max_value=config.l_max))
    error = normalized_error(_projection_or_skip(config, l), config.nominal_interferers)
    assert 0.0 <= error <= 1.0


@PROPERTY_SETTINGS
@given(data=st.data())
def test_select_dimension_equals_direct_scan(data):
    # A direct scan of [l_initial, l_max]: the first l whose error is at
    # most delta, else NoConvergenceError naming the scan's argmin and
    # min. A dimension whose projector cannot be built never qualifies
    # and counts as an error of 1, all of the interferers' energy lost.
    config = _search_config(data.draw)
    errors = {}
    for l in range(config.l_initial, config.l_max + 1):
        try:
            projector = build_projection(config, l)
        except ValueError:
            errors[l] = 1.0
            continue
        errors[l] = normalized_error(projector, config.nominal_interferers)
        if errors[l] <= config.delta:
            l_chosen, chosen = select_dimension(config)
            assert l_chosen == l
            np.testing.assert_array_equal(chosen, projector)
            return
    closest = min(errors, key=errors.get)
    best = f"best error {errors[closest]:.6g} at l={closest}"
    with pytest.raises(NoConvergenceError, match=f"{re.escape(best)}$"):
        select_dimension(config)


def _lcssp_scenario(draw):
    """(config, projector, m, interferer powers) of a drawn look sector and sources.

    m and l >= m, the presumed direction and sector halfwidth, and one to
    three interferers with powers from -10 to 40 dB.
    """
    m = draw(st.integers(min_value=2, max_value=12))
    l = m + draw(st.integers(min_value=0, max_value=12))
    presumed, halfwidth = draw(degrees), draw(halfwidths)
    config = LcsspConfig(
        presumed_soi=np.deg2rad(presumed),
        soi_sector_halfwidth=np.deg2rad(halfwidth),
        nominal_interferers=np.deg2rad(draw(st.lists(degrees, min_size=1, max_size=3))),
    )
    projection = _projection_or_skip(config, l)
    powers_db = st.floats(min_value=-10.0, max_value=40.0)
    powers = [10.0 ** (draw(powers_db) / 10.0) for _ in config.nominal_interferers]
    return config, projection, m, powers


@PROPERTY_SETTINGS
@given(data=st.data(), soi_db=st.floats(min_value=0.0, max_value=60.0))
def test_reconstruction_does_not_see_the_soi(data, soi_db):
    # The paper's central step: the retained basis vectors are selection
    # zeros about the presumed direction, so they are orthogonal to its
    # steering vector a0 and the projector removes p a0 a0^H whatever p.
    config, projection, m, powers = _lcssp_scenario(data.draw)
    l = len(projection)
    r = oracle.covariance(config.nominal_interferers, powers, oracle.positions(l))
    p = 10.0 ** (soi_db / 10.0)
    a0 = steering_vector(config.presumed_soi, l)
    with_soi = r + p * np.outer(a0, a0.conj())
    # Each reconstruction is two products of inner dimension l; an entry
    # of a computed product is off by at most l eps |C| |X| |C^H|, whose
    # Frobenius norm is at most ||C||_F^2 ||X||_F <= l ||X||_F for the
    # projector C of rank < l. Both reconstructions, and the rounding of
    # R + p a0 a0^H (eps ||X||_F), stay within 4 l^2 eps (||R||_F + p).
    # The exact projector leaves p |C a0|^2 = 0, the computed one
    # p (l eps)^2, far inside that. Without the removal the difference
    # would be of order p.
    tol = 4 * l**2 * np.finfo(float).eps * (np.linalg.norm(r) + p)
    diff = reconstruct_ipnc(projection, with_soi, m) - reconstruct_ipnc(projection, r, m)
    assert np.linalg.norm(diff) <= tol


@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reconstructions_are_hermitian_psd(data, seed):
    # From a sample covariance of the drawn sources, rank deficient below
    # l snapshots included, both reconstructions are Hermitian PSD.
    config, projection, m, powers = _lcssp_scenario(data.draw)
    l = len(projection)
    k = data.draw(st.integers(min_value=1, max_value=2 * l))
    directions = np.concatenate(([config.presumed_soi], config.nominal_interferers))
    snapshots = oracle.snapshots(directions, [1.0, *powers], oracle.positions(l), k, seed)
    r = oracle.sample_covariance(snapshots)
    eps = np.finfo(float).eps
    lcssp = reconstruct_ipnc(projection, r, m)
    np.testing.assert_array_equal(lcssp, lcssp.conj().T)
    # C_m R C_m^H is a block of the PSD C R C^H. Rounding moves it by at
    # most 2 l^2 eps ||R||_F in Frobenius norm (see the SOI removal
    # property), and by Weyl's inequality its eigenvalues by no more.
    assert np.linalg.eigvalsh(lcssp)[0] >= -2 * l**2 * eps * np.linalg.norm(r)
    complement = _sector_complement(config.presumed_soi, config.soi_sector_halfwidth)
    capon = capon_integral_ipnc(r[:m, :m], complement)
    np.testing.assert_array_equal(capon, capon.conj().T)
    # sum_j delta_j a_j a_j^H / capon_j with every capon_j > 0 is PSD. The
    # Toeplitz route sums the J weighted terms of each lag in one product,
    # an entry off by at most J eps sum_j w_j / n with w_j > 0, and rounds
    # each Fourier entry by eps relative; the Toeplitz error matrix then
    # has Frobenius norm at most (J + 1) eps sum_j w_j = (J + 1) eps trace.
    # J is 200 quadrature points, plus one per interval from rounding.
    n_points = 200 + len(complement)
    trace = np.trace(capon).real
    assert np.linalg.eigvalsh(capon)[0] >= -(n_points + 1) * eps * trace


@st.composite
def hermitian_positive_definite(draw, n):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(min_value=n, max_value=4 * n))
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return x @ x.conj().T / k + draw(st.floats(1e-3, 10.0)) * np.eye(n)


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(min_value=2, max_value=16), angle=degrees)
def test_distortionless_solve_meets_constraint(data, n, angle):
    matrix = data.draw(hermitian_positive_definite(n))
    a = steering_vector(np.deg2rad(angle), n)
    w = distortionless_solve(matrix, a)
    assert abs(np.vdot(w, a) - 1.0) < 1e-12


def _svd_decision(matrix):
    """Pass, load or raise, decided with np.linalg.cond (an SVD)."""
    if np.linalg.cond(matrix) <= COND_LIMIT:
        return "pass"
    n = matrix.shape[0]
    loaded = matrix + (LOADING_FLOOR * np.trace(matrix).real / n) * np.eye(n)
    return "load" if np.linalg.cond(loaded) <= COND_LIMIT else "raise"


@st.composite
def sample_covariances(draw, n):
    """Hermitian PSD sample covariances, rank-deficient when k < n, or zero."""
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return np.zeros((n, n), dtype=complex)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    k = draw(st.integers(min_value=1, max_value=3 * n))
    x = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    # A strong source along one random direction spreads the spectrum.
    source = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    power = 10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0))
    x += np.sqrt(power) * np.outer(source, rng.standard_normal(k))
    scale = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    r = scale * (x @ x.conj().T) / k
    return (r + r.conj().T) / 2


def _decision(matrix):
    try:
        return "pass" if conditioned_matrix(matrix) is matrix else "load"
    except SingularCovarianceError:
        return "raise"


@PROPERTY_SETTINGS
@given(data=st.data(), n=st.integers(min_value=2, max_value=12))
def test_eigenvalue_condition_check_matches_svd(data, n):
    # For Hermitian matrices max|lambda|/min|lambda| is the 2-norm
    # condition number, so the batched eigvalsh check must decide like
    # np.linalg.cond, one matrix at a time and across a stack: the stack
    # raises if any item raises, else each item passes or loads as alone.
    stack = np.stack([data.draw(sample_covariances(n)) for _ in range(3)])
    expected = [_svd_decision(r) for r in stack]
    assert [_decision(r) for r in stack] == expected
    if "raise" in expected:
        with pytest.raises(SingularCovarianceError):
            conditioned_matrix(stack)
        return
    out = conditioned_matrix(stack)
    for i, decision in enumerate(expected):
        if decision == "pass":
            np.testing.assert_array_equal(out[i], stack[i])
        elif decision == "load":
            np.testing.assert_array_equal(out[i], conditioned_matrix(stack[i]))


def _item_bits(a):
    """Raw bits of a float or complex value or array."""
    return np.ascontiguousarray(a).view(np.uint64)


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    shape=st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_library_broadcasts_over_leading_axes(data, shape, seed):
    # A sweep chunk's layout: (T, X) covariances against (T, 1) IPNCs and
    # steering vectors and (1, X) SOI powers. Every item of a stacked call
    # equals the call on that item alone, bit for bit. Covariances of fewer
    # snapshots than elements make conditioned_matrix load some items.
    config, projection, m, _ = _lcssp_scenario(data.draw)
    l, (t, x) = len(projection), shape
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((t, x, l, 2 * l)) + 1j * rng.standard_normal((t, x, l, 2 * l))
    z *= np.arange(2 * l) < rng.integers(1, 2 * l + 1, size=(t, x, 1, 1))
    cov = hermitize(z @ np.swapaxes(z, -1, -2).conj() / (2 * l))
    scm = cov[..., :m, :m]
    z = rng.standard_normal((t, 1, m, 2 * m)) + 1j * rng.standard_normal((t, 1, m, 2 * m))
    ipnc = hermitize(z @ np.swapaxes(z, -1, -2).conj() / (2 * m) + 0.1 * np.eye(m))
    tsv = np.ascontiguousarray(steering_matrix(rng.uniform(-1.5, 1.5, t), m).T[:, None])
    soi_power = rng.uniform(0.1, 10.0, (1, x))
    w = distortionless_solve(scm, tsv)
    stacked = {
        "conditioned_matrix": conditioned_matrix(scm),
        "distortionless_solve": w,
        "diagonal_loading_weights": diagonal_loading_weights(scm, tsv),
        "reconstruct_ipnc": reconstruct_ipnc(projection, cov, m),
        "output_sinr": output_sinr(w, soi_power, tsv, ipnc),
    }
    for i, j in np.ndindex(shape):
        alone = {
            "conditioned_matrix": conditioned_matrix(scm[i, j]),
            "distortionless_solve": distortionless_solve(scm[i, j], tsv[i, 0]),
            "diagonal_loading_weights": diagonal_loading_weights(scm[i, j], tsv[i, 0]),
            "reconstruct_ipnc": reconstruct_ipnc(projection, cov[i, j], m),
            "output_sinr": output_sinr(w[i, j], soi_power[0, j], tsv[i, 0], ipnc[i, 0]),
        }
        for name, value in alone.items():
            assert np.array_equal(_item_bits(stacked[name][i, j]), _item_bits(value)), name
    optimal = distortionless_solve(ipnc, tsv)
    assert optimal.shape == (t, 1, m)
    for i in range(t):
        alone = distortionless_solve(ipnc[i, 0], tsv[i, 0])
        assert np.array_equal(_item_bits(optimal[i, 0]), _item_bits(alone))


@PROPERTY_SETTINGS
@given(
    soi=degrees,
    interferers=st.lists(degrees, min_size=1, max_size=3),
    snr_db=st.floats(min_value=-10.0, max_value=30.0),
    inr_db=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_output_sinr_never_exceeds_optimal(soi, interferers, snr_db, inr_db, seed):
    rng = np.random.default_rng(seed)
    m = 10
    pos = oracle.positions(m, np.concatenate(([0.0], rng.uniform(-0.05, 0.05, m - 1))))
    soi_power = 10.0 ** (snr_db / 10.0)
    inr_powers = [10.0 ** (inr_db / 10.0)] * len(interferers)
    ipnc = oracle.covariance(np.deg2rad(interferers), inr_powers, pos)
    tsv = oracle.steering([np.deg2rad(soi)], pos)[:, 0]
    best = output_sinr(optimal_weights(ipnc, tsv), soi_power, tsv, ipnc)
    weights = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert output_sinr(weights, soi_power, tsv, ipnc) <= best + 1e-9


# Swept grid field of each SINR experiment.
_SWEPT_FIELD = {e: spec.grid for e, spec in EXPERIMENTS.items() if spec.grid is not None}


# Power grids in range, and anything else a config file can hold: out of
# range, empty, non-finite, boolean, not a list.
_POWER_GRIDS = st.lists(st.floats(min_value=-60.0, max_value=MAX_POWER_DB), min_size=1, max_size=3)
_ANY_GRIDS = st.one_of(
    st.lists(st.floats(), max_size=3),
    st.lists(st.booleans(), min_size=1, max_size=2),
    st.sampled_from([10.0, None, "10", True]),
)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    experiment=st.sampled_from(sorted(EXPERIMENTS)),
    trials=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=2, max_value=12),
    methods=st.lists(st.sampled_from(METHOD_NAMES), max_size=5, unique=True),
    snr_grid_db=_POWER_GRIDS,
    inr_grid_db=_POWER_GRIDS,
    any_grid=st.none() | st.sampled_from(["snr_grid_db", "inr_grid_db"]),
)
def test_every_accepted_config_runs_to_the_end(
    data, experiment, trials, m, methods, snr_grid_db, inr_grid_db, any_grid
):
    # A config is rejected up front with ConfigError, or it runs, and then
    # a value is nan exactly where a failure record names its point.
    config = default_config(experiment)
    config.trials, config.m, config.methods = trials, m, methods
    config.snr_grid_db, config.inr_grid_db = snr_grid_db, inr_grid_db
    if any_grid is not None:
        setattr(config, any_grid, data.draw(_ANY_GRIDS))
    try:
        config = normalize_config(config)
    except ConfigError:
        return
    result = run_experiment(config)
    # A beampattern's failures name its one operating point, x = 0.
    xs = result.x_values if EXPERIMENTS[experiment].grid else np.zeros(len(result.x_values))
    failed = {(r["trial"], r["x"], r["method"]) for r in result.diagnostics["failures"]}
    nan_points = set()
    for meth in methods:
        assert result.raw[meth].shape == (len(xs), trials)
        for ix, t in zip(*np.nonzero(np.isnan(result.raw[meth]))):
            nan_points.add((int(t), float(xs[ix]), meth))
    assert nan_points == failed


def _bits(a):
    """Raw float64 bits, so the comparison is exact and nan equals nan."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    experiment=st.sampled_from(sorted(_SWEPT_FIELD)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    trials=st.integers(min_value=2, max_value=5),
)
def test_trial_prefix_and_worker_split_invariance(data, experiment, seed, trials):
    # Trial t depends on (seed, t) alone, so the first t trials of a
    # longer run equal a t-trial run, and the worker count changes nothing.
    field = _SWEPT_FIELD[experiment]
    choices = getattr(default_config(experiment), field)
    grid = data.draw(st.lists(st.sampled_from(choices), min_size=2, max_size=3))
    prefix = data.draw(st.integers(min_value=1, max_value=trials - 1))

    def run(n_trials, workers=1):
        config = default_config(experiment)
        config.seed, config.trials = seed, n_trials
        setattr(config, field, grid)
        return run_experiment(config, workers=workers)

    full, short, split = run(trials), run(prefix), run(trials, workers=2)
    for meth in full.methods:
        np.testing.assert_array_equal(_bits(full.raw[meth][:, :prefix]), _bits(short.raw[meth]))
        np.testing.assert_array_equal(_bits(split.raw[meth]), _bits(full.raw[meth]))
    head = [rec for rec in full.diagnostics["failures"] if rec["trial"] < prefix]
    assert head == short.diagnostics["failures"]
    assert split.diagnostics == full.diagnostics


def _direct_points(config, x_values, trials, n_generate):
    """Per-point construction of a chunk's inputs: one oracle draw and
    covariance per (trial, x).

    Yields (covariance, SCM, true IPNC, true steering vector, SOI power);
    the SCM is the leading block of the covariance.
    """
    m = config.m
    for trial in trials:
        soi_true, int_true, perr, snap_seed = _draw_mismatch(config, trial)
        pos = oracle.positions(n_generate, perr)
        for x in x_values:
            snr_db, inr_db, k = config.snr_grid_db[0], config.inr_grid_db[0], config.k_grid[0]
            if config.experiment == "sinr_vs_snr":
                snr_db = float(x)
            elif config.experiment == "sinr_vs_inr":
                inr_db = float(x)
            else:
                k = int(x)
            powers = [10.0 ** (snr_db / 10.0)] + [10.0 ** (inr_db / 10.0)] * len(int_true)
            snapshots = oracle.snapshots([soi_true, *int_true], powers, pos, k, snap_seed)
            cov = oracle.sample_covariance(snapshots)
            yield (
                cov,
                cov[:m, :m],
                oracle.covariance(int_true, powers[1:], pos[:m]),
                oracle.steering([soi_true], pos[:m])[:, 0],
                powers[0],
            )


def _assert_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(np.subtract(got, expected)) <= rtol * np.linalg.norm(expected)


@st.composite
def sweep_configs(draw, experiment):
    config = default_config(experiment)
    config.m = draw(st.integers(min_value=2, max_value=8))
    config.seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    config.interferers_deg = draw(st.lists(degrees, min_size=1, max_size=3))
    config.doa_mismatch_halfwidth_deg = draw(st.floats(min_value=0.0, max_value=10.0))
    config.position_error_halfwidth_wl = draw(st.floats(min_value=0.0, max_value=0.1))
    powers_db = st.floats(min_value=-30.0, max_value=MAX_POWER_DB)
    for field in ("snr_grid_db", "inr_grid_db"):
        setattr(config, field, draw(st.lists(powers_db, min_size=1, max_size=4)))
    config.k_grid = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4))
    return normalize_config(config)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    experiment=st.sampled_from(sorted(_SWEPT_FIELD)),
    extra=st.integers(min_value=0, max_value=12),
    first=st.integers(min_value=0, max_value=1000),
    n_trials=st.integers(min_value=1, max_value=3),
)
def test_drawn_points_match_the_per_point_draw(
    drawn_covariances, data, experiment, extra, first, n_trials
):
    # Every sweep forms each point's covariance from the Gram matrix of
    # its trial's normals; the covariances must still be the per-point
    # draw up to rounding. The true IPNC, steering vector and SOI power
    # come from one array product per chunk, and those must equal the
    # per-point construction (the oracle's covariance) bit for bit.
    config = data.draw(sweep_configs(experiment))
    x_values = np.asarray(getattr(config, _SWEPT_FIELD[experiment]), dtype=float)
    trials = range(first, first + n_trials)
    n_generate = config.m + extra
    points = harness._draw_points(config, x_values, trials, n_generate, None)
    covariances = drawn_covariances(config, x_values, trials, n_generate)
    # BLAS rounds output_sinr's products by the memory layout of its
    # operands: with a transposed IPNC, raw SINRs of the m 100 / l 110
    # snapshot sweep moved by 1 ulp. The draw keeps both C-contiguous.
    assert points.ipnc.flags.c_contiguous and points.tsv.flags.c_contiguous
    direct = list(_direct_points(config, x_values, trials, n_generate))
    assert points.shape == covariances.shape[:2] == (n_trials, len(x_values))
    assert len(direct) == n_trials * len(x_values)
    for index, (cov, scm, ipnc, tsv, soi_power) in zip(np.ndindex(points.shape), direct):
        point = points[index]
        _assert_close(covariances[index], cov)
        _assert_close(point.scm[0, 0], scm)
        got = (point.ipnc[0, 0], point.tsv[0, 0], point.soi_power[0, 0])
        for value, expected in zip(got, (ipnc, tsv, soi_power)):
            np.testing.assert_array_equal(value, expected)


def _cbits(a):
    """Raw bits of a complex array's real and imaginary parts."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


@settings(max_examples=10, deadline=None)
@given(
    data=st.data(),
    experiment=st.sampled_from(sorted(_SWEPT_FIELD)),
    first=st.integers(min_value=0, max_value=1000),
    n_trials=st.integers(min_value=1, max_value=3),
)
@pytest.mark.parametrize("kind", ["extended", "l_equals_m", "without_lcssp", "no_projector"])
def test_drawn_stacks_are_the_reduced_covariances(
    drawn_covariances, kind, data, experiment, first, n_trials
):
    # A chunk holds only what its methods read. Its SCM stack is the
    # leading m x m block of each point's extended covariance, bit for bit,
    # if an SCM method runs; its LCSSP stack is reconstruct_ipnc of that
    # covariance alone, bit for bit, if lcssp runs with a projector. A
    # stack that no method reads is not drawn.
    config = data.draw(sweep_configs(experiment))
    methods = st.lists(st.sampled_from(METHOD_NAMES), min_size=1, max_size=5, unique=True)
    config.methods = data.draw(methods)
    if kind == "extended":
        config.l = config.m + data.draw(st.integers(min_value=1, max_value=8))
    elif kind == "l_equals_m":
        config.l, config.methods = config.m, list(METHOD_NAMES)
    elif kind == "without_lcssp":
        config.methods = [meth for meth in config.methods if meth != "lcssp"] or ["optimal"]
    else:
        # No dimension up to 8 m reaches this delta (a CI run checks the
        # same search at m 10); lcssp fails and every draw has m rows.
        config.m, config.l, config.delta = 10, "auto", 1e-4
        config.interferers_deg = [-31.7, 28.3]
        config.methods = list(METHOD_NAMES)
    config = normalize_config(config)
    projection, _, _, n_generate = harness._resolve_lcssp(config)
    assert (projection is not None) == ("lcssp" in config.methods and kind != "no_projector")
    assert n_generate == (config.m if kind in ("l_equals_m", "no_projector") else config.l)
    x_values = np.asarray(getattr(config, _SWEPT_FIELD[experiment]), dtype=float)
    trials = range(first, first + n_trials)
    points = harness._draw_points(config, x_values, trials, n_generate, projection)
    covariances = drawn_covariances(config, x_values, trials, n_generate)
    m = config.m
    if set(config.methods) & {"scm_mvdr", "diagonal_loading", "capon_integral"}:
        np.testing.assert_array_equal(_cbits(points.scm), _cbits(covariances[..., :m, :m]))
    else:
        assert points.scm is None
    if projection is None:
        assert points.lcssp is None
    else:
        for index in np.ndindex(points.shape):
            expected = reconstruct_ipnc(projection, covariances[index], m)
            np.testing.assert_array_equal(_cbits(points.lcssp[index]), _cbits(expected))


def _oracle_csv(result, path):
    """The row-at-a-time writer that ``emit_csv`` replaced: one csv.writer
    row and one float(), isfinite and format per value. Returns the bytes
    of the aggregate and raw files."""

    def fmt(value):
        value = float(value)
        if not np.isfinite(value):
            return "nan"
        return f"{value:.12g}"

    path = Path(path)
    raw_path = path.with_name(path.stem + "_raw" + path.suffix)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "method", "mean_sinr_db", "std_db", "n_ok"])
        for ix, x in enumerate(result.x_values):
            for meth in result.methods:
                writer.writerow(
                    [
                        fmt(x),
                        meth,
                        fmt(result.mean_sinr_db[meth][ix]),
                        fmt(result.std_db[meth][ix]),
                        str(int(result.n_ok[meth][ix])),
                    ]
                )
    with open(raw_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "method", "trial", "sinr_db"])
        for ix, x in enumerate(result.x_values):
            for meth in result.methods:
                for t in range(result.config.trials):
                    writer.writerow([fmt(x), meth, str(t), fmt(result.raw[meth][ix, t])])
    return path.read_bytes(), raw_path.read_bytes()


def _assert_csv_matches_oracle(result):
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_csv(result, Path(tmp) / "new.csv")
        got = tuple(p.read_bytes() for p in paths)
        assert got == _oracle_csv(result, Path(tmp) / "oracle.csv")


# nan, +-inf, signed zeros, subnormals (the smallest one included) and
# numbers near the ends of the double range.
_SPECIAL_VALUES = np.array(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 1e300, -1e300, 1e-300]
)


@st.composite
def sweep_results(draw):
    """A ``SweepResult`` of random shape whose values mix special floats
    with normals of random scale, and whose x grid may be integer valued."""
    methods = draw(st.lists(st.sampled_from(METHOD_NAMES), min_size=1, max_size=5, unique=True))
    trials = draw(st.integers(min_value=1, max_value=40))
    n_x = draw(st.integers(min_value=1, max_value=300))
    special_share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def values(shape):
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        pick = rng.random(shape) < special_share
        out[pick] = rng.choice(_SPECIAL_VALUES, size=int(pick.sum()))
        return out

    if draw(st.booleans()):
        x_values = np.sort(rng.integers(-100, 10**6, size=n_x)).astype(float)
    else:
        x_values = values(n_x)
    config = default_config("sinr_vs_snr")
    config.trials, config.methods = trials, methods
    n_methods = len(methods)
    return SweepResult(
        x_values=x_values,
        methods=methods,
        raw=MethodViews(values((n_x, n_methods, trials)), methods),
        mean_sinr_db=MethodViews(values((n_x, n_methods)), methods),
        std_db=MethodViews(values((n_x, n_methods)), methods),
        n_ok=MethodViews(rng.integers(0, trials + 1, size=(n_x, n_methods)), methods),
        diagnostics={},
        config=config,
    )


@settings(max_examples=30, deadline=None)
@given(result=sweep_results(), block_rows=st.sampled_from([1, 2, 7, 64, harness.CSV_BLOCK_ROWS]))
def test_blocked_csv_matches_row_at_a_time_writer(result, block_rows):
    # Small blocks put block boundaries inside an x value's rows and
    # inside a method's trials; the real block size is drawn too.
    with mock.patch.object(harness, "CSV_BLOCK_ROWS", block_rows):
        _assert_csv_matches_oracle(result)


def test_beampattern_csv_matches_row_at_a_time_writer():
    # 1801 angles x 5 methods x 2 trials: several blocks of real output.
    # At 7 rows a block, block boundaries also fall inside an angle's
    # raw period of 10 rows.
    config = default_config("beampattern")
    config.trials = 2
    result = run_experiment(config)
    assert len(result.x_values) * len(result.methods) * 2 > 2 * harness.CSV_BLOCK_ROWS
    for block_rows in (7, harness.CSV_BLOCK_ROWS):
        with mock.patch.object(harness, "CSV_BLOCK_ROWS", block_rows):
            _assert_csv_matches_oracle(result)


def _synthetic_result(x_values, methods, trials, seed=0):
    """A ``SweepResult`` whose per-method views hold random tables."""
    rng = np.random.default_rng(seed)
    n_x = len(x_values)
    raw = rng.normal(size=(n_x, len(methods), trials))
    config = default_config("sinr_vs_snr")
    config.trials = trials
    return SweepResult(
        x_values=np.asarray(x_values, dtype=float),
        methods=list(methods),
        raw=MethodViews(raw, methods),
        mean_sinr_db=MethodViews(raw.mean(axis=-1), methods),
        std_db=MethodViews(raw.std(axis=-1), methods),
        n_ok=MethodViews(np.full((n_x, len(methods)), trials), methods),
        diagnostics={},
        config=config,
    )


@pytest.mark.parametrize("block_rows", [1, 7, harness.CSV_BLOCK_ROWS])
def test_csv_escapes_percent_in_method_names(block_rows):
    # Method labels are baked into printf-style row templates, so a % in
    # one must come out literally; sweep_results only draws METHOD_NAMES.
    result = _synthetic_result(np.arange(5.0), ["a%d", "100%", "%%s"], trials=3)
    with mock.patch.object(harness, "CSV_BLOCK_ROWS", block_rows):
        _assert_csv_matches_oracle(result)


def test_csv_write_time_does_not_grow_with_the_row_period(tmp_path):
    # Raw rows repeat a period of row templates, one per (method, trial).
    # At one row per block, one x value with 20,000 trials spreads that
    # period over 20,000 blocks, while 20,000 x values with one trial
    # repeat a period of one row, and also write 20,000 aggregate rows.
    # A block that copied the rest of the period would make the
    # long-period write quadratic in the period.
    long_period = _synthetic_result([0.0], ["optimal"], trials=20_000)
    short_period = _synthetic_result(np.arange(20_000.0), ["optimal"], trials=1)

    def write_s(result):
        start = time.perf_counter()
        emit_csv(result, tmp_path / "out.csv")
        return time.perf_counter() - start

    with mock.patch.object(harness, "CSV_BLOCK_ROWS", 1):
        long_s = min(write_s(long_period) for _ in range(2))
        short_s = min(write_s(short_period) for _ in range(2))
        _assert_csv_matches_oracle(long_period)
    assert long_s < 2 * short_s, (long_s, short_s)


@pytest.mark.parametrize("table_trials, x_values", [(2, 3), (4, 3), (3, 4)])
def test_emit_csv_rejects_tables_that_do_not_fit(tmp_path, table_trials, x_values):
    # Tables of 3 x values for a config of 3 trials. Fewer trials would
    # move values onto the next x value's rows, more would fail halfway
    # through the raw file, and more x values than table rows would drop
    # rows: each raises before either file is opened.
    result = _synthetic_result(np.arange(3.0), ["optimal", "lcssp"], trials=table_trials)
    result.config.trials = 3
    result.x_values = np.arange(float(x_values))
    with pytest.raises(ValueError, match="do not fit"):
        emit_csv(result, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_emit_csv_rejects_views_in_another_method_order(tmp_path):
    # Values are written in table order, not looked up by method, so a
    # view whose columns follow another method order would label its rows
    # wrongly; it raises before either file is opened.
    result = _synthetic_result(np.arange(3.0), ["optimal", "lcssp"], trials=3)
    result.std_db = MethodViews(result.std_db.table, ["lcssp", "optimal"])
    with pytest.raises(ValueError, match="views list methods"):
        emit_csv(result, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_emit_csv_memory_is_one_block_plus_the_templates(tmp_path, monkeypatch):
    # 1801 beampattern angles x 5 methods x 32 trials: a 2.2 MiB raw
    # table, which a copy would double, written in blocks of 512 rows. The
    # writer takes each block of CSV_BLOCK_ROWS rows as one slice of the
    # table and holds about 200 B a row: its text, its template in the
    # joined format, its value as a Python float and its slots in the
    # argument list and tuple. Besides the block it holds the 160 raw row
    # templates (about 90 B each) and the 1801 x cells, 0.1 MiB together.
    # Neither depends on the size of the table, which is over 3 times the
    # bound; every traced allocation is slow, so the smaller blocks and
    # table keep the test short.
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 512)
    bound = harness.CSV_BLOCK_ROWS * 400 + 2**19
    result = _synthetic_result(beampattern_grid_deg(), METHOD_NAMES, trials=32)
    assert result.raw.table.nbytes >= 3 * bound
    tracemalloc.start()
    try:
        emit_csv(result, tmp_path / "out.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_sweep_memory_is_one_table_plus_a_chunk():
    # A serial 200-trial beampattern writes each chunk's block into one
    # (1801, 5, 200) raw table, 13.7 MiB, as the chunk returns. A 16-trial
    # chunk holds its (16, 5, 1801) float gains, 1.1 MiB, one trial's
    # complex response, 0.14 MiB, and the (10, 1801) complex steering
    # matrix with its temporaries, 0.7 MiB; the statistics hold a block of
    # about STATS_BLOCK_VALUES values (0.15 MB with its mask) and the
    # (1801, 5) results. Half a table covers these with room to spare;
    # holding every chunk's block until the end, or a zero-filled copy of
    # the table for the statistics, would each add one table.
    config = default_config("beampattern")
    config.trials = 200
    table_bytes = len(beampattern_grid_deg()) * len(config.methods) * config.trials * 8
    tracemalloc.start()
    try:
        run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table_bytes


def _draw_peak(config):
    """tracemalloc peak, in bytes, of drawing one chunk of ``config``'s points."""
    config = normalize_config(config)
    x_values = np.asarray(getattr(config, EXPERIMENTS[config.experiment].grid), dtype=float)
    projection, _, _, n_generate = harness._resolve_lcssp(config)
    tracemalloc.start()
    try:
        harness._draw_points(config, x_values, range(config.trials), n_generate, projection)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_draw_memory_is_one_stream_or_one_stack():
    # One trial at the largest k holds its stream of 2 n_rows k floats
    # once. Its other arrays are one Gram block's conjugate (n_rows x
    # GRAM_BLOCK complex, 188 kB here) and a few of n_rows^2 or L n_rows
    # values, well inside 4 MiB; a conjugate of the whole stream would
    # double the peak.
    config = default_config("sinr_vs_snapshots")
    config.trials, config.l, config.k_grid = 1, 20, [100_000]
    n_rows = 1 + len(config.interferers_deg) + config.l
    stream_bytes = 2 * n_rows * 100_000 * 8
    assert _draw_peak(config) < stream_bytes + 4 * 2**20
    # 16 trials x 32 SNR points at l 64 hold two (T, X, m, m) stacks, the
    # SCM and LCSSP's IPNCs, written in place, plus one trial's
    # temporaries: at most four arrays of X L n_rows complex values at once
    # (B, B G, B^H and B G B^H, then B and three (X, L, L) arrays in
    # hermitize, then B, the covariances and LCSSP's smaller products), and
    # 1 MiB for the chunk's small arrays (steering stacks, the stream at k
    # 50). Holding the chunk's (T, X, L, L) covariances, 32 MiB, or one
    # trial's covariances into the next trial's draw would break the bound.
    config = default_config("sinr_vs_snr")
    config.trials, config.l = 16, 64
    config.snr_grid_db = np.linspace(-10.0, 52.0, 32).tolist()
    n_rows, n_x = 1 + len(config.interferers_deg) + config.l, 32
    stacks_bytes = 2 * config.trials * n_x * config.m**2 * 16
    trial_bytes = 4 * n_x * config.l * n_rows * 16
    assert _draw_peak(config) < stacks_bytes + trial_bytes + 2**20


@settings(max_examples=200, deadline=None)
@given(trials=st.integers(1, 500), workers=st.integers(1, 8), length=st.integers(1, 32))
def test_trial_chunks_are_even_and_the_memory_model_charges_the_longest(
    trials, workers, length
):
    # The chunks partition the trials in order, in lengths that differ by
    # at most 1 and stay within the chunk length. Their count is the
    # smallest multiple of the thread count whose chunks can hold the
    # trials, so each thread gets as many; with fewer trials than that,
    # each chunk holds one. Each thread's SCM stack is charged at the
    # longest.
    config = default_config("sinr_vs_snr")
    config.trials = trials
    chunks = list(trial_chunks(trials, workers, length))
    stack = memory_terms(config, workers, length)["the SCM stack (snr_grid_db, trials, m)"]
    lengths = list(map(len, chunks))
    assert [t for chunk in chunks for t in chunk] == list(range(trials))
    assert max(lengths) - min(lengths) <= 1 and max(lengths) <= length
    multiples = range(workers, workers * trials + 1, workers)
    fewest = next(n for n in multiples if n * length >= trials)
    if trials >= fewest:
        assert len(lengths) == fewest
    else:
        assert lengths == [1] * trials
    assert stack == workers * 16 * max(lengths) * len(config.snr_grid_db) * config.m**2


@settings(max_examples=15, deadline=None)
@given(trials=st.integers(1, 24), threads=st.integers(1, 4), share=st.floats(0.0, 1.0))
def test_run_layout_takes_the_first_layout_that_fits(trials, threads, share):
    # Under any budget from the run's one-thread, one-trial estimate (the
    # least normalize_config accepts) to its estimate at the most threads
    # and TRIAL_CHUNK, the run takes the first layout that fits in this
    # order: the most threads, then the longest chunks. Its raw table is
    # the serial run's at the default budget, bit for bit.
    config = default_config("sinr_vs_snapshots")
    config.trials, config.k_grid = trials, [5, 50, 2000]
    config = normalize_config(config)
    threads = min(threads, trials)

    def estimate(layout):
        return sum(memory_terms(config, *layout).values())

    low, high = estimate((1, 1)), estimate((threads, TRIAL_CHUNK))
    budget = int(low + share * (high - low))
    order = [(n, length) for n in range(threads, 0, -1) for length in range(TRIAL_CHUNK, 0, -1)]
    expected = next(layout for layout in order if estimate(layout) <= budget)
    serial = run_experiment(config)
    with mock.patch("beamlab.config.MEMORY_BUDGET", budget), mock.patch.object(
        harness.os, "cpu_count", lambda: 4
    ):
        n, chunks = run_layout(config, threads)
        result = run_experiment(config, workers=threads)
    assert (n, list(chunks)) == (expected[0], list(trial_chunks(trials, *expected)))
    np.testing.assert_array_equal(
        result.raw.table.view(np.uint64), serial.raw.table.view(np.uint64)
    )


@st.composite
def _small_runs(draw):
    """Small configs of every experiment, normalized, at fixed l or "auto"."""
    config = default_config(draw(st.sampled_from(sorted(EXPERIMENTS))))
    config.m = draw(st.integers(2, 16))
    config.l = draw(st.just("auto") | st.integers(config.m, 2 * config.m))
    config.interferers_deg = draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8))
    n_x = draw(st.integers(1, 12))
    grids = {
        "snr_grid_db": st.floats(-10.0, 40.0),
        "inr_grid_db": st.floats(0.0, 60.0),
        "k_grid": st.integers(1, 3000),
    }
    for name, values in grids.items():
        setattr(config, name, draw(st.lists(values, min_size=n_x, max_size=n_x)))
    config.trials = draw(st.integers(1, 40))
    methods = st.lists(st.sampled_from(METHOD_NAMES), min_size=1, max_size=5, unique=True)
    config.methods = draw(methods)
    return normalize_config(config)


# Derandomized, so the test always runs the same examples in about 1.5 s:
# under tracemalloc the CSV of a 40-trial, 5-method beampattern alone
# takes 3 s, and random draws of it made the test's time vary tenfold.
@settings(max_examples=10, deadline=None, derandomize=True)
@given(config=_small_runs(), workers=st.sampled_from([1, 2]))
def test_memory_terms_bound_the_traced_peak(config, workers):
    # tracemalloc sees every array a run and its CSV write allocate, and
    # nothing of the interpreter, so its peak is bounded by the estimate
    # without the interpreter's base. The model leaves out a run's Python
    # objects; the slack covers them:
    # - the CSV writer's block of rows and its x cells, at most 400 B a
    #   row plus 0.5 MiB, the bound that
    #   test_emit_csv_memory_is_one_block_plus_the_templates checks;
    # - the failure records, about 330 B each (a dict, its x and its
    #   error text), taken here at 400 B.
    terms = memory_terms(config, workers, TRIAL_CHUNK)
    estimate = sum(terms.values()) - terms["the interpreter and numpy"]
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            result = run_experiment(config, workers=workers)
            emit_csv(result, Path(tmp) / "out.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    raw_rows = result.raw.table.size
    failures = len(result.diagnostics["failures"])
    slack = 400 * min(harness.CSV_BLOCK_ROWS, raw_rows) + 2**19 + 400 * failures
    assert peak <= estimate + slack, (peak, estimate, slack)


# The peak resident set of the run, in KiB. The kernel keeps
# getrusage's ru_maxrss across exec, so a child's starts at the resident
# set of the process that forked it, the test runner's; VmHWM belongs to
# the exec'd process alone.
_PEAK_SCRIPT = """
import json, re, sys
from beamlab import default_config, run_experiment
config = default_config(sys.argv[1])
for name, value in json.loads(sys.argv[2]).items():
    setattr(config, name, value)
run_experiment(config, workers=int(sys.argv[3]))
with open("/proc/self/status", encoding="ascii") as fh:
    print(re.search(r"^VmHWM:\\s*(\\d+) kB$", fh.read(), re.M).group(1))
"""
# 32 interferers spread over both sides.
_INTERFERERS = [side * a for side in (-1, 1) for a in np.linspace(10.0, 80.0, 16).tolist()]
_LONG_STREAM = {"trials": 1, "l": MAX_DIMENSION, "k_grid": [100_000]}


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize(
    "experiment, overrides, workers, documented_mb",
    [
        # One trial at k 100000 and l 128: its stream is 210 MB.
        ("sinr_vs_snapshots", _LONG_STREAM, 1, 251),
        # The same run with 32 interferers.
        ("sinr_vs_snapshots", {**_LONG_STREAM, "interferers_deg": _INTERFERERS}, 1, 299),
        # Two trials of it at --workers 2: two threads' streams would take
        # the run past the budget, so it runs on one.
        (
            "sinr_vs_snapshots",
            {**_LONG_STREAM, "trials": 2, "interferers_deg": _INTERFERERS},
            2,
            None,
        ),
        # 16 trials of 64 SNR points at l 128: one trial's (X, L, L)
        # covariances and mixing products, 68 MB; the chunk's (T, X, L, L)
        # covariances would be 268 MB.
        (
            "sinr_vs_snr",
            {"trials": 16, "l": MAX_DIMENSION, "snr_grid_db": np.linspace(-10.0, 52.0, 64).tolist()},
            1,
            115,
        ),
        # A 3726-trial beampattern: a 268 MB raw table.
        ("beampattern", {"trials": 3726}, 1, None),
        # k 200000 at the default dimensions, above the former snapshot cap.
        ("sinr_vs_snr", {"trials": 1, "k_grid": [200_000]}, 1, None),
        # Two trials with 2000 interferers at m = l = 2: a 64 MB Gram,
        # which the chunk's trials write into one buffer.
        ("sinr_vs_snr", {"trials": 2, "m": 2, "l": 2, "interferers_deg": [40.0] * 2000}, 1, None),
        # 4 trials of 8 SNR points at m = l = 128: the methods' per-point
        # temporaries, 34 MB, are the largest term.
        (
            "sinr_vs_snr",
            {"trials": 4, "m": MAX_DIMENSION, "l": MAX_DIMENSION, "snr_grid_db": [10.0] * 8},
            1,
            None,
        ),
        # Every former cap at once, with optimal alone: no method reads a
        # snapshot, so none is drawn (drawn, they took the run to 405 MB).
        (
            "sinr_vs_snapshots",
            {**_LONG_STREAM, "trials": 16, "interferers_deg": _INTERFERERS,
             "k_grid": [100_000] + [1] * 63, "methods": ["optimal"]},
            1,
            40,
        ),
        # 16 trials of 1200 SNR points at m = l = 16: 16-trial chunks would
        # need 723 MB, so the run takes the longest that fit, 8/8 (382 MB).
        (
            "sinr_vs_snr",
            {"trials": 16, "m": 16, "l": 16,
             "snr_grid_db": np.linspace(-10.0, 52.0, 1200).tolist()},
            1,
            271,
        ),
    ],
    # Each id names the former per-field cap at whose bound the run sits,
    # or the term that dominates the run.
    ids=[
        "max_snapshots",
        "max_interferers",
        "max_interferers_workers2",
        "max_grid_points",
        "max_raw_values",
        "k200000",
        "gram",
        "method_temporaries",
        "every_cap_optimal",
        "shorter_chunks",
    ],
)
def test_runs_at_the_config_bounds_keep_their_documented_peak(
    tmp_path, experiment, overrides, workers, documented_mb
):
    # Each run fits the budget on one thread, the two-worker run on no
    # more. Its peak resident set is at most 1.1 times the estimate at the
    # layout it runs, and that estimate at most 1.5 times the peak: the
    # model neither misses a large array nor rejects runs that would fit.
    # The corners also keep their documented peak, in decimal MB, within
    # 10%.
    config = default_config(experiment)
    for name, value in overrides.items():
        setattr(config, name, value)
    config = normalize_config(config)
    threads, chunks = run_layout(config, workers)
    estimate = sum(memory_terms(config, threads, max(map(len, chunks))).values())
    assert threads == 1
    src = Path(harness.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, experiment, json.dumps(overrides), str(workers)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    peak = int(run.stdout) * 1024
    assert peak <= 1.1 * estimate, f"peak {peak / 1e6:.1f} MB"
    assert estimate <= 1.5 * peak, f"peak {peak / 1e6:.1f} MB"
    assert peak <= MEMORY_BUDGET
    assert documented_mb is None or peak <= 1.1 * documented_mb * 10**6
