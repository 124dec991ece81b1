"""Property tests: projector algebra, distortionless constraint, SINR bound,
invariance of sweep results under trial-count and worker splits, the
factored point draw against the per-point draw, and the blocked CSV
writer against a row-at-a-time one."""

import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamlab import (
    ArrayGeometry,
    LcsspConfig,
    Scenario,
    SingularCovarianceError,
    build_projection,
    conditioned_matrix,
    default_config,
    distortionless_solve,
    emit_csv,
    generate_snapshots,
    normalize_config,
    optimal_weights,
    output_sinr,
    run_experiment,
    sample_covariance,
    select_dimension,
    steering_vector,
    true_ipnc,
)
from beamlab import harness
from beamlab.baselines import COND_LIMIT, LOADING_FLOOR
from beamlab.harness import METHOD_NAMES, MAX_POWER_DB, SweepResult, _draw_mismatch

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


@PROPERTY_SETTINGS
@given(presumed=degrees, halfwidth=halfwidths, l=dimensions)
def test_projector_is_hermitian_idempotent_with_retained_rank(presumed, halfwidth, l):
    proj = _projection_or_skip(_lcssp_config(presumed, halfwidth), l)
    c = proj.matrix
    np.testing.assert_allclose(c, c.conj().T, atol=1e-12)
    np.testing.assert_allclose(c @ c, c, atol=1e-10)
    assert abs(np.trace(c) - len(proj.retained_angles)) < 1e-9


@PROPERTY_SETTINGS
@given(presumed=degrees, halfwidth=halfwidths, l=dimensions)
def test_select_dimension_with_fixed_l_equals_build_projection(presumed, halfwidth, l):
    config = _lcssp_config(presumed, halfwidth, fixed_l=l)
    expected = _projection_or_skip(config, l)
    l_chosen, proj = select_dimension(config)
    assert l_chosen == l == proj.dim
    np.testing.assert_array_equal(proj.matrix, expected.matrix)
    np.testing.assert_array_equal(proj.retained_angles, expected.retained_angles)


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
    # np.linalg.cond, one matrix at a time and across a stack.
    stack = np.stack([data.draw(sample_covariances(n)) for _ in range(3)])
    expected = [_svd_decision(r) for r in stack]
    assert [_decision(r) for r in stack] == expected
    failures = {}
    out = conditioned_matrix(stack, failures)
    assert sorted(failures) == [i for i, d in enumerate(expected) if d == "raise"]
    for i, decision in enumerate(expected):
        if decision == "pass":
            np.testing.assert_array_equal(out[i], stack[i])
        elif decision == "load":
            np.testing.assert_array_equal(out[i], conditioned_matrix(stack[i]))


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
    perr = np.concatenate(([0.0], rng.uniform(-0.05, 0.05, m - 1)))
    scenario = Scenario(
        soi_direction_true=np.deg2rad(soi),
        soi_direction_presumed=0.0,
        interferer_directions_true=np.deg2rad(interferers),
        interferer_directions_nominal=np.deg2rad(interferers),
        soi_power=10.0 ** (snr_db / 10.0),
        interferer_powers=np.full(len(interferers), 10.0 ** (inr_db / 10.0)),
        noise_power=1.0,
        geometry=ArrayGeometry(m, perr),
    )
    ipnc = true_ipnc(scenario, m)
    tsv = steering_vector(scenario.soi_direction_true, m, scenario.geometry)
    best = output_sinr(optimal_weights(ipnc, tsv), scenario.soi_power, tsv, ipnc)
    weights = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    assert output_sinr(weights, scenario.soi_power, tsv, ipnc) <= best + 1e-9


# Swept grid field of each SINR experiment.
_SWEPT_FIELD = {
    "sinr_vs_snr": "snr_grid_db",
    "sinr_vs_inr": "inr_grid_db",
    "sinr_vs_snapshots": "k_grid",
}


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
    """Per-point construction of a chunk's inputs: one Scenario, draw and
    covariance per (trial, x), as the harness built them point by point.

    Yields (covariance, SCM, true IPNC, true steering vector, SOI power);
    the SCM is the leading block of the covariance.
    """
    m = config.m
    for trial in trials:
        soi_true, int_true, perr, snap_seed = _draw_mismatch(config, trial)
        geometry = ArrayGeometry(m, perr)
        for x in x_values:
            snr_db, inr_db, k = config.snr_grid_db[0], config.inr_grid_db[0], config.k
            if config.experiment == "sinr_vs_snr":
                snr_db = float(x)
            elif config.experiment == "sinr_vs_inr":
                inr_db = float(x)
            else:
                k = int(x)
            scenario = Scenario(
                soi_direction_true=soi_true,
                soi_direction_presumed=np.deg2rad(config.presumed_soi_deg),
                interferer_directions_true=int_true,
                interferer_directions_nominal=np.deg2rad(config.interferers_deg),
                soi_power=10.0 ** (snr_db / 10.0),
                interferer_powers=np.full(len(int_true), 10.0 ** (inr_db / 10.0)),
                noise_power=1.0,
                geometry=geometry,
            )
            cov = sample_covariance(generate_snapshots(scenario, n_generate, k, snap_seed))
            yield (
                cov,
                cov[:m, :m],
                true_ipnc(scenario, m),
                steering_vector(soi_true, m, geometry),
                scenario.soi_power,
            )


def _assert_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(np.subtract(got, expected)) <= rtol * np.linalg.norm(expected)


@st.composite
def sweep_configs(draw, experiment):
    config = default_config(experiment)
    config.m = draw(st.integers(min_value=2, max_value=8))
    config.k = draw(st.integers(min_value=1, max_value=60))
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
def test_drawn_points_match_the_per_point_draw(data, experiment, extra, first, n_trials):
    # Every sweep forms each point's covariance from the Gram matrix of
    # its trial's normals; the covariances must still be the per-point
    # draw up to rounding. The snapshot sweep takes its true IPNC,
    # steering vector and SOI power from hoisted per-trial parts, and
    # those must equal the per-point construction bit for bit.
    config = data.draw(sweep_configs(experiment))
    x_values = np.asarray(getattr(config, _SWEPT_FIELD[experiment]), dtype=float)
    trials = range(first, first + n_trials)
    n_generate = config.m + extra
    points = harness._draw_points(config, x_values, trials, n_generate)
    direct = list(_direct_points(config, x_values, trials, n_generate))
    assert len(points) == len(direct)
    for b, (cov, scm, ipnc, tsv, soi_power) in enumerate(direct):
        got = (points.cov[b], points.scm[b], points.ipnc[b], points.tsv[b], points.soi_power[b])
        if experiment == "sinr_vs_snapshots":
            for value, expected in zip(got[:2], (cov, scm)):
                _assert_close(value, expected)
            for value, expected in zip(got[2:], (ipnc, tsv, soi_power)):
                np.testing.assert_array_equal(value, expected)
        else:
            for value, expected in zip(got, (cov, scm, ipnc, tsv, soi_power)):
                _assert_close(value, expected)


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
    return SweepResult(
        x_label="x",
        x_values=x_values,
        methods=methods,
        raw={meth: values((n_x, trials)) for meth in methods},
        mean_sinr_db={meth: values(n_x) for meth in methods},
        std_db={meth: values(n_x) for meth in methods},
        n_ok={meth: rng.integers(0, trials + 1, size=n_x) for meth in methods},
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
    config = default_config("beampattern")
    config.trials = 2
    result = run_experiment(config)
    assert len(result.x_values) * len(result.methods) * 2 > 2 * harness.CSV_BLOCK_ROWS
    _assert_csv_matches_oracle(result)
