"""Property tests: projector algebra, distortionless constraint, SINR bound,
and invariance of sweep results under trial-count and worker splits."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamlab import (
    ArrayGeometry,
    LcsspConfig,
    Scenario,
    build_projection,
    default_config,
    distortionless_solve,
    optimal_weights,
    output_sinr,
    run_experiment,
    select_dimension,
    steering_vector,
    true_ipnc,
)

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
