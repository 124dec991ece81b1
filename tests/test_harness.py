"""Experiment configs, Monte Carlo driver, aggregation, CSV emission."""

import concurrent.futures
import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from beamlab import (
    ConfigError,
    default_config,
    emit_csv,
    load_config,
    run_experiment,
    steering_vector,
)
from beamlab import harness
from beamlab.harness import _draw_mismatch, normalize_config


def test_default_config_tables():
    snr = default_config("sinr_vs_snr")
    assert snr.m == 10 and snr.l == 20 and snr.k == 50
    assert snr.trials == 100 and snr.seed == 123
    assert snr.snr_grid_db == [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    assert snr.inr_grid_db == [10.0]
    assert snr.position_error_halfwidth_wl == 0.05

    ksw = default_config("sinr_vs_snapshots")
    assert ksw.k_grid == [10, 20, 30, 50, 100, 200, 500]

    inr = default_config("sinr_vs_inr")
    assert inr.inr_grid_db == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    assert inr.position_error_halfwidth_wl == 0.0

    bp = default_config("beampattern")
    assert bp.trials == 1
    assert bp.inr_grid_db == [30.0]
    assert bp.doa_mismatch_halfwidth_deg == 0.0

    with pytest.raises(ConfigError):
        default_config("spectrogram")


def test_load_config_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "sinr_vs_snr", "trials": 7, "seed": 5}))
    cfg = load_config(path, {"seed": 9})
    assert cfg.trials == 7
    assert cfg.seed == 9
    assert cfg.experiment == "sinr_vs_snr"


def test_load_config_requires_experiment(tmp_path):
    with pytest.raises(ConfigError):
        load_config(None, {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trials": 3}))
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_load_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "beampattern", "snr": 10}))
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path, {"experiment": "beampattern"})
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json", {"experiment": "beampattern"})


def test_normalize_config_rejects_bad_values():
    cfg = default_config("sinr_vs_snr")
    cfg.l = 5
    with pytest.raises(ConfigError):
        normalize_config(cfg)
    cfg = default_config("sinr_vs_snr")
    cfg.methods = ["optimal", "optimal"]
    with pytest.raises(ConfigError):
        normalize_config(cfg)
    cfg = default_config("sinr_vs_snr")
    cfg.methods = ["fft"]
    with pytest.raises(ConfigError):
        normalize_config(cfg)
    cfg = default_config("sinr_vs_snr")
    cfg.seed = -1
    with pytest.raises(ConfigError):
        normalize_config(cfg)
    cfg = default_config("sinr_vs_snr")
    cfg.interferers_deg = [95.0]
    with pytest.raises(ConfigError):
        normalize_config(cfg)
    # Values that used to pass here and then fail mid-run.
    for field, value in (
        ("sector_halfwidth_deg", 95.0),
        ("position_error_halfwidth_wl", 0.3),
        ("presumed_soi_deg", float("nan")),
        ("inr_grid_db", [float("inf")]),
        ("snr_grid_db", [4000.0]),
        ("inr_grid_db", [400.0]),
        ("snr_grid_db", [10.0, 120.5]),
        ("snr_grid_db", [10.0, -4000.0]),
        ("inr_grid_db", [-4000.0]),
        ("doa_mismatch_halfwidth_deg", 85.0),
        ("trials", float("inf")),
        # JSON booleans are not numbers.
        ("trials", True),
        ("seed", False),
        ("snr_grid_db", [True, 10.0]),
        ("delta", True),
        ("k", np.bool_(True)),
        ("interferers_deg", [np.bool_(False)]),
    ):
        cfg = default_config("sinr_vs_snr")
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=field):
            normalize_config(cfg)
    # Values that are not lists, a string grid among them.
    for experiment, field, value in (
        ("sinr_vs_snr", "methods", 5),
        ("sinr_vs_snr", "methods", None),
        ("sinr_vs_snapshots", "k_grid", 5),
        ("sinr_vs_snr", "snr_grid_db", "10"),
    ):
        cfg = default_config(experiment)
        setattr(cfg, field, value)
        with pytest.raises(ConfigError, match=field):
            normalize_config(cfg)


def test_doa_mismatch_limit_follows_experiment_protocol():
    # Only the SNR and snapshot sweeps perturb interferer directions, so
    # only they need room around the interferers for the mismatch draw.
    for experiment, accepted in (("sinr_vs_snr", False), ("sinr_vs_inr", True)):
        cfg = default_config(experiment)
        cfg.interferers_deg = [-30.0, 87.0]
        if accepted:
            assert normalize_config(cfg).interferers_deg == [-30.0, 87.0]
        else:
            with pytest.raises(ConfigError):
                normalize_config(cfg)


def test_normalize_config_accepts_auto_dimension():
    cfg = default_config("sinr_vs_snr")
    cfg.l = "auto"
    assert normalize_config(cfg).l == "auto"


def _small(experiment="sinr_vs_snr", **overrides):
    cfg = default_config(experiment)
    cfg.trials = 3
    if experiment == "sinr_vs_snr":
        cfg.snr_grid_db = [0.0, 10.0]
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_run_experiment_deterministic():
    a = run_experiment(_small())
    b = run_experiment(_small())
    for meth in a.methods:
        np.testing.assert_array_equal(a.raw[meth], b.raw[meth])


def test_parallel_matches_serial():
    for cfg in (
        _small("sinr_vs_inr", inr_grid_db=[10.0, 30.0]),
        # A 23 x 500 Gram matrix is large enough for OpenBLAS to thread.
        _small("sinr_vs_snapshots", k_grid=[50, 500]),
    ):
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=2)
        for meth in serial.methods:
            np.testing.assert_array_equal(serial.raw[meth], parallel.raw[meth])


def _blas_controls():
    controls = harness._openblas_threads()
    if controls is None:
        pytest.skip("numpy links no OpenBLAS: the thread pin does nothing")
    return controls


_RAW_SCRIPT = """
import sys
import numpy as np
from beamlab import default_config, run_experiment
cfg = default_config("sinr_vs_snapshots")
cfg.trials, cfg.k_grid = 4, [50, 500]
res = run_experiment(cfg)
np.savez(sys.argv[1], **res.raw)
"""


def test_raw_bits_do_not_depend_on_blas_threads(tmp_path):
    # Threaded and single-threaded zgemm round differently; the harness
    # runs every sweep at one BLAS thread, whatever the environment says.
    _blas_controls()
    src = Path(harness.__file__).parents[1]
    raws = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", _RAW_SCRIPT, str(out)], env=env, check=True, timeout=120
        )
        with np.load(out) as raw:
            raws.append({meth: raw[meth] for meth in raw.files})
    assert raws[0].keys() == raws[1].keys()
    for meth in raws[0]:
        np.testing.assert_array_equal(_bits(raws[0][meth]), _bits(raws[1][meth]))


def test_blas_thread_pin_is_scoped(monkeypatch):
    get_threads, set_threads = _blas_controls()
    caller = get_threads()
    seen = []
    run_chunk = harness._run_chunk

    def recording(task):
        seen.append(get_threads())
        return run_chunk(task)

    def failing(task):
        raise RuntimeError("chunk failed")

    try:
        set_threads(2)
        monkeypatch.setattr(harness, "_run_chunk", recording)
        run_experiment(_small())
        assert seen and set(seen) == {1}
        assert get_threads() == 2
        monkeypatch.setattr(harness, "_run_chunk", failing)
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_experiment(_small())
        assert get_threads() == 2
    finally:
        set_threads(caller)


def test_concurrent_sweeps_share_one_pin(monkeypatch):
    # Sweep A starts first and ends while sweep B still runs: B must stay
    # at one thread, and the caller's count comes back when B ends.
    get_threads, set_threads = _blas_controls()
    caller = get_threads()
    a_running, a_may_end = threading.Event(), threading.Event()
    sweep_a = []
    seen = []
    run_chunk = harness._run_chunk

    def gated(task):
        if threading.current_thread() is not threading.main_thread():
            a_running.set()
            assert a_may_end.wait(60)
        elif not seen:
            a_may_end.set()
            sweep_a[0].result()
            seen.append(get_threads())
        return run_chunk(task)

    try:
        set_threads(2)
        monkeypatch.setattr(harness, "_run_chunk", gated)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            sweep_a.append(pool.submit(run_experiment, _small(trials=1)))
            assert a_running.wait(60)
            run_experiment(_small())
        assert seen == [1]
        assert get_threads() == 2
    finally:
        a_may_end.set()
        set_threads(caller)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_pin_blas_under_any_start_method(monkeypatch, method):
    # A spawned or forkserver worker starts a fresh OpenBLAS at
    # OPENBLAS_NUM_THREADS threads instead of inheriting the parent's pin.
    _blas_controls()
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        ),
    )
    cfg = _small("sinr_vs_snapshots", k_grid=[50, 500])
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    for meth in serial.methods:
        np.testing.assert_array_equal(_bits(serial.raw[meth]), _bits(parallel.raw[meth]))


def test_grid_power_mapping_exact_for_optimal():
    # The optimal beamformer depends only on the scenario, so stepping
    # the input SNR shifts its output by exactly the same amount.
    res = run_experiment(_small())
    per_trial_shift = res.raw["optimal"][1] - res.raw["optimal"][0]
    np.testing.assert_allclose(per_trial_shift, 10.0, atol=1e-9)


def test_common_random_numbers_across_grid():
    # One snapshot seed per trial covers the whole grid: repeating an x
    # value must reproduce the identical per-trial result.
    for experiment, grid in (("sinr_vs_snr", "snr_grid_db"), ("sinr_vs_inr", "inr_grid_db")):
        cfg = _small(experiment, methods=["optimal", "scm_mvdr", "lcssp"], **{grid: [10.0, 10.0]})
        res = run_experiment(cfg)
        for meth in res.methods:
            np.testing.assert_array_equal(res.raw[meth][0], res.raw[meth][1])


def test_mismatch_draws_respect_experiment_protocol():
    snr_cfg = normalize_config(default_config("sinr_vs_snr"))
    inr_cfg = normalize_config(default_config("sinr_vs_inr"))
    nominal = np.deg2rad([-30.0, 30.0])
    for trial in range(5):
        soi, ints, perr, _ = _draw_mismatch(snr_cfg, trial)
        hw = np.deg2rad(snr_cfg.doa_mismatch_halfwidth_deg)
        assert abs(soi) <= hw
        assert np.all(np.abs(ints - nominal) <= hw)
        assert not np.allclose(ints, nominal)
        assert perr[0] == 0.0
        assert np.all(np.abs(perr) <= snr_cfg.position_error_halfwidth_wl)

        soi_i, ints_i, perr_i, _ = _draw_mismatch(inr_cfg, trial)
        assert abs(soi_i) <= hw
        np.testing.assert_array_equal(ints_i, nominal)
        np.testing.assert_array_equal(perr_i, np.zeros(10))


def test_mismatch_draws_deterministic_per_trial():
    cfg = normalize_config(default_config("sinr_vs_snr"))
    first = _draw_mismatch(cfg, 4)
    second = _draw_mismatch(cfg, 4)
    assert first[0] == second[0]
    np.testing.assert_array_equal(first[1], second[1])
    np.testing.assert_array_equal(first[2], second[2])
    assert first[3] == second[3]
    assert first[3] != _draw_mismatch(cfg, 5)[3]


def test_aggregates_consistent_with_raw():
    res = run_experiment(_small())
    for meth in res.methods:
        a = res.raw[meth]
        mask = np.isfinite(a)
        for ix in range(a.shape[0]):
            vals = a[ix][mask[ix]]
            assert res.n_ok[meth][ix] == len(vals)
            assert res.mean_sinr_db[meth][ix] == pytest.approx(vals.mean(), abs=1e-9)
            assert res.std_db[meth][ix] == pytest.approx(vals.std(), abs=1e-9)


def test_dominance_accounting_on_clean_run():
    res = run_experiment(_small())
    assert res.diagnostics["dominance_violations"] == 0
    assert res.diagnostics["failures"] == []
    assert res.diagnostics["l_chosen"] == 20
    assert res.diagnostics["epsilon_n"] < 1e-12


def test_failed_method_recorded_and_excluded():
    cfg = _small(
        interferers_deg=[7.0, 30.0],
        delta=0.01,
        l="auto",
        methods=["optimal", "lcssp"],
    )
    res = run_experiment(cfg)
    assert np.all(res.n_ok["lcssp"] == 0)
    assert np.all(np.isnan(res.raw["lcssp"]))
    assert np.all(np.isnan(res.mean_sinr_db["lcssp"]))
    assert np.all(res.n_ok["optimal"] == cfg.trials)
    failures = res.diagnostics["failures"]
    assert len(failures) == len(res.x_values) * cfg.trials
    assert all(rec["method"] == "lcssp" for rec in failures)
    assert all("NoConvergenceError" in rec["error"] for rec in failures)


def test_output_sinr_failure_is_recorded_per_point(negative_ipnc):
    negative_ipnc({(0, 1), (2, 0)})
    res = run_experiment(_small())
    failures = res.diagnostics["failures"]
    assert {(rec["trial"], rec["x"]) for rec in failures} == {(0, 10.0), (2, 0.0)}
    assert len(failures) == 2 * len(res.methods)
    assert all("nonpositive interference-plus-noise power" in rec["error"] for rec in failures)
    failed = {(rec["method"], rec["trial"], rec["x"]) for rec in failures}
    for meth in res.methods:
        for ix, x in enumerate(res.x_values):
            for t in range(3):
                assert np.isnan(res.raw[meth][ix, t]) == ((meth, t, x) in failed)
        assert np.array_equal(res.n_ok[meth], np.isfinite(res.raw[meth]).sum(axis=1))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)
        if initializer is not None:
            initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers, trials, cpus, expected",
    [
        (1000, 3, 8, 3),
        (1000, 6, 4, 4),
        (2, 6, 4, 2),
        (4, 3, None, None),
        (4, 1, 8, None),
        (0, 3, 8, None),
        # Checked like an integer config field.
        ("3", 6, 4, 3),
        ("two", 3, 8, ConfigError),
        (2.5, 3, 8, ConfigError),
        (True, 3, 8, ConfigError),
        (None, 3, 8, ConfigError),
    ],
)
def test_workers_clamped_to_trials_and_cpus(monkeypatch, workers, trials, cpus, expected):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = _small(trials=trials, methods=["optimal", "scm_mvdr"])
    if expected is ConfigError:
        with pytest.raises(ConfigError, match="workers must be an integer"):
            run_experiment(cfg, workers=workers)
        assert _RecordingPool.sizes == []
        return
    res = run_experiment(cfg, workers=workers)
    assert _RecordingPool.sizes == ([] if expected is None else [expected])
    serial = run_experiment(cfg, workers=1)
    for meth in res.methods:
        np.testing.assert_array_equal(res.raw[meth], serial.raw[meth])


def test_beampattern_result_shape():
    res = run_experiment(default_config("beampattern"))
    assert res.x_label == "angle_deg"
    assert len(res.x_values) == 1801
    assert res.x_values[0] == -90.0 and res.x_values[-1] == 90.0
    for meth in res.methods:
        assert res.raw[meth].shape == (1801, 1)
        assert res.raw[meth].max() == pytest.approx(0.0, abs=1e-9)


def test_emit_csv_layout(tmp_path):
    res = run_experiment(_small(methods=["optimal", "lcssp"]))
    path, raw_path = emit_csv(res, tmp_path / "out.csv")
    assert raw_path == tmp_path / "out_raw.csv"
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "x,method,mean_sinr_db,std_db,n_ok"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("0,optimal,")
    raw_lines = raw_path.read_bytes().decode("utf-8").splitlines()
    assert raw_lines[0] == "x,method,trial,sinr_db"
    assert len(raw_lines) == 1 + 2 * 2 * 3


def test_emit_csv_byte_identical_and_nan_rows(tmp_path):
    cfg = _small(
        interferers_deg=[7.0, 30.0], delta=0.01, l="auto", methods=["lcssp"]
    )
    res = run_experiment(cfg)
    p1, r1 = emit_csv(res, tmp_path / "a.csv")
    p2, r2 = emit_csv(run_experiment(cfg), tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    assert r1.read_bytes() == r2.read_bytes()
    body = p1.read_text()
    assert ",nan," in body
    assert body.strip().splitlines()[1].endswith(",0")


def test_emit_csv_wraps_write_errors(tmp_path):
    res = run_experiment(_small(methods=["optimal"]))
    with pytest.raises(OSError):
        emit_csv(res, tmp_path / "no" / "such" / "dir" / "out.csv")


def _bits(a):
    """Raw float64 bits, so the comparison is exact and nan equals nan."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _check_chunking(tmp_path, monkeypatch, cfg):
    """Run ``cfg`` in default chunks, on two workers and in chunks of 1 and
    2 trials: raw bits, diagnostics and CSV bytes must all agree."""

    def run(name, workers=1):
        res = run_experiment(cfg, workers=workers)
        paths = emit_csv(res, tmp_path / f"{name}.csv")
        return res, [p.read_bytes() for p in paths]

    reference, reference_csv = run("default")
    runs = [run("workers2", workers=2)]
    for chunk in (1, 2):
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        runs.append(run(f"chunk{chunk}"))
    for res, csv_bytes in runs:
        for meth in reference.methods:
            np.testing.assert_array_equal(_bits(res.raw[meth]), _bits(reference.raw[meth]))
        assert res.diagnostics == reference.diagnostics
        assert csv_bytes == reference_csv
    return reference


# Interferers that no extended dimension up to 8 m resolves to delta:
# LCSSP fails at every point of every chunk.
_NO_CONVERGENCE = {"interferers_deg": [-31.7, 28.3], "delta": 1e-4, "l": "auto"}


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("sinr_vs_snr", _NO_CONVERGENCE),
        ("sinr_vs_snr", {}),
        ("sinr_vs_snapshots", {"k_grid": [5, 50]}),
        ("beampattern", {}),
        ("sinr_vs_inr", {"inr_grid_db": [10.0, 40.0]}),
    ],
)
def test_trial_chunks_change_nothing(tmp_path, monkeypatch, experiment, overrides):
    reference = _check_chunking(tmp_path, monkeypatch, _small(experiment, trials=5, **overrides))
    if overrides is _NO_CONVERGENCE:
        assert len(reference.diagnostics["failures"]) == 5 * len(reference.x_values)


def test_point_failures_cross_chunk_boundaries(tmp_path, monkeypatch, negative_ipnc):
    negative_ipnc({(1, 0), (2, 1), (4, 0)})
    # The patched draw lives in this process only: split the chunks for
    # two workers, but run them here.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    reference = _check_chunking(tmp_path, monkeypatch, _small(trials=5))
    failed = {(rec["trial"], rec["x"]) for rec in reference.diagnostics["failures"]}
    assert failed == {(1, 0.0), (2, 10.0), (4, 0.0)}
    assert len(reference.diagnostics["failures"]) == 3 * len(reference.methods)


def test_snapshot_points_depend_only_on_their_k():
    # Each k's draw is a prefix of the trial's one stream, so the other
    # entries of the grid and their order leave its values alone.
    wide = run_experiment(_small("sinr_vs_snapshots", k_grid=[500, 10, 50]))
    narrow = run_experiment(_small("sinr_vs_snapshots", k_grid=[10, 50]))
    for meth in wide.methods:
        np.testing.assert_array_equal(_bits(wide.raw[meth][1:]), _bits(narrow.raw[meth]))


def _chunk_points(n_trials=3):
    """A chunk's stacked points and method context, as the engine builds them."""
    cfg = normalize_config(_small(snr_grid_db=[0.0, 10.0, 20.0]))
    projection, _, _ = harness._resolve_lcssp(cfg)
    x_values = np.asarray(cfg.snr_grid_db)
    points = harness._draw_points(cfg, x_values, range(n_trials), projection.dim)
    context = (
        steering_vector(0.0, cfg.m),
        harness._sector_complement(0.0, np.deg2rad(cfg.sector_halfwidth_deg)),
        projection,
    )
    return points, context


def _assert_batch_of_one(method, points, context, w, sinr, failed):
    for b in range(len(points)):
        if b in failed:
            assert np.isnan(sinr[b])
            continue
        w_b, sinr_b, errors_b = harness._point_values(method, points[b : b + 1], *context)
        assert errors_b == {}
        np.testing.assert_array_equal(w_b[0], w[b])
        assert _bits(sinr_b[0]) == _bits(sinr[b])


def test_failing_points_do_not_touch_the_rest_of_the_stack():
    points, context = _chunk_points()
    # Point 4: zero covariances that loading cannot fix; point 2: a
    # negative definite true IPNC, so every method's output power is
    # negative; point 6: zero SOI power, an output SINR of -inf dB.
    points.scm[4] = 0.0
    points.cov[4] = 0.0
    points.ipnc[2] = -np.eye(points.ipnc.shape[-1])
    points.soi_power[6] = 0.0
    for method in harness.METHOD_NAMES:
        w, sinr, errors = harness._point_values(method, points, *context)
        expected = {2: "ValueError: nonpositive", 6: "ValueError: non-finite output SINR -inf"}
        if method != "optimal":
            expected[4] = "SingularCovarianceError: covariance condition number"
        assert sorted(errors) == sorted(expected), method
        for b, prefix in expected.items():
            assert errors[b].startswith(prefix), (method, errors[b])
        assert np.isfinite(sinr).sum() == len(points) - len(expected)
        _assert_batch_of_one(method, points, context, w, sinr, errors)


def test_batch_level_linalg_error_loses_only_its_point(monkeypatch):
    points, context = _chunk_points()
    # The only IPNC with this diagonal: trial 0's, which its three points
    # share, so the optimal weights solve it once for all of them.
    assert points.shared == 3
    points.ipnc[:3] *= 2.0
    clean = harness._point_values("optimal", points, *context)
    poison = points.ipnc[0, 0, 0]
    real_inv = np.linalg.inv

    def flaky_inv(a):
        if np.any(a[..., 0, 0] == poison):
            raise np.linalg.LinAlgError("simulated LAPACK failure")
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", flaky_inv)
    w, sinr, errors = harness._point_values("optimal", points, *context)
    assert errors == dict.fromkeys(range(3), "LinAlgError: simulated LAPACK failure")
    assert np.isnan(sinr[:3]).all()
    keep = np.arange(len(points)) >= 3
    np.testing.assert_array_equal(w[keep], clean[0][keep])
    np.testing.assert_array_equal(_bits(sinr[keep]), _bits(clean[1][keep]))
