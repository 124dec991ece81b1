"""Experiment configs, Monte Carlo driver, aggregation, CSV emission."""

import json

import numpy as np
import pytest

from beamlab import ConfigError, default_config, emit_csv, load_config, run_experiment
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
        ("doa_mismatch_halfwidth_deg", 85.0),
        ("trials", float("inf")),
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
    cfg = _small("sinr_vs_inr", inr_grid_db=[10.0, 30.0])
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    for meth in serial.methods:
        np.testing.assert_array_equal(serial.raw[meth], parallel.raw[meth])


def test_grid_power_mapping_exact_for_optimal():
    # The optimal beamformer depends only on the scenario, so stepping
    # the input SNR shifts its output by exactly the same amount.
    res = run_experiment(_small())
    per_trial_shift = res.raw["optimal"][1] - res.raw["optimal"][0]
    np.testing.assert_allclose(per_trial_shift, 10.0, atol=1e-9)


def test_common_random_numbers_across_grid():
    # One snapshot seed per trial covers the whole grid: repeating an x
    # value must reproduce the identical per-trial result.
    cfg = _small(snr_grid_db=[10.0, 10.0], methods=["scm_mvdr", "lcssp"])
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


def test_output_sinr_failure_is_recorded_per_point():
    # At 400 dB INR the true IPNC swamps double precision, so the optimal
    # weights can give a nonpositive interference-plus-noise power.
    res = run_experiment(_small(inr_grid_db=[400.0]))
    failures = res.diagnostics["failures"]
    assert failures
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

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "workers, trials, cpus, expected",
    [(1000, 3, 8, 3), (1000, 6, 4, 4), (2, 6, 4, 2), (4, 3, None, None), (4, 1, 8, None)],
)
def test_workers_clamped_to_trials_and_cpus(monkeypatch, workers, trials, cpus, expected):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = _small(trials=trials, methods=["optimal", "scm_mvdr"])
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
