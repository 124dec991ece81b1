"""Experiment configs, Monte Carlo driver, aggregation, CSV emission."""

import concurrent.futures
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import beamlab
import oracle
from beamlab import (
    ConfigError,
    default_config,
    emit_csv,
    hermitize,
    load_config,
    run_experiment,
    steering_vector,
)
from beamlab import baselines, harness
from beamlab.array_model import _element_positions, _steering_grid
from beamlab.baselines import COND_LIMIT, LOADING_FLOOR
from beamlab.config import (
    MAX_DIMENSION,
    MEMORY_BUDGET,
    METHOD_NAMES,
    TRIAL_CHUNK,
    _sector_complement,
    memory_terms,
    normalize_config,
    run_layout,
)
from beamlab.harness import _draw_mismatch


def test_benchmark_tracer_targets_resolve_in_harness():
    # perfbench traces run_experiment and emit_csv as ("harness", name),
    # and the conditioning, solve and weight functions as ("baselines",
    # name); the conditioned_matrix, loads and per-method incl_s metrics
    # rest on the latter. If one leaves its module, its spans silently
    # read zero.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = {}  # run from its source text, so no bytecode is written there
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracer)
    for module in (harness, baselines):
        short = module.__name__.rpartition(".")[2]
        names = [func for mod, func in tracer["TARGETS"] if mod == short]
        assert names, short
        for name in names:
            assert callable(getattr(module, name, None)), (short, name)


def test_all_lists_exactly_the_public_names():
    # A stale __all__ entry breaks ``from beamlab import *``, and a public
    # name missing from __all__ is left out of it.
    exec("from beamlab import *", {})
    public = {
        name
        for name, value in vars(beamlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(beamlab.__all__) - {"__version__"} == public


def test_default_config_tables():
    snr = default_config("sinr_vs_snr")
    assert snr.m == 10 and snr.l == 20 and snr.k_grid == [50]
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
    # Bytes that are not UTF-8, and nesting too deep for the JSON decoder.
    for content in (b"\xff\xfe{}", b"[" * 100_000):
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"cannot read config file {path}: "):
            load_config(path, {"experiment": "beampattern"})


def test_load_config_rejects_snapshot_counts_above_the_limit(tmp_path):
    # A k whose stream would not fit the memory budget used to pass here
    # and then die allocating its draw. The snapshot sweep draws at its
    # largest k; at the default dimensions k 200000 fits.
    path = tmp_path / "cfg.json"
    for k, fits in ((200_000, True), (2_000_000, False), (10**15, False)):
        path.write_text(
            json.dumps({"experiment": "sinr_vs_snapshots", "trials": 1, "k_grid": [10, k]})
        )
        if fits:
            assert load_config(path).k_grid == [10, k]
            continue
        with pytest.raises(ConfigError, match="budget; most of it is the snapshot stream"):
            load_config(path)


def test_normalize_config_bounds_the_array_dimension():
    # m, a fixed l and the "auto" search ceiling 8 m stop at MAX_DIMENSION;
    # past it a run used to hang in the search or exhaust memory mid-run.
    def normalized(m, l):
        cfg = default_config("sinr_vs_snr")
        cfg.m, cfg.l = m, l
        return normalize_config(cfg)

    assert normalized(MAX_DIMENSION, MAX_DIMENSION).l == MAX_DIMENSION
    assert normalized(MAX_DIMENSION // 8, "auto").m == MAX_DIMENSION // 8
    for m, l, message in (
        (MAX_DIMENSION + 1, "auto", f"m must be at most {MAX_DIMENSION}"),
        (10**7, 10**7, f"m must be at most {MAX_DIMENSION}"),
        (2, MAX_DIMENSION + 1, f"l must be at most {MAX_DIMENSION}"),
        (10, 10**9, f"l must be at most {MAX_DIMENSION}"),
        (MAX_DIMENSION // 8 + 1, "auto", f"m must be at most {MAX_DIMENSION // 8}"),
    ):
        with pytest.raises(ConfigError, match=message):
            normalized(m, l)


def test_normalize_config_bounds_the_raw_table():
    # The raw table holds 8 B per x row, method and trial, and the raw
    # writer a row template of about 100 B per (method, trial); past the
    # memory budget a run would exhaust memory mid-run. The beampattern's
    # 1801 rows make the table the largest term, the SNR sweep's 9 the
    # templates. One method instead of five fits.
    for experiment, rows, term in (
        ("beampattern", 1801, "the raw table"),
        ("sinr_vs_snr", 9, "the raw row templates"),
    ):
        cfg = default_config(experiment)
        limit = MEMORY_BUDGET // (len(METHOD_NAMES) * (8 * rows + 100))
        for trials in (limit + 1, 10**12):
            cfg.trials = trials
            with pytest.raises(ConfigError, match=f"budget; most of it is {term} \\(trials, "):
                normalize_config(cfg)
        cfg.trials, cfg.methods = limit + 1, ["optimal"]
        assert normalize_config(cfg).trials == limit + 1


def test_over_budget_error_names_the_largest_term():
    # l 128, 32 interferers, k 200000 and 64 grid points, 16 trials: the
    # stream of one trial is 518 MB. It is rejected before anything runs.
    # (At k 100000 it fits: it peaked at 407 MB. With optimal alone, which
    # reads no snapshots, no stream is drawn and it fits at k 200000.)
    cfg = default_config("sinr_vs_snapshots")
    cfg.l, cfg.trials, cfg.methods = 128, 16, ["optimal", "scm_mvdr"]
    cfg.interferers_deg = [side * a for side in (-1, 1) for a in np.linspace(10.0, 80.0, 16)]
    cfg.k_grid = [200_000] + [1] * 63
    with pytest.raises(ConfigError) as err:
        normalize_config(cfg)
    message = str(err.value)
    assert re.fullmatch(
        r"the run needs about \d+ MB, above the 537 MB memory budget; most of it is "
        r"the snapshot stream \(.*\)",
        message,
    ), message


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
        ("snr_grid_db", [10.0] * 100_000),
        ("interferers_deg", [40.0] * 100_000),
        # Over the memory budget: 6000 interferers make a 577 MB Gram matrix.
        ("interferers_deg", [40.0] * 6000),
        ("doa_mismatch_halfwidth_deg", 85.0),
        ("trials", float("inf")),
        # Integers too large for a float, as a JSON config can hold them.
        ("delta", 10**400),
        ("snr_grid_db", [10**400]),
        # JSON booleans are not numbers.
        ("trials", True),
        ("seed", False),
        ("snr_grid_db", [True, 10.0]),
        ("delta", True),
        ("k_grid", [np.bool_(True)]),
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
        # Grids too long for the memory budget even in one-trial chunks, on
        # the experiment that sweeps them.
        ("sinr_vs_inr", "inr_grid_db", [10.0] * 20000),
        ("sinr_vs_snapshots", "k_grid", [50] * 20000),
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


def test_openblas_threads_are_found_under_a_numpy1_suffix(monkeypatch):
    # numpy 1.x wheels export OpenBLAS's thread count with no prefix and
    # a "64_" suffix; a library with only that pair still gives the pin.
    libs = []

    class Openblas64:
        def __init__(self, name, mode=0):
            libs.append(self)
            self.openblas_get_num_threads64_ = types.SimpleNamespace()
            self.openblas_set_num_threads64_ = types.SimpleNamespace()

    harness._openblas_threads.cache_clear()
    monkeypatch.setattr(harness.ctypes, "CDLL", Openblas64)
    try:
        controls = harness._openblas_threads()
    finally:
        harness._openblas_threads.cache_clear()
    (lib,) = libs
    assert controls is not None
    assert controls[0] is lib.openblas_get_num_threads64_
    assert controls[1] is lib.openblas_set_num_threads64_


class _NoLibrary:
    def __init__(self, name, mode=0):
        raise OSError(f"{name}: cannot open shared object file")


class _NoThreadSymbols:
    def __init__(self, name, mode=0):
        pass


@pytest.mark.parametrize("cdll", [_NoLibrary, _NoThreadSymbols], ids=["no-library", "no-symbols"])
def test_sweep_runs_without_openblas_thread_controls(monkeypatch, cdll):
    # Where numpy's linalg library cannot be opened, or exports none of
    # the symbol pairs, there is no pin: no sweep registers, and the
    # sweep still runs to the end.
    run_chunk, sweeps = harness._run_chunk, []

    def counting(*args):
        sweeps.append(harness._one_blas_thread._sweeps)
        return run_chunk(*args)

    harness._openblas_threads.cache_clear()
    monkeypatch.setattr(harness.ctypes, "CDLL", cdll)
    monkeypatch.setattr(harness, "_run_chunk", counting)
    try:
        assert harness._openblas_threads() is None
        res = run_experiment(_small("sinr_vs_snr"))
    finally:
        harness._openblas_threads.cache_clear()
    assert sweeps == [0]
    assert all(np.all(res.n_ok[meth] == res.config.trials) for meth in res.methods)


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

    def recording(*args):
        seen.append(get_threads())
        return run_chunk(*args)

    def failing(*args):
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

    def gated(*args):
        if threading.current_thread() is not threading.main_thread():
            a_running.set()
            assert a_may_end.wait(60)
        elif not seen:
            a_may_end.set()
            sweep_a[0].result()
            seen.append(get_threads())
        return run_chunk(*args)

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


def test_worker_threads_run_at_one_blas_thread(monkeypatch):
    # Pool threads share the process's OpenBLAS, so the sweep's pin holds
    # for them and a parallel sweep keeps the serial sweep's bits.
    get_threads, set_threads = _blas_controls()
    caller = get_threads()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    seen = []
    run_chunk = harness._run_chunk

    def recording(*args):
        seen.append((threading.current_thread() is threading.main_thread(), get_threads()))
        return run_chunk(*args)

    cfg = _small("sinr_vs_snapshots", k_grid=[50, 500])
    try:
        set_threads(2)
        serial = run_experiment(cfg, workers=1)
        monkeypatch.setattr(harness, "_run_chunk", recording)
        parallel = run_experiment(cfg, workers=2)
        assert get_threads() == 2
    finally:
        set_threads(caller)
    assert len(seen) == 2 and set(seen) == {(False, 1)}
    for meth in serial.methods:
        np.testing.assert_array_equal(_bits(serial.raw[meth]), _bits(parallel.raw[meth]))


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_pin_blas_under_any_start_method(monkeypatch, method):
    # A spawned or forkserver process would start a fresh OpenBLAS at
    # OPENBLAS_NUM_THREADS threads instead of inheriting the sweep's pin;
    # whatever start method a process pool would use, --workers starts no
    # process and keeps the serial sweep's bits.
    _blas_controls()
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    context = multiprocessing.get_context(method)

    def no_process(self):
        raise AssertionError("--workers started a process")

    monkeypatch.setattr(context.Process, "start", no_process)
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor, mp_context=context),
    )
    cfg = _small("sinr_vs_snapshots", k_grid=[50, 500])
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    for meth in serial.methods:
        np.testing.assert_array_equal(_bits(serial.raw[meth]), _bits(parallel.raw[meth]))


def test_more_worker_threads_than_cores_match_serial(monkeypatch):
    # Six threads on one-trial chunks, switched every few microseconds: a
    # buffer or cache shared between chunks would show in the bits.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 6)
    monkeypatch.setattr("beamlab.config.TRIAL_CHUNK", 1)
    cfg = _small("sinr_vs_snapshots", trials=6, k_grid=[5, 50, 500])
    serial = run_experiment(cfg, workers=1)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        parallel = run_experiment(cfg, workers=6)
    finally:
        sys.setswitchinterval(interval)
    for meth in serial.methods:
        np.testing.assert_array_equal(_bits(serial.raw[meth]), _bits(parallel.raw[meth]))
    assert parallel.diagnostics == serial.diagnostics


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failing_chunk_cancels_queued_chunks(monkeypatch, error):
    # Chunk 0 raises while the other chunks hold both pool threads until
    # the sweep shuts the pool down: the chunks still queued by then must
    # never run. A worker's KeyboardInterrupt reaches the caller through
    # the same wait as an interrupt of the caller itself.
    controls = harness._openblas_threads()
    caller = controls[0]() if controls else None
    release = threading.Event()
    started = []
    run_chunk = harness._run_chunk

    class ReleasingPool(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()
            super().shutdown(wait=wait)

    def blocking(*args):
        trials = args[-1]
        started.append(trials[0])
        if trials[0] == 0:
            raise error("chunk 0 failed")
        assert release.wait(60)
        return run_chunk(*args)

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr("beamlab.config.TRIAL_CHUNK", 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", ReleasingPool)
    monkeypatch.setattr(harness, "_run_chunk", blocking)
    with pytest.raises(error, match="chunk 0 failed"):
        run_experiment(_small(trials=6), workers=2)
    # Chunk 0, then at most one blocked chunk per thread; 6 were scheduled.
    assert 0 in started and len(started) <= 3
    if controls:
        assert controls[0]() == caller


def test_a_run_submits_at_most_two_chunks_per_thread_ahead(monkeypatch):
    # At one trial per chunk, 40 trials on 2 threads make 40 chunks. The
    # run submits a chunk only while fewer than 4, two per thread, are
    # submitted and not yet taken, so the pool's queue does not grow with
    # the trial count; the values are the serial run's.
    outstanding, counts = set(), []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            outstanding.add(future)
            counts.append(len(outstanding))
            result = future.result

            def taken(timeout=None):
                outstanding.discard(future)
                return result(timeout)

            future.result = taken
            return future

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr("beamlab.config.TRIAL_CHUNK", 1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    cfg = _small(trials=40)
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    assert len(counts) == 40 and max(counts) == 4
    assert not outstanding
    for meth in serial.methods:
        np.testing.assert_array_equal(_bits(serial.raw[meth]), _bits(parallel.raw[meth]))
    assert parallel.diagnostics == serial.diagnostics


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


def test_dominance_violations_count_the_points_that_beat_optimal(monkeypatch):
    # SINRs of 1000 dB planted at (trial, x index) points of the one chunk:
    # scm_mvdr beats optimal at (0, 1) and (2, 0), lcssp at (1, 1). At
    # (2, 1) scm_mvdr ties with optimal, which is no violation, and optimal
    # never counts against itself.
    planted = {"optimal": [(2, 1)], "scm_mvdr": [(0, 1), (2, 0), (2, 1)], "lcssp": [(1, 1)]}
    point_values = harness._point_values

    def planting(method, *args):
        w, sinr, errors = point_values(method, *args)
        for index in planted.get(method, []):
            sinr[index] = 1e3
        return w, sinr, errors

    monkeypatch.setattr(harness, "_point_values", planting)
    cfg = _small(methods=["optimal", "scm_mvdr", "lcssp"])
    res = run_experiment(cfg)
    assert res.diagnostics["dominance_violations"] == 3
    assert res.raw["scm_mvdr"][1, 0] == res.raw["scm_mvdr"][0, 2] == 1e3
    cfg.methods = ["optimal"]
    assert run_experiment(cfg).diagnostics["dominance_violations"] == 0


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


def test_auto_dimension_draws_the_same_with_or_without_lcssp():
    # At l="auto" every draw comes from the auto-selected aperture whether
    # or not lcssp runs, so the methods it shares a run with see the same
    # data; the lcssp diagnostics stay empty when it does not run.
    cfg = _small(l="auto", snr_grid_db=[-10.0, 10.0])
    with_lcssp = run_experiment(cfg)
    cfg.methods = ["optimal", "scm_mvdr"]
    without = run_experiment(cfg)
    for meth in cfg.methods:
        np.testing.assert_array_equal(_bits(without.raw[meth]), _bits(with_lcssp.raw[meth]))
    assert with_lcssp.diagnostics["l_chosen"] > cfg.m
    lcssp_keys = ("l_chosen", "epsilon_n", "lcssp_error")
    assert [without.diagnostics[key] for key in lcssp_keys] == [None, None, None]


def test_fixed_dimension_projector_failure_fails_only_lcssp():
    # At a fixed l the look sector can swallow every basis angle: every
    # lcssp point fails with that reason, and the other methods still
    # draw at l and match a run without lcssp bit for bit.
    cfg = _small(m=2, l=3, sector_halfwidth_deg=42.0, interferers_deg=[-60.0])
    with_lcssp = run_experiment(cfg)
    reason = "ValueError: look sector swallows every basis angle at dimension 3"
    failures = with_lcssp.diagnostics["failures"]
    assert len(failures) == len(with_lcssp.x_values) * cfg.trials
    assert all(rec["method"] == "lcssp" and rec["error"].startswith(reason) for rec in failures)
    assert np.all(np.isnan(with_lcssp.raw["lcssp"]))
    assert with_lcssp.diagnostics["lcssp_error"].startswith(reason)
    cfg.methods = [meth for meth in METHOD_NAMES if meth != "lcssp"]
    without = run_experiment(cfg)
    for meth in cfg.methods:
        np.testing.assert_array_equal(_bits(without.raw[meth]), _bits(with_lcssp.raw[meth]))
    lcssp_keys = ("l_chosen", "epsilon_n", "lcssp_error")
    assert [without.diagnostics[key] for key in lcssp_keys] == [None, None, None]


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("sinr_vs_snapshots", {"methods": ["optimal"]}),
        # No dimension up to 8 m reaches this delta, so lcssp has no
        # projector and reads no stack.
        (
            "sinr_vs_snr",
            {"interferers_deg": [-31.7, 28.3], "delta": 1e-4, "l": "auto",
             "methods": ["optimal", "lcssp"]},
        ),
    ],
    ids=["optimal", "lcssp_without_projector"],
)
def test_a_run_that_reads_no_stack_draws_no_snapshots(monkeypatch, experiment, overrides):
    # The optimal beamformer reads only the true IPNC and steering vector,
    # so a run whose methods read neither the SCM nor LCSSP's IPNCs forms
    # no Gram matrix, and its values are those of the run that draws.
    cfg = _small(experiment, **overrides)
    drawing = run_experiment(dataclasses.replace(cfg, methods=[*cfg.methods, "scm_mvdr"]))

    def no_gram(*args):
        raise AssertionError("a run that reads no snapshots formed a Gram matrix")

    monkeypatch.setattr(harness, "_gram", no_gram)
    res = run_experiment(cfg)
    for meth in cfg.methods:
        np.testing.assert_array_equal(_bits(res.raw[meth]), _bits(drawing.raw[meth]))


def test_memory_terms_charge_the_draw_only_if_a_method_reads_it():
    # optimal alone draws no snapshots, so neither the stream nor a trial's
    # Grams and covariances are charged (the methods' terms may then be
    # the larger set, and the draw's are left out); scm_mvdr reads them.
    cfg = normalize_config(_small("sinr_vs_snapshots", methods=["optimal"]))
    stream = "the snapshot stream (k_grid, interferers_deg, l)"
    gram = "a trial's Gram matrices, mixing products and covariances (k_grid, interferers_deg, l)"
    terms = memory_terms(cfg, 1, TRIAL_CHUNK)
    assert terms.get(stream, 0) == terms.get(gram, 0) == 0
    cfg.methods = ["optimal", "scm_mvdr"]
    terms = memory_terms(cfg, 1, TRIAL_CHUNK)
    assert terms[stream] > 0 and terms[gram] > 0


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
    """Stands in for ThreadPoolExecutor: records max_workers, runs each task on submit."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


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
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
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


def test_workers_stop_at_the_memory_budget(monkeypatch):
    # Each thread holds a chunk, so a run starts the most threads at which
    # some chunk length fits the budget, and serially if two threads fit
    # at none. At k 2000 each thread's snapshot stream is the chunk's
    # largest array, so every thread adds to the estimate; one-trial
    # chunks give each thread count its smallest estimate. The values do
    # not depend on the thread count.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    cfg = normalize_config(_small(trials=8, k_grid=[2000], methods=["optimal", "scm_mvdr"]))
    peaks = {w: sum(memory_terms(cfg, w, 1).values()) for w in range(1, 9)}
    assert all(peaks[w] < peaks[w + 1] for w in range(1, 8))
    # Three threads fit only in chunks shorter than length 16 cuts (2/3/3).
    assert sum(memory_terms(cfg, 3, TRIAL_CHUNK).values()) > peaks[3]
    serial = run_experiment(cfg)
    for budget in (peaks[3], peaks[2] - 1):
        monkeypatch.setattr("beamlab.config.MEMORY_BUDGET", budget)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        res = run_experiment(cfg, workers=8)
        threads = max(w for w, peak in peaks.items() if peak <= budget)
        assert _RecordingPool.sizes == ([threads] if threads > 1 else [])
        for meth in res.methods:
            np.testing.assert_array_equal(res.raw[meth], serial.raw[meth])


def test_beampattern_result_shape():
    res = run_experiment(default_config("beampattern"))
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
    """Run ``cfg`` in default chunks, on two worker threads and in chunks of
    at most 1, 2 and 3 trials: raw bits, diagnostics and CSV bytes must all
    agree."""
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)

    def run(name, workers=1):
        res = run_experiment(cfg, workers=workers)
        paths = emit_csv(res, tmp_path / f"{name}.csv")
        return res, [p.read_bytes() for p in paths]

    reference, reference_csv = run("default")
    runs = [run("workers2", workers=2)]
    for chunk in (1, 2, 3):
        monkeypatch.setattr("beamlab.config.TRIAL_CHUNK", chunk)
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
        # Chunks of at most 3 split 7 trials 2/2/3, not 3/3/1.
        ("sinr_vs_snr", {"trials": 7}),
    ],
)
def test_trial_chunks_change_nothing(tmp_path, monkeypatch, experiment, overrides):
    cfg = _small(experiment, **{"trials": 5, **overrides})
    reference = _check_chunking(tmp_path, monkeypatch, cfg)
    if cfg.trials == 7:
        monkeypatch.setattr("beamlab.config.TRIAL_CHUNK", 3)
        assert list(map(len, run_layout(normalize_config(cfg), 1)[1])) == [2, 2, 3]
    if overrides is _NO_CONVERGENCE:
        assert len(reference.diagnostics["failures"]) == 5 * len(reference.x_values)


def test_point_failures_cross_chunk_boundaries(tmp_path, monkeypatch, negative_ipnc):
    # The pool's threads see the patched draw too.
    negative_ipnc({(1, 0), (2, 1), (4, 0)})
    reference = _check_chunking(tmp_path, monkeypatch, _small(trials=5))
    failed = {(rec["trial"], rec["x"]) for rec in reference.diagnostics["failures"]}
    assert failed == {(1, 0.0), (2, 10.0), (4, 0.0)}
    assert len(reference.diagnostics["failures"]) == 3 * len(reference.methods)


# SOI, then interferers at -30 and +30 degrees.
DIRECTIONS = [0.05, *np.deg2rad([-30.0, 30.0])]
POWERS = [10.0, 100.0, 100.0]


def test_snapshots_match_reference_draw_protocol():
    # The engine forms no snapshots: a point's draw is B Z, with Z the
    # complex normals of the reference stream (waveforms, then noise) and
    # B = [A, I] diag(sqrt(power / 2)) for the steering stack A of
    # _steering_grid. A is the reference steering bit for bit, and B Z
    # the reference draw.
    m, n, k, seed = 10, 13, 6, 99
    perr = np.concatenate(([0.0], np.linspace(-0.04, 0.04, m - 1)))
    pos = oracle.positions(n, perr)
    steer = _steering_grid(_element_positions(n, perr), np.sin(DIRECTIONS))
    np.testing.assert_array_equal(steer, oracle.steering(DIRECTIONS, pos))
    z = oracle.normals(len(POWERS) + n, k, seed)
    b = np.hstack((steer, np.eye(n))) * np.sqrt(np.r_[POWERS, np.ones(n)] / 2)
    expected = oracle.snapshots(DIRECTIONS, POWERS, pos, k, seed)
    np.testing.assert_allclose(b @ z, expected, rtol=0, atol=1e-12)


def test_snapshot_points_depend_only_on_their_k():
    # Each k's draw is a prefix of the trial's one stream, and its Gram
    # matrix sums blocks anchored at its own column 0, so the other
    # entries of the grid and their order leave its values alone: within
    # one Gram block, and with a largest k (1500) and a k (600) that span
    # several blocks.
    for wide_grid in ([500, 10, 50], [1500, 10, 600]):
        wide = run_experiment(_small("sinr_vs_snapshots", k_grid=wide_grid))
        narrow = run_experiment(_small("sinr_vs_snapshots", k_grid=wide_grid[1:]))
        for meth in wide.methods:
            np.testing.assert_array_equal(_bits(wide.raw[meth][1:]), _bits(narrow.raw[meth]))


@pytest.mark.parametrize(
    "ks",
    [
        # An unsorted grid with repeats: every k's Z is a fresh k draw.
        [50, 1, 8, 50, 3],
        [300, harness.GRAM_BLOCK, harness.GRAM_BLOCK + 1, 3 * harness.GRAM_BLOCK - 36],
    ],
    ids=["unsorted_repeats", "gram_blocks"],
)
def test_drawn_covariance_is_the_blocked_gram(drawn_covariances, ks):
    # A point's covariance is hermitize(B G B^H) with G = Z Z^H / k, B the
    # documented mixing matrix and Z the reference draw of k normals. Up
    # to GRAM_BLOCK columns the Gram is the single product, bit for bit.
    # Past it, the blocked sum only reorders each Gram entry's k terms.
    # Any order errs by at most gamma_(k+2) ~ (k + 2) eps / 2 times the
    # sum of the terms' moduli, (|Z| |Z|^T)_rs (Higham's bound for
    # complex inner products), so two orders differ by (k + 2) eps times
    # it. Each side's two mixing products, of n_rows terms each, add
    # (n_rows + 2) eps / 2 apiece relative to |B| |G| |B|^T. In all:
    # |dR| <= (k + 2 + 2 (n_rows + 2)) eps |B| (|Z| |Z|^T) |B|^T / k.
    config = normalize_config(_small("sinr_vs_snapshots", k_grid=ks))
    cov = drawn_covariances(config, ks, range(2, 3))
    soi, interferers, perr, seed = _draw_mismatch(config, 2)
    powers = [10.0 ** (config.snr_grid_db[0] / 10.0)]
    powers += [10.0 ** (config.inr_grid_db[0] / 10.0)] * len(interferers)
    steer = oracle.steering([soi, *interferers], oracle.positions(config.l, perr))
    b = np.hstack((steer, np.eye(config.l))) * np.sqrt(np.r_[powers, np.ones(config.l)] / 2)
    n_rows = b.shape[1]
    for got, k in zip(cov[0], ks):
        z = oracle.normals(n_rows, k, seed)
        single = hermitize(b @ (z @ z.conj().T / k) @ b.conj().T)
        if k <= harness.GRAM_BLOCK:
            np.testing.assert_array_equal(got, single)
        else:
            bound = np.abs(b) @ (np.abs(z) @ np.abs(z).T) @ np.abs(b).T / k
            eps = np.finfo(float).eps
            assert np.all(np.abs(got - single) <= (k + 2 + 2 * (n_rows + 2)) * eps * bound)


def test_scm_mvdr_sinr_loss_follows_reed_mallett_brennan():
    # Reed, Mallett and Brennan (1974): from K independent snapshots that
    # hold no SOI, with no mismatch, SCM-MVDR's normalized SINR
    # rho = SINR_scm / SINR_opt is Beta(a, b) with a = K - M + 2 and
    # b = M - 1, of mean a / (a + b) = (K - M + 2) / (K + 1) and variance
    # a b / ((a + b)^2 (a + b + 1)) = (K - M + 2)(M - 1) / ((K + 1)^2 (K + 2)).
    # Here the SOI is 1e-6 of the noise in the SCM. The trials are
    # independent, so the mean of rho over T of them has standard error
    # sqrt(variance / T). A Gram of k - 1 columns gives a mean of about
    # 0.250 at k 12, 9 standard errors below 0.308.
    m, trials = 10, 400
    ks = np.array([12, 20, 50, 1000])
    config = _small(
        "sinr_vs_snapshots", m=m, l=m, trials=trials, seed=5, snr_grid_db=[-60.0],
        k_grid=ks.tolist(), doa_mismatch_halfwidth_deg=0.0, position_error_halfwidth_wl=0.0,
        methods=["optimal", "scm_mvdr"],
    )
    result = run_experiment(config)
    rho = 10.0 ** ((result.raw["scm_mvdr"] - result.raw["optimal"]) / 10.0)
    mean = (ks - m + 2) / (ks + 1)
    se = np.sqrt((ks - m + 2) * (m - 1) / ((ks + 1) ** 2 * (ks + 2)) / trials)
    z = (rho.mean(axis=1) - mean) / se
    assert np.all(np.abs(z) <= 5), z


def test_mean_drawn_covariance_is_the_documented_covariance(drawn_covariances):
    # Without mismatch every trial draws from one covariance R =
    # sum_p power_p a_p a_p^H + I on the extended positions. An entry of
    # a sample covariance averages k terms x_i conj(x_j); for circular
    # complex Gaussian x, Isserlis gives E|x_i x_j|^2 = R_ii R_jj + |R_ij|^2,
    # so each term has variance R_ii R_jj. The mean over T independent
    # trials of k snapshots each then differs from R_ij with standard
    # deviation sqrt(R_ii R_jj / (k T)). A k above GRAM_BLOCK checks the
    # blocked Gram sum. Noise of amplitude 1 in place of sqrt(1/2) puts
    # the k 50 diagonal about 56 of these deviations off.
    trials, ks = 400, [50, 1000]
    assert ks[0] < harness.GRAM_BLOCK < ks[1]
    config = normalize_config(_small(
        "sinr_vs_snapshots", trials=trials, k_grid=ks,
        doa_mismatch_halfwidth_deg=0.0, position_error_halfwidth_wl=0.0,
    ))
    cov = drawn_covariances(config, ks, range(trials))
    directions = np.deg2rad([config.presumed_soi_deg, *config.interferers_deg])
    db = [config.snr_grid_db[0]] + [config.inr_grid_db[0]] * len(config.interferers_deg)
    powers = 10.0 ** (np.array(db) / 10.0)
    r = oracle.covariance(directions, powers, oracle.positions(config.l))
    diag = r.diagonal().real
    for k, mean in zip(ks, cov.mean(axis=0)):
        sd = np.sqrt(np.outer(diag, diag) / (k * trials))
        assert np.all(np.abs(mean - r) <= 5 * sd), np.abs(mean - r).max() / sd.min()


def _chunk_points(n_trials=3):
    """A chunk's stacked points and method context, as the engine builds them."""
    cfg = normalize_config(_small(snr_grid_db=[0.0, 10.0, 20.0]))
    projection, *_ = harness._resolve_lcssp(cfg)
    x_values = np.asarray(cfg.snr_grid_db)
    points = harness._draw_points(cfg, x_values, range(n_trials), len(projection), projection)
    context = (
        steering_vector(0.0, cfg.m),
        _sector_complement(0.0, np.deg2rad(cfg.sector_halfwidth_deg)),
    )
    return points, context


def _assert_batch_of_one(method, points, context, w, sinr, failed):
    for index in np.ndindex(points.shape):
        if index in failed:
            assert np.isnan(sinr[index])
            continue
        w_i, sinr_i, errors_i = harness._point_values(method, points[index], *context)
        assert errors_i == {}
        np.testing.assert_array_equal(w_i[0, 0], w[index])
        assert _bits(sinr_i[0, 0]) == _bits(sinr[index])


def _expanded(points, field):
    """``points`` with its ``field`` array given one copy per (trial, x) point."""
    array = getattr(points, field)
    full = np.broadcast_to(array, (*points.shape, *array.shape[2:])).copy()
    return dataclasses.replace(points, **{field: full})


def test_failing_points_do_not_touch_the_rest_of_the_stack():
    points, context = _chunk_points()
    points = _expanded(_expanded(points, "ipnc"), "soi_power")
    # Point (1, 1): a zero SCM and LCSSP IPNC that loading cannot fix;
    # point (0, 2): a negative definite true IPNC, so every method's output
    # power is negative; point (2, 0): zero SOI power, an output SINR of
    # -inf dB.
    points.scm[1, 1] = 0.0
    points.lcssp[1, 1] = 0.0
    points.ipnc[0, 2] = -np.eye(points.ipnc.shape[-1])
    points.soi_power[2, 0] = 0.0
    for method in METHOD_NAMES:
        w, sinr, errors = harness._point_values(method, points, *context)
        expected = {
            (0, 2): "LinAlgError: nonpositive",
            (2, 0): "LinAlgError: non-finite output SINR -inf",
        }
        if method != "optimal":
            expected[1, 1] = "SingularCovarianceError: covariance condition number"
        assert sorted(errors) == sorted(expected), method
        for index, prefix in expected.items():
            assert errors[index].startswith(prefix), (method, errors[index])
        assert np.isfinite(sinr).sum() == sinr.size - len(expected)
        _assert_batch_of_one(method, points, context, w, sinr, errors)


@pytest.mark.parametrize(
    ("m", "l", "k_grid"), [(128, 128, [1, 50]), (100, 110, [1, 5])], ids=["m128", "m100"]
)
def test_single_snapshot_points_fail_on_their_own_at_a_large_aperture(m, l, k_grid):
    # No patching: at these apertures a one-snapshot SCM, and the IPNC
    # LCSSP reconstructs from it, stay singular after loading. Only those
    # points fail, and the other points of the same stacks keep their bits.
    cfg = _small(
        "sinr_vs_snapshots",
        m=m,
        l=l,
        k_grid=k_grid,
        trials=2,
        methods=["optimal", "scm_mvdr", "lcssp"],
    )
    res = run_experiment(cfg)
    failures = res.diagnostics["failures"]
    expected = {(meth, t, 1.0) for meth in ("scm_mvdr", "lcssp") for t in range(2)}
    assert {(rec["method"], rec["trial"], rec["x"]) for rec in failures} == expected
    assert len(failures) == len(expected)
    prefix = "SingularCovarianceError: covariance condition number "
    for rec in failures:
        assert rec["error"].startswith(prefix), rec["error"]
        assert rec["error"].endswith(" exceeds 1e+12 after loading"), rec["error"]
        # A rank-one covariance loaded by LOADING_FLOOR * trace / m has a
        # condition number of about m / LOADING_FLOOR (1.281e+12 at m 128,
        # just above the limit at m 100); its last digits follow the
        # rounding of the zero eigenvalues. The text shows enough of them
        # to read as above the limit.
        cond = float(rec["error"][len(prefix) :].split()[0])
        assert cond == pytest.approx(cfg.m / LOADING_FLOOR, rel=1e-2)
        assert cond > COND_LIMIT, rec["error"]
    assert res.n_ok["optimal"].tolist() == [2, 2]
    cfg.k_grid = k_grid[1:]
    alone = run_experiment(cfg)
    for meth in res.methods:
        np.testing.assert_array_equal(_bits(res.raw[meth][1:]), _bits(alone.raw[meth]))


def test_batch_level_linalg_error_loses_only_its_point(monkeypatch):
    points, context = _chunk_points()
    # The only IPNC with this diagonal: trial 0's, which its three points
    # share, so the optimal weights solve it once for all of them.
    assert points.ipnc.shape[:2] == (3, 1)
    points.ipnc[0] *= 2.0
    clean = harness._point_values("optimal", points, *context)
    poison = points.ipnc[0, 0, 0, 0]
    real_solve = np.linalg.solve

    def flaky_solve(a, b):
        if np.any(a[..., 0, 0] == poison):
            raise np.linalg.LinAlgError("simulated LAPACK failure")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky_solve)
    w, sinr, errors = harness._point_values("optimal", points, *context)
    failed = [(0, ix) for ix in range(3)]
    assert errors == dict.fromkeys(failed, "LinAlgError: simulated LAPACK failure")
    assert np.isnan(sinr[0]).all()
    np.testing.assert_array_equal(w[1:], clean[0][1:])
    np.testing.assert_array_equal(_bits(sinr[1:]), _bits(clean[1][1:]))


@pytest.mark.parametrize("workers", [1, 2])
def test_other_errors_in_a_method_stop_the_run(monkeypatch, workers):
    # Only a LinAlgError fails a point. A ValueError from a bug, here a
    # broadcasting one inside LCSSP, is not filed as a failure of every
    # lcssp point: it propagates out of the run, from a worker thread too.
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(harness, "lcssp_weights", broken)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    with pytest.raises(ValueError, match="operands could not be broadcast") as info:
        run_experiment(_small(), workers=workers)
    assert type(info.value) is ValueError
