"""Command line behavior: exit codes, file outputs, plot script."""

import ast
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from beamlab import cli
from beamlab.cli import main
from beamlab.config import (
    EXPERIMENTS,
    MAX_DIMENSION,
    MAX_POWER_DB,
    MEMORY_BUDGET,
    METHOD_NAMES,
)


def _run_args(tmp_path, *extra):
    return [
        "run",
        "--experiment",
        "sinr_vs_snr",
        "--trials",
        "2",
        "--out",
        str(tmp_path),
        *extra,
    ]


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "sinr_vs_snr",
                "trials": 2,
                "snr_grid_db": [0.0, 10.0],
                "methods": ["optimal", "scm_mvdr", "lcssp"],
            }
        )
    )
    return path


def test_run_success_writes_csv_pair(tmp_path, small_config, capsys):
    code = main(["run", "--config", str(small_config), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sinr_vs_snr.csv" in out
    with open(tmp_path / "sinr_vs_snr.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 3
    assert {r["method"] for r in rows} == {"optimal", "scm_mvdr", "lcssp"}
    assert all(r["n_ok"] == "2" for r in rows)
    assert (tmp_path / "sinr_vs_snr_raw.csv").exists()


def test_run_unknown_experiment_is_config_error(tmp_path, capsys):
    code = main(["run", "--experiment", "nosuch", "--out", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_run_bad_field_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "sinr_vs_snr", "trials": 0}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "trials" in capsys.readouterr().err


def test_run_reports_failed_trials(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "sinr_vs_snr",
                "trials": 2,
                "snr_grid_db": [10.0],
                "interferers_deg": [7.0, 30.0],
                "delta": 0.01,
                "l": "auto",
                "methods": ["optimal", "lcssp"],
            }
        )
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "failed" in err
    body = (tmp_path / "sinr_vs_snr.csv").read_text()
    assert ",nan," in body


@pytest.mark.parametrize(
    "field, value",
    [
        ("sector_halfwidth_deg", 95),
        ("position_error_halfwidth_wl", 0.3),
        ("presumed_soi_deg", float("nan")),
        ("snr_grid_db", [float("nan")]),
        ("snr_grid_db", [float("inf")]),
        ("methods", 5),
        ("methods", None),
        ("k_grid", 5),
        ("snr_grid_db", [-4000]),
        ("inr_grid_db", [400]),
        ("experiment", ["sinr_vs_snr"]),
        ("k_grid", []),
        ("sector_halfwidth_deg", -1.0),
        ("doa_mismatch_halfwidth_deg", -1.0),
    ],
)
def test_run_unrunnable_config_is_config_error(tmp_path, capsys, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "sinr_vs_snr", "trials": 2, field: value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not out.exists()


def test_run_warns_when_points_beat_the_optimal_bound(tmp_path, capsys, monkeypatch):
    # A violation is a warning, not a failure: the run still exits 0.
    run = cli.run_experiment

    def violating(config, workers=1):
        result = run(config, workers=workers)
        result.diagnostics["dominance_violations"] = 3
        return result

    monkeypatch.setattr(cli, "run_experiment", violating)
    assert main(_run_args(tmp_path)) == 0
    assert "warning: 3 points beat the optimal bound\n" in capsys.readouterr().err


def test_run_raw_period_over_the_limit_is_config_error(tmp_path, capsys, monkeypatch):
    # One x value and one method at more trials than the memory budget
    # holds raw row templates for, about 100 B each: the raw table, 8 B a
    # trial, would fit, its writer's templates would not. Should the check
    # let it through, the test fails before the run.
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("the run started"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "sinr_vs_snapshots", "k_grid": [20]}))
    out = tmp_path / "out"
    trials = str(MEMORY_BUDGET // 100 + 1)
    argv = ["run", "--config", str(cfg), "--methods", "optimal", "--trials", trials]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the run needs about ")
    assert "memory budget; most of it is the raw row templates (trials, methods)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "abc", "trials must be an integer, got 'abc'"),
        ("--seed", "abc", "seed must be an integer, got 'abc'"),
        ("--fix-l", "abc", "l must be an integer, got 'abc'"),
        ("--fix-l", "auto", "l must be an integer, got 'auto'"),
        ("--workers", "abc", "--workers must be an integer, got 'abc'"),
        ("--workers", "0", "--workers must be at least 1, got 0"),
    ],
)
def test_bad_numeric_flag_is_config_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["run", "--experiment", "sinr_vs_snr", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, sub",
    [
        pytest.param("run", None, id="None"),
        pytest.param("run", "sub", id="sub"),
        pytest.param("plot-script", None, id="plot-script-None"),
        pytest.param("plot-script", "sub", id="plot-script-sub"),
    ],
)
def test_unusable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, command, sub):
    def never(*args, **kwargs):
        raise AssertionError("run_experiment must not start")

    monkeypatch.setattr(cli, "run_experiment", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if sub is None else blocker / sub
    args = _run_args(out) if command == "run" else ["plot-script", "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}:")
    assert "Traceback" not in err


def test_csv_write_error_exits_one_without_traceback(tmp_path, capsys, monkeypatch):
    def failing(result, path):
        raise OSError(f"writing results to {path}: disk full")

    monkeypatch.setattr(cli, "emit_csv", failing)
    assert main(_run_args(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"writing results to {tmp_path / 'sinr_vs_snr.csv'}: disk full\n"


def test_plot_script_write_error_exits_one_without_traceback(tmp_path, capsys):
    target = tmp_path / "plot_results.py"
    target.mkdir()
    assert main(["plot-script", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"writing plot script to {target}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_run_survives_output_sinr_failure(tmp_path, capsys, negative_ipnc):
    negative_ipnc({(1, 0)})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "sinr_vs_snr", "trials": 2, "snr_grid_db": [10.0]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "nonpositive interference-plus-noise power" in capsys.readouterr().err
    with open(tmp_path / "sinr_vs_snr.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 and all(row["n_ok"] == "1" for row in rows)
    with open(tmp_path / "sinr_vs_snr_raw.csv", newline="") as fh:
        raw = list(csv.DictReader(fh))
    assert all((row["sinr_db"] == "nan") == (row["trial"] == "1") for row in raw)


def test_cli_overrides_take_precedence(tmp_path, small_config):
    code = main(
        [
            "run",
            "--config",
            str(small_config),
            "--out",
            str(tmp_path),
            "--methods",
            "optimal,scm_mvdr",
            "--seed",
            "7",
            "--fix-l",
            "12",
        ]
    )
    assert code == 0
    with open(tmp_path / "sinr_vs_snr.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"optimal", "scm_mvdr"}


def test_fix_and_auto_dimension_are_exclusive(tmp_path):
    with pytest.raises(SystemExit):
        main(_run_args(tmp_path, "--fix-l", "12", "--auto-l"))


def test_auto_dimension_flag(tmp_path, capsys):
    code = main(_run_args(tmp_path, "--auto-l", "--methods", "optimal,lcssp"))
    assert code == 0
    assert "dimension 12" in capsys.readouterr().out


def test_workers_flag_gives_identical_output(tmp_path, small_config):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(["run", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(
        ["run", "--config", str(small_config), "--out", str(out2), "--workers", "2"]
    ) == 0
    assert (out1 / "sinr_vs_snr.csv").read_bytes() == (out2 / "sinr_vs_snr.csv").read_bytes()
    assert (
        out1 / "sinr_vs_snr_raw.csv"
    ).read_bytes() == (out2 / "sinr_vs_snr_raw.csv").read_bytes()


def test_plot_script_emitted_and_parses(tmp_path):
    assert main(["plot-script", "--out", str(tmp_path)]) == 0
    script = tmp_path / "plot_results.py"
    text = script.read_text()
    ast.parse(text)
    assert "matplotlib" in text
    assert "csv" in text


def test_plot_script_renders_png(tmp_path, small_config):
    # The script runs under this interpreter and imports matplotlib, which
    # is not a package dependency.
    pytest.importorskip("matplotlib")
    assert main(["run", "--config", str(small_config), "--out", str(tmp_path)]) == 0
    assert main(["plot-script", "--out", str(tmp_path)]) == 0
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "plot_results.py"), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sinr_vs_snr.png").exists()


_STUB_PYPLOT = """
import json


class Axes:
    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.calls.append([name, *args])


class Figure:
    def __init__(self):
        self.axes = Axes()

    def tight_layout(self):
        pass

    def savefig(self, path, **kwargs):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.axes.calls, fh)


def subplots(**kwargs):
    fig = Figure()
    return fig, fig.axes


def close(fig):
    pass
"""


def test_plot_script_runs_on_a_stub_matplotlib(tmp_path):
    # Where matplotlib is not installed, a stub package first on the
    # PYTHONPATH stands in for it: savefig writes the axes calls of its
    # figure as JSON to the path it is given. That covers the script's
    # choice of files, its axes and its exit codes, not the rendering.
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("def use(backend):\n    pass\n", encoding="utf-8")
    (stub / "pyplot.py").write_text(_STUB_PYPLOT, encoding="utf-8")
    out, empty = tmp_path / "out", tmp_path / "empty"
    empty.mkdir()
    assert main(["plot-script", "--out", str(out)]) == 0
    for experiment, grid in (("sinr_vs_snr", "snr_grid_db"), ("sinr_vs_snapshots", "k_grid")):
        cfg = tmp_path / f"{experiment}.json"
        document = {"experiment": experiment, "trials": 2, grid: [20, 50], "methods": ["optimal"]}
        cfg.write_text(json.dumps(document), encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "notes.csv").write_text("a,b\n1,2\n", encoding="utf-8")

    def plot(directory):
        return subprocess.run(
            [sys.executable, str(out / "plot_results.py"), str(directory)],
            env={**os.environ, "PYTHONPATH": str(stub.parent)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    proc = plot(out)
    assert proc.returncode == 0, proc.stderr
    assert f"skipping {out / 'notes.csv'}: not a result file" in proc.stdout
    pngs = sorted(path.name for path in out.glob("*.png"))
    assert pngs == ["sinr_vs_snapshots.png", "sinr_vs_snr.png"]
    calls = {name: json.loads((out / name).read_text(encoding="utf-8")) for name in pngs}
    assert ["set_xscale", "log"] in calls["sinr_vs_snapshots.png"]
    assert not any(call[0] == "set_xscale" for call in calls["sinr_vs_snr.png"])
    assert ["set_title", "sinr_vs_snr"] in calls["sinr_vs_snr.png"]
    proc = plot(empty)
    assert proc.returncode == 1
    assert f"no result CSVs found in {empty}" in proc.stdout


# What a config file can hold in place of a valid value: nulls, booleans,
# non-numeric text, non-finite numbers, nested lists and objects.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(alphabet="xyz ", max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.lists(st.lists(st.integers(-2, 2), max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.text(alphabet="xyz", max_size=2), st.integers(-2, 2), max_size=1),
)


_POWERS = st.lists(st.floats(-30.0, MAX_POWER_DB), min_size=1, max_size=2)
_BAD_POWERS = [
    [],
    [MAX_POWER_DB + 1.0],
    [-4000.0],
    [1e308],
    # Over the memory budget at every dimension on the experiment that
    # sweeps the grid; every other experiment reads the first entry only.
    [0.0] * 60_000,
    [0.0] * 100_000,
]

# Per field: small valid values, and out-of-range ones. Every valid value
# keeps a run small.
_FIELDS = {
    "experiment": (st.sampled_from(sorted(EXPERIMENTS)), ["spectrogram", ""]),
    "trials": (st.integers(1, 2), [0, -1, 1.5, 10**12]),
    "m": (st.integers(2, 6), [0, 1, -5, 2.5, MAX_DIMENSION + 1, 10**7]),
    "l": (st.just("auto") | st.integers(2, 14), [0, 1, "auto ", 2.5, MAX_DIMENSION + 1, 10**9]),
    "snr_grid_db": (_POWERS, _BAD_POWERS),
    "inr_grid_db": (_POWERS, _BAD_POWERS),
    "k_grid": (
        st.lists(st.integers(1, 60), min_size=1, max_size=2),
        [
            [],
            [0],
            [-1],
            [2.5],
            # Every experiment draws k_grid[0], and at k 10^7 the stream
            # of even 1 + 1 + 2 rows is over the memory budget.
            [10**7],
            [10**15],
            # Over the budget for the snapshot sweep alone.
            [1, 10**7],
            [10] * 100_000,
        ],
    ),
    "presumed_soi_deg": (st.floats(-60.0, 60.0), [90.0, -95.0, 1e300]),
    "interferers_deg": (
        st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=2),
        # 6000 interferers make a Gram matrix over the memory budget.
        [[], [90.0], [-1e300], [40.0] * 6000, [40.0] * 100_000],
    ),
    "sector_halfwidth_deg": (st.floats(0.0, 30.0), [-1.0, 1e9]),
    "doa_mismatch_halfwidth_deg": (st.floats(0.0, 10.0), [-1.0, 1e9]),
    "position_error_halfwidth_wl": (st.floats(0.0, 0.25), [-0.1, 0.3]),
    "delta": (st.floats(0.01, 1.0), [0.0, -1.0, 1.5]),
    "seed": (st.integers(0, 2**32 - 1), [-1, 2.5]),
    "methods": (
        st.lists(st.sampled_from(METHOD_NAMES), min_size=1, max_size=5, unique=True),
        [[], ["fft"], ["optimal", "optimal"], "optimal"],
    ),
}
# Always present, since a missing count means 100 trials.
_REQUIRED = ("experiment", "trials")


def _config_files(value):
    """Config objects whose fields take values from ``value(valid, out_of_range)``."""
    fields = {name: value(*choices) for name, choices in _FIELDS.items()}
    required = {name: fields.pop(name) for name in _REQUIRED}
    return st.fixed_dictionaries(required, optional=fields)


_VALID_FILES = _config_files(lambda valid, _: valid)


@st.composite
def _one_bad_field(draw):
    """A valid config file with one field out of range or of the wrong type."""
    document = draw(_VALID_FILES)
    name = draw(st.sampled_from(sorted(_FIELDS)))
    document[name] = draw(st.sampled_from(_FIELDS[name][1]) | _JUNK)
    return document


_CONFIG_FILES = st.one_of(
    _VALID_FILES,
    _one_bad_field(),
    _VALID_FILES.map(lambda document: {**document, "unknown_field": 1}),
    _config_files(lambda valid, bad: st.one_of(valid, st.sampled_from(bad), _JUNK)),
    _JUNK,
)


@settings(max_examples=100, deadline=None)
@given(document=_CONFIG_FILES)
# A snapshot count that used to pass the checks and then crash the run.
@example({"experiment": "sinr_vs_snr", "trials": 1, "k_grid": [10**15]})
# A dimension search that fails: every lcssp point fails, exit code 2.
@example(
    {
        "experiment": "sinr_vs_snr",
        "trials": 1,
        "interferers_deg": [7.0, 30.0],
        "delta": 0.01,
        "l": "auto",
        "methods": ["optimal", "lcssp"],
    }
)
def test_every_config_file_exits_with_a_documented_code(document):
    # Whatever a config file holds, ``beamlab run`` ends with exit code 0,
    # 1 (config error) or 2 (failed trial points) and raises nothing.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
    event(f"exit code {code}")
    assert code in (0, 1, 2)
