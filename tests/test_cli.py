"""Command line behavior: exit codes, file outputs, plot script."""

import ast
import csv
import json
import subprocess
import sys

import pytest

from beamlab import cli
from beamlab.cli import main


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--trials", "abc", "trials must be an integer, got 'abc'"),
        ("--seed", "abc", "seed must be an integer, got 'abc'"),
        ("--fix-l", "abc", "l must be an integer, got 'abc'"),
        ("--workers", "abc", "--workers must be an integer, got 'abc'"),
        ("--workers", "0", "--workers must be at least 1, got 0"),
    ],
)
def test_bad_numeric_flag_is_config_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    assert main(["run", "--experiment", "sinr_vs_snr", "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", [None, "sub"])
def test_unusable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, sub):
    def never(*args, **kwargs):
        raise AssertionError("run_experiment must not start")

    monkeypatch.setattr(cli, "run_experiment", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if sub is None else blocker / sub
    assert main(_run_args(out)) == 1
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
