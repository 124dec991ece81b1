"""Monte Carlo experiment harness: configs, sweeps, CSV emission.

Four experiments share one result schema:

* ``beampattern``: normalized gain curves at fixed SNR/INR, x = angle.
* ``sinr_vs_snr``: mean output SINR over an SNR grid.
* ``sinr_vs_snapshots``: mean output SINR over a snapshot-count grid.
* ``sinr_vs_inr``: mean output SINR over an INR grid.

Mismatch protocol per trial: the look direction gets a uniform offset,
the SNR and snapshot sweeps also perturb the interferer directions and
sensor positions, while the INR sweep keeps interferer geometry nominal
(perturbed interferer steering vectors bound the achievable null depth,
which would couple the deviation to interference power). The beampattern
experiment draws nothing by default.

A quantity not swept by the selected experiment takes the first element
of its grid field; the snapshot count for non-K sweeps is the scalar
``k``. Trial t derives both its mismatch and snapshot RNG streams from
the master seed by counter, so runs are reproducible and trials can
execute in parallel in any order.
"""

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .array_model import (
    MAX_POSITION_ERROR_WL,
    ArrayGeometry,
    Scenario,
    generate_snapshots,
    steering_vector,
)
from .baselines import (
    SingularCovarianceError,
    capon_integral_weights,
    diagonal_loading_weights,
    optimal_weights,
    scm_mvdr_weights,
)
from .covariance import sample_covariance, true_ipnc
from .lcssp import (
    LcsspConfig,
    NoConvergenceError,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
)
from .metrics import beampattern, beampattern_grid_deg, default_beampattern_grid, output_sinr

EXPERIMENTS = ("beampattern", "sinr_vs_snr", "sinr_vs_snapshots", "sinr_vs_inr")
METHOD_NAMES = ("optimal", "scm_mvdr", "diagonal_loading", "capon_integral", "lcssp")
DOMINANCE_TOL_DB = 1e-6
CAPON_SAMPLES = 200

_TRIAL_ERRORS = (SingularCovarianceError, NoConvergenceError, np.linalg.LinAlgError)
# Experiments whose trials draw interferer direction offsets.
_PERTURBS_INTERFERERS = ("sinr_vs_snr", "sinr_vs_snapshots")


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on; JSON-serializable fields."""

    experiment: str
    m: int
    l: object  # extended dimension (int) or "auto"
    k: int
    trials: int
    snr_grid_db: list
    inr_grid_db: list
    k_grid: list
    presumed_soi_deg: float
    interferers_deg: list
    sector_halfwidth_deg: float
    doa_mismatch_halfwidth_deg: float
    position_error_halfwidth_wl: float
    delta: float
    seed: int
    methods: list


_COMMON_DEFAULTS = {
    "m": 10,
    "l": 20,
    "k": 50,
    "presumed_soi_deg": 0.0,
    "interferers_deg": [-30.0, 30.0],
    "sector_halfwidth_deg": 6.0,
    "delta": 0.05,
    "seed": 123,
    "methods": list(METHOD_NAMES),
}

_EXPERIMENT_DEFAULTS = {
    "beampattern": {
        "trials": 1,
        "snr_grid_db": [10.0],
        "inr_grid_db": [30.0],
        "k_grid": [50],
        "doa_mismatch_halfwidth_deg": 0.0,
        "position_error_halfwidth_wl": 0.0,
    },
    "sinr_vs_snr": {
        "trials": 100,
        "snr_grid_db": [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        "inr_grid_db": [10.0],
        "k_grid": [50],
        "doa_mismatch_halfwidth_deg": 6.0,
        "position_error_halfwidth_wl": 0.05,
    },
    "sinr_vs_snapshots": {
        "trials": 100,
        "snr_grid_db": [10.0],
        "inr_grid_db": [10.0],
        "k_grid": [10, 20, 30, 50, 100, 200, 500],
        "doa_mismatch_halfwidth_deg": 6.0,
        "position_error_halfwidth_wl": 0.05,
    },
    "sinr_vs_inr": {
        "trials": 100,
        "snr_grid_db": [10.0],
        "inr_grid_db": [0.0, 10.0, 20.0, 30.0, 40.0, 50.0],
        "k_grid": [50],
        "doa_mismatch_halfwidth_deg": 6.0,
        "position_error_halfwidth_wl": 0.0,
    },
}

_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def default_config(experiment):
    """Defaults for one experiment; each follows its own protocol."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_EXPERIMENT_DEFAULTS[experiment])
    merged["interferers_deg"] = list(merged["interferers_deg"])
    merged["methods"] = list(merged["methods"])
    for key in ("snr_grid_db", "inr_grid_db", "k_grid"):
        merged[key] = list(merged[key])
    return ExperimentConfig(experiment=experiment, **merged)


def _apply_fields(config, mapping, source):
    for key, value in mapping.items():
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config field {key!r} in {source}")
        setattr(config, key, value)


def load_config(path=None, overrides=None):
    """Build a validated config from defaults, a JSON file, CLI overrides.

    Precedence, lowest to highest: per-experiment defaults, file fields,
    overrides. The experiment name itself resolves overrides-first so its
    defaults are the base.
    """
    overrides = dict(overrides or {})
    file_fields = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        if not isinstance(file_fields, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    experiment = overrides.get("experiment", file_fields.get("experiment"))
    if experiment is None:
        raise ConfigError("no experiment selected; pass --experiment or a config file naming one")
    config = default_config(experiment)
    _apply_fields(config, file_fields, f"config file {path}")
    _apply_fields(config, overrides, "command line overrides")
    config.experiment = experiment
    return normalize_config(config)


def _as_int(value, name, minimum=None):
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from err
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {out}")
    return out


def _as_float(value, name):
    try:
        out = float(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be a number, got {value!r}") from err
    if not np.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def _as_list(value, name):
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return list(value)


def _as_float_list(value, name):
    items = _as_list(value, name)
    try:
        out = [float(v) for v in items]
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from err
    if not out:
        raise ConfigError(f"{name} must be nonempty")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} entries must be finite, got {value!r}")
    return out


def normalize_config(config):
    """Validate and canonicalize field types; raises ConfigError."""
    if config.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {config.experiment!r}; choose from {EXPERIMENTS}"
        )
    out = default_config(config.experiment)
    out.m = _as_int(config.m, "m", minimum=2)
    if config.l == "auto":
        out.l = "auto"
    else:
        out.l = _as_int(config.l, "l", minimum=out.m)
    out.k = _as_int(config.k, "k", minimum=1)
    out.trials = _as_int(config.trials, "trials", minimum=1)
    out.snr_grid_db = _as_float_list(config.snr_grid_db, "snr_grid_db")
    out.inr_grid_db = _as_float_list(config.inr_grid_db, "inr_grid_db")
    for name in ("snr_grid_db", "inr_grid_db"):
        try:
            10.0 ** (max(getattr(out, name)) / 10.0)
        except OverflowError as err:
            raise ConfigError(f"{name} entries overflow as linear powers") from err
    out.k_grid = [_as_int(v, "k_grid entry", minimum=1) for v in _as_list(config.k_grid, "k_grid")]
    if not out.k_grid:
        raise ConfigError("k_grid must be nonempty")
    out.presumed_soi_deg = _as_float(config.presumed_soi_deg, "presumed_soi_deg")
    out.interferers_deg = _as_float_list(config.interferers_deg, "interferers_deg")
    out.sector_halfwidth_deg = _as_float(config.sector_halfwidth_deg, "sector_halfwidth_deg")
    out.doa_mismatch_halfwidth_deg = _as_float(
        config.doa_mismatch_halfwidth_deg, "doa_mismatch_halfwidth_deg"
    )
    out.position_error_halfwidth_wl = _as_float(
        config.position_error_halfwidth_wl, "position_error_halfwidth_wl"
    )
    for name in ("sector_halfwidth_deg", "doa_mismatch_halfwidth_deg", "position_error_halfwidth_wl"):
        if getattr(out, name) < 0:
            raise ConfigError(f"{name} must be nonnegative")
    if out.position_error_halfwidth_wl > MAX_POSITION_ERROR_WL:
        raise ConfigError(
            f"position_error_halfwidth_wl must be at most {MAX_POSITION_ERROR_WL} wavelengths"
        )
    out.delta = _as_float(config.delta, "delta")
    if not 0 < out.delta <= 1:
        raise ConfigError("delta must lie in (0, 1]")
    out.seed = _as_int(config.seed, "seed", minimum=0)
    methods = _as_list(config.methods, "methods")
    if not methods:
        raise ConfigError("methods must be nonempty")
    seen = set()
    for meth in methods:
        if meth not in METHOD_NAMES:
            raise ConfigError(f"unknown method {meth!r}; choose from {METHOD_NAMES}")
        if meth in seen:
            raise ConfigError(f"duplicate method {meth!r}")
        seen.add(meth)
    out.methods = methods
    angles = [out.presumed_soi_deg, *out.interferers_deg]
    if any(abs(a) >= 90 for a in angles):
        raise ConfigError("directions must lie strictly inside (-90, 90) degrees")
    perturbed = angles if out.experiment in _PERTURBS_INTERFERERS else angles[:1]
    if any(abs(a) + out.doa_mismatch_halfwidth_deg >= 90 for a in perturbed):
        raise ConfigError(
            "directions plus doa_mismatch_halfwidth_deg must stay strictly inside (-90, 90) degrees"
        )
    try:
        _sector_complement(np.deg2rad(out.presumed_soi_deg), np.deg2rad(out.sector_halfwidth_deg))
    except ValueError as err:
        raise ConfigError(f"sector_halfwidth_deg too large: {err}") from err
    return out


@dataclass
class SweepResult:
    """Aggregated Monte Carlo output for one experiment.

    ``raw[method]`` is an (n_x, trials) array of per-trial values with nan
    marking failures; means and stds are computed from it over the finite
    entries, so they stay consistent by construction.
    """

    x_label: str
    x_values: np.ndarray
    methods: list
    raw: dict
    mean_sinr_db: dict
    std_db: dict
    n_ok: dict
    diagnostics: dict
    config: ExperimentConfig


def _aggregate(x_label, x_values, methods, raw, diagnostics, config):
    mean, std, n_ok = {}, {}, {}
    for meth in methods:
        a = raw[meth]
        mask = np.isfinite(a)
        counts = mask.sum(axis=1)
        safe = np.where(mask, a, 0.0)
        denom = np.maximum(counts, 1)
        mu = safe.sum(axis=1) / denom
        var = np.where(mask, (a - mu[:, None]) ** 2, 0.0).sum(axis=1) / denom
        mean[meth] = np.where(counts > 0, mu, np.nan)
        std[meth] = np.where(counts > 0, np.sqrt(var), np.nan)
        n_ok[meth] = counts
    return SweepResult(
        x_label=x_label,
        x_values=np.asarray(x_values, dtype=float),
        methods=list(methods),
        raw=raw,
        mean_sinr_db=mean,
        std_db=std,
        n_ok=n_ok,
        diagnostics=diagnostics,
        config=config,
    )


def _sector_complement(center, halfwidth):
    half = np.pi / 2
    intervals = []
    if center - halfwidth > -half:
        intervals.append((-half, center - halfwidth))
    if center + halfwidth < half:
        intervals.append((center + halfwidth, half))
    if not intervals:
        raise ValueError("look sector covers the whole field of view")
    return intervals


def _resolve_lcssp(config):
    """Projector and its error are config-deterministic; build them once.

    Returns (projection, epsilon_n, error text). The projection is None
    when lcssp is not among the methods or its dimension search fails.
    """
    if "lcssp" not in config.methods:
        return None, None, None
    fixed = None if config.l == "auto" else config.l
    settings = LcsspConfig(
        presumed_soi=np.deg2rad(config.presumed_soi_deg),
        soi_sector_halfwidth=np.deg2rad(config.sector_halfwidth_deg),
        nominal_interferers=np.deg2rad(config.interferers_deg),
        delta=config.delta,
        l_initial=config.m,
        l_max=max(8 * config.m, fixed or 0),
        fixed_l=fixed,
    )
    try:
        _, projection = select_dimension(settings)
        return projection, normalized_error(projection, settings.nominal_interferers), None
    except (NoConvergenceError, ValueError) as err:
        return None, None, f"{type(err).__name__}: {err}"


def _draw_mismatch(config, trial):
    """Per-trial true directions, position errors, and snapshot seed.

    One RNG stream (seed, trial, 0) drives the mismatch draws in a fixed
    order: look-direction offset, interferer offsets (SNR and snapshot
    sweeps only), then M-1 position errors with element 0 anchored at 0.
    The snapshot seed comes from the separate stream (seed, trial, 1) and
    is shared by every x on the grid, so sweep points see common random
    numbers.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial, 0]))
    soi_nominal = np.deg2rad(config.presumed_soi_deg)
    int_nominal = np.deg2rad(np.asarray(config.interferers_deg, dtype=float))
    hw_doa = np.deg2rad(config.doa_mismatch_halfwidth_deg)
    hw_pos = config.position_error_halfwidth_wl
    soi_true = soi_nominal + rng.uniform(-hw_doa, hw_doa) if hw_doa > 0 else soi_nominal
    if config.experiment in _PERTURBS_INTERFERERS and hw_doa > 0:
        int_true = np.array([th + rng.uniform(-hw_doa, hw_doa) for th in int_nominal])
    else:
        int_true = int_nominal.copy()
    if hw_pos > 0:
        perr = np.concatenate(([0.0], rng.uniform(-hw_pos, hw_pos, config.m - 1)))
    else:
        perr = np.zeros(config.m)
    snap_seed = int(
        np.random.SeedSequence([config.seed, trial, 1]).generate_state(1, np.uint64)[0]
    )
    return soi_true, int_true, perr, snap_seed


def _resolve_point(config, x):
    """(snr_db, inr_db, k) for one grid value of the selected sweep."""
    if config.experiment == "sinr_vs_snr":
        return float(x), config.inr_grid_db[0], config.k
    if config.experiment == "sinr_vs_snapshots":
        return config.snr_grid_db[0], config.inr_grid_db[0], int(x)
    if config.experiment == "sinr_vs_inr":
        return config.snr_grid_db[0], float(x), config.k
    return config.snr_grid_db[0], config.inr_grid_db[0], config.k


def _method_weights(method, scm, presumed, complement, ipnc_true, tsv, snapshots, projection):
    if method == "optimal":
        return optimal_weights(ipnc_true, tsv)
    if method == "scm_mvdr":
        return scm_mvdr_weights(scm, presumed)
    if method == "diagonal_loading":
        return diagonal_loading_weights(scm, presumed)
    if method == "capon_integral":
        return capon_integral_weights(scm, presumed, complement, CAPON_SAMPLES)
    reconstructed = reconstruct_ipnc(projection, sample_covariance(snapshots), scm.shape[0])
    return lcssp_weights(reconstructed, presumed)


def _failure(trial, x, method, error):
    return {"trial": trial, "x": float(x), "method": method, "error": error}


def _run_trial(task):
    """One Monte Carlo trial across the whole x grid.

    Returns (trial, values per method, failures, dominance violations).
    Values are output SINRs, one per grid point; for the beampattern
    experiment they are the gain curves of the single operating point
    instead, one per beampattern angle. Top-level so process pools can
    pick it up.
    """
    config, x_values, projection, lcssp_error, trial = task
    soi_true, int_true, perr, snap_seed = _draw_mismatch(config, trial)
    geometry = ArrayGeometry(config.m, perr)
    soi_nominal = np.deg2rad(config.presumed_soi_deg)
    int_nominal = np.deg2rad(np.asarray(config.interferers_deg, dtype=float))
    presumed = steering_vector(soi_nominal, config.m)
    complement = _sector_complement(soi_nominal, np.deg2rad(config.sector_halfwidth_deg))
    n_interferers = len(int_nominal)
    # Snapshots always come from the extended aperture when one is
    # resolvable, so shared methods see identical data whether or not the
    # subspace method runs alongside them.
    if projection is not None:
        n_generate = projection.dim
    elif config.l != "auto":
        n_generate = config.l
    else:
        n_generate = config.m
    values = {meth: np.full(len(x_values), np.nan) for meth in config.methods}
    weights = {}
    failures = []
    violations = 0
    for ix, x in enumerate(x_values):
        snr_db, inr_db, k = _resolve_point(config, x)
        scenario = Scenario(
            soi_direction_true=soi_true,
            soi_direction_presumed=soi_nominal,
            interferer_directions_true=int_true,
            interferer_directions_nominal=int_nominal,
            soi_power=10.0 ** (snr_db / 10.0),
            interferer_powers=np.full(n_interferers, 10.0 ** (inr_db / 10.0)),
            noise_power=1.0,
            geometry=geometry,
        )
        snapshots = generate_snapshots(scenario, n_generate, k, snap_seed)
        ipnc_true = true_ipnc(scenario, config.m)
        tsv = steering_vector(soi_true, config.m, geometry)
        scm = sample_covariance(snapshots[: config.m])
        for meth in config.methods:
            if meth == "lcssp" and projection is None:
                failures.append(_failure(trial, x, meth, lcssp_error))
                continue
            try:
                w = _method_weights(
                    meth, scm, presumed, complement, ipnc_true, tsv, snapshots, projection
                )
            except _TRIAL_ERRORS as err:
                failures.append(_failure(trial, x, meth, f"{type(err).__name__}: {err}"))
                continue
            try:
                values[meth][ix] = output_sinr(w, scenario.soi_power, tsv, ipnc_true)
            except ValueError as err:
                failures.append(_failure(trial, x, meth, f"{type(err).__name__}: {err}"))
                continue
            weights[meth] = w
        if "optimal" in config.methods and np.isfinite(values["optimal"][ix]):
            best = values["optimal"][ix]
            for meth in config.methods:
                if meth != "optimal" and np.isfinite(values[meth][ix]):
                    if values[meth][ix] > best + DOMINANCE_TOL_DB:
                        violations += 1
    if config.experiment == "beampattern":
        grid = default_beampattern_grid()
        values = {
            meth: beampattern(weights[meth], grid).gains_db if meth in weights
            else np.full(len(grid), np.nan)
            for meth in config.methods
        }
    return trial, values, failures, violations


def _collect(config, n_x, outcomes, projection, epsilon, lcssp_error):
    raw = {meth: np.full((n_x, config.trials), np.nan) for meth in config.methods}
    diagnostics = {
        "dominance_violations": 0,
        "failures": [],
        "l_chosen": None if projection is None else projection.dim,
        "epsilon_n": epsilon,
        "lcssp_error": lcssp_error,
    }
    for trial, values, failures, violations in outcomes:
        for meth in config.methods:
            raw[meth][:, trial] = values[meth]
        diagnostics["failures"].extend(failures)
        diagnostics["dominance_violations"] += violations
    diagnostics["failures"].sort(key=lambda rec: (rec["trial"], rec["x"], rec["method"]))
    return raw, diagnostics


def _x_grid(config):
    if config.experiment == "sinr_vs_snr":
        return config.snr_grid_db
    if config.experiment == "sinr_vs_snapshots":
        return config.k_grid
    if config.experiment == "sinr_vs_inr":
        return config.inr_grid_db
    return [0.0]  # beampattern: single operating point per trial


_X_LABELS = {
    "beampattern": "angle_deg",
    "sinr_vs_snr": "snr_db",
    "sinr_vs_snapshots": "k",
    "sinr_vs_inr": "inr_db",
}


def run_experiment(config, workers=1):
    """Run the configured experiment and aggregate per-method results.

    Deterministic for a given config: trial t's randomness is derived from
    (seed, t) alone, and aggregation is order-insensitive, so any worker
    count yields identical results. At most min(workers, trials, CPU
    count) processes run. Failed trial points are recorded in
    diagnostics["failures"], excluded from means, and reflected in n_ok.
    """
    config = normalize_config(config)
    projection, epsilon, lcssp_error = _resolve_lcssp(config)
    x_values = np.asarray(_x_grid(config), dtype=float)
    tasks = [(config, x_values, projection, lcssp_error, t) for t in range(config.trials)]
    workers = min(workers, config.trials, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, tasks))
    else:
        outcomes = [_run_trial(task) for task in tasks]
    if config.experiment == "beampattern":
        x_values = beampattern_grid_deg()
    raw, diagnostics = _collect(config, len(x_values), outcomes, projection, epsilon, lcssp_error)
    return _aggregate(
        _X_LABELS[config.experiment], x_values, config.methods, raw, diagnostics, config
    )


def _fmt(value):
    value = float(value)
    if not np.isfinite(value):
        return "nan"
    return f"{value:.12g}"


def emit_csv(result, path):
    """Write aggregate and raw CSVs; returns (path, raw_path).

    Schema: ``x,method,mean_sinr_db,std_db,n_ok`` plus a sibling
    ``*_raw.csv`` with ``x,method,trial,sinr_db`` (nan rows keep failed
    trials visible). UTF-8, LF line endings, ``.`` decimal separator;
    byte-identical for identical runs.
    """
    path = Path(path)
    raw_path = path.with_name(path.stem + "_raw" + path.suffix)
    trials = result.config.trials
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "method", "mean_sinr_db", "std_db", "n_ok"])
            for ix, x in enumerate(result.x_values):
                for meth in result.methods:
                    writer.writerow(
                        [
                            _fmt(x),
                            meth,
                            _fmt(result.mean_sinr_db[meth][ix]),
                            _fmt(result.std_db[meth][ix]),
                            str(int(result.n_ok[meth][ix])),
                        ]
                    )
        with open(raw_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["x", "method", "trial", "sinr_db"])
            for ix, x in enumerate(result.x_values):
                for meth in result.methods:
                    for t in range(trials):
                        writer.writerow([_fmt(x), meth, str(t), _fmt(result.raw[meth][ix, t])])
    except OSError as err:
        raise OSError(f"writing results to {path}: {err}") from err
    return path, raw_path
