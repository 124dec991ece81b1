"""Experiment table and run configuration: defaults, loading, validation.

Four experiments share one protocol and differ in two things, recorded
once in ``EXPERIMENTS``: the config grid field their x axis sweeps, and
whether their trials perturb the interferer directions.

* ``beampattern``: normalized gain curves at one operating point, x = angle.
* ``sinr_vs_snr``: mean output SINR over ``snr_grid_db``.
* ``sinr_vs_snapshots``: mean output SINR over ``k_grid``.
* ``sinr_vs_inr``: mean output SINR over ``inr_grid_db``.

A grid field that an experiment does not sweep takes its first entry.
The SNR and snapshot sweeps perturb the interferer directions; the INR
sweep keeps interferer geometry nominal (perturbed interferer steering
vectors bound the achievable null depth, which would couple the
deviation to interference power). The beampattern experiment draws
nothing by default.

``normalize_config`` checks every field before anything runs. It
rejects power grid entries above ``MAX_POWER_DB``, where double
precision no longer resolves the noise floor, snapshot counts above
``MAX_SNAPSHOTS``, whose draw would not fit in memory, an array
dimension that may exceed ``MAX_DIMENSION``, grids or interferer lists
longer than ``MAX_GRID_POINTS`` or ``MAX_INTERFERERS``, trial counts
whose raw table would hold more than ``MAX_RAW_VALUES`` values or
whose methods times trials exceed ``MAX_RAW_PERIOD``, and a
sensor-position error halfwidth above ``MAX_POSITION_ERROR_WL``.
"""

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .baselines import COND_LIMIT
from .metrics import beampattern_grid_deg

METHOD_NAMES = ("optimal", "scm_mvdr", "diagonal_loading", "capon_integral", "lcssp")
# Largest SNR or INR grid entry, in dB over the unit noise floor. One
# interferer of power p gives a true IPNC of condition number p + 1, so
# above COND_LIMIT the optimal weights need diagonal loading: the noise
# floor is lost in rounding, and every SINR would be noise.
MAX_POWER_DB = 10.0 * math.log10(COND_LIMIT)
# Largest k_grid entry. A trial draws its stream of normals once, at its
# largest k: 16 (1 + P + L) k bytes, 37 MB at this k and the default
# dimensions, long after the sample covariance has converged. The stream
# is held once; its Gram matrix conjugates one block of it at a time.
MAX_SNAPSHOTS = 100_000
# Largest array dimension a run may reach: m, a fixed l, and at l "auto"
# the search ceiling 8 m. At this bound a failing search takes about
# 0.1 s, a default chunk's covariances (16 * 9 * L^2 * 16 B) 38 MB, and
# a one-trial run at MAX_SNAPSHOTS peaks at 251 MB (getrusage): its
# 210 MB stream plus about 40 MB for the interpreter and numpy. At 256
# these are 1 s, 151 MB and 462 MB.
MAX_DIMENSION = 128
# Most entries of snr_grid_db, inr_grid_db or k_grid. A chunk stacks the
# covariances of all its points once: 16 trials * 64 * L^2 * 16 B,
# 268 MB at MAX_DIMENSION, and a 16-trial run of this many SNR points
# at that dimension peaks at 376 MB (getrusage).
MAX_GRID_POINTS = 64
# Most interferers. A trial's stream holds one row per source: at this
# count, MAX_DIMENSION and MAX_SNAPSHOTS it is 16 (1 + 32 + 128) k bytes,
# 258 MB against 210 MB at the default two; a one-trial run peaks at
# 299 MB (getrusage).
MAX_INTERFERERS = 32
# Most values of a run's raw (x, method, trial) table: x rows (the 1801
# angles of the beampattern) times methods times trials. The table takes
# 268 MB at this bound and is the only array of its size that a run and
# its CSV write hold: the chunks write into it, and its statistics and
# emit_csv read it a block at a time, emit_csv also holding the row
# templates that MAX_RAW_PERIOD bounds. A 3726-trial beampattern at this
# bound, emit_csv included, peaks at 318 MB (getrusage); holding the
# chunks' blocks, a copy for the statistics and a stacked copy for the
# writer beside the table took it to 882 MB.
MAX_RAW_VALUES = 2**25
# Most rows in the period of the raw CSV, methods times trials: emit_csv
# holds one row template per (method, trial), about 90 B each, so 95 MB
# at this bound whatever the number of x values.
MAX_RAW_PERIOD = 2**20
# Largest position_error_halfwidth_wl, in wavelengths. At half-wavelength
# spacing, two neighbours each this far off can meet.
MAX_POSITION_ERROR_WL = 0.25


class ConfigError(ValueError):
    """Invalid experiment configuration or config file."""


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on; JSON-serializable fields."""

    experiment: str
    m: int
    l: object  # extended dimension (int) or "auto"
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


@dataclass(frozen=True)
class Experiment:
    """One experiment's protocol.

    ``grid`` is the config field the x axis sweeps, None for the
    beampattern's single operating point. ``defaults`` override the
    common defaults.
    """

    grid: str | None
    perturbs_interferers: bool
    defaults: dict


EXPERIMENTS = {
    "beampattern": Experiment(
        grid=None,
        perturbs_interferers=False,
        defaults={
            "trials": 1,
            "inr_grid_db": (30.0,),
            "doa_mismatch_halfwidth_deg": 0.0,
            "position_error_halfwidth_wl": 0.0,
        },
    ),
    "sinr_vs_snr": Experiment(
        grid="snr_grid_db",
        perturbs_interferers=True,
        defaults={"snr_grid_db": (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)},
    ),
    "sinr_vs_snapshots": Experiment(
        grid="k_grid",
        perturbs_interferers=True,
        defaults={"k_grid": (10, 20, 30, 50, 100, 200, 500)},
    ),
    "sinr_vs_inr": Experiment(
        grid="inr_grid_db",
        perturbs_interferers=False,
        defaults={
            "inr_grid_db": (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
            "position_error_halfwidth_wl": 0.0,
        },
    ),
}

_COMMON_DEFAULTS = {
    "m": 10,
    "l": 20,
    "trials": 100,
    "snr_grid_db": (10.0,),
    "inr_grid_db": (10.0,),
    "k_grid": (50,),
    "presumed_soi_deg": 0.0,
    "interferers_deg": (-30.0, 30.0),
    "sector_halfwidth_deg": 6.0,
    "doa_mismatch_halfwidth_deg": 6.0,
    "position_error_halfwidth_wl": 0.05,
    "delta": 0.05,
    "seed": 123,
    "methods": METHOD_NAMES,
}

_FIELD_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def default_config(experiment):
    """Defaults for one experiment; each follows its own protocol."""
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {tuple(EXPERIMENTS)}")
    merged = {**_COMMON_DEFAULTS, **EXPERIMENTS[experiment].defaults}
    merged = {key: list(v) if isinstance(v, tuple) else v for key, v in merged.items()}
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
        # ValueError covers malformed JSON and bytes that are not UTF-8;
        # json raises RecursionError for nesting too deep to decode.
        except (OSError, ValueError, RecursionError) as err:
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


def _not_bool(value):
    """``value`` itself; TypeError for a bool, since JSON true and false are not numbers."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is a boolean")
    return value


def _as_int(value, name, minimum=None):
    try:
        out = int(_not_bool(value))
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from err
    if isinstance(value, float) and value != out:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and out < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {out}")
    return out


def _as_float(value, name):
    try:
        out = float(_not_bool(value))
    except (TypeError, ValueError, OverflowError) as err:
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
        out = [float(_not_bool(v)) for v in items]
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from err
    if not out:
        raise ConfigError(f"{name} must be nonempty")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} entries must be finite, got {value!r}")
    return out


def normalize_config(config):
    """Validate and canonicalize field types; raises ConfigError."""
    out = default_config(config.experiment)
    out.m = _as_int(config.m, "m", minimum=2)
    if out.m > MAX_DIMENSION:
        raise ConfigError(f"m must be at most {MAX_DIMENSION}, got {out.m}")
    if config.l == "auto":
        out.l = "auto"
        if 8 * out.m > MAX_DIMENSION:
            raise ConfigError(
                f'l "auto" searches dimensions up to 8 m, so m must be at most '
                f"{MAX_DIMENSION // 8}, got {out.m}"
            )
    else:
        out.l = _as_int(config.l, "l", minimum=out.m)
        if out.l > MAX_DIMENSION:
            raise ConfigError(f"l must be at most {MAX_DIMENSION}, got {out.l}")
    out.trials = _as_int(config.trials, "trials", minimum=1)
    out.snr_grid_db = _as_float_list(config.snr_grid_db, "snr_grid_db")
    out.inr_grid_db = _as_float_list(config.inr_grid_db, "inr_grid_db")
    for name in ("snr_grid_db", "inr_grid_db"):
        if max(getattr(out, name)) > MAX_POWER_DB:
            raise ConfigError(
                f"{name} entries must be at most {MAX_POWER_DB:g} dB over the unit noise "
                "floor, where double precision still resolves the noise"
            )
        if 10.0 ** (min(getattr(out, name)) / 10.0) == 0.0:
            raise ConfigError(f"{name} entries underflow to zero linear power")
    out.k_grid = [_as_int(v, "k_grid entry", minimum=1) for v in _as_list(config.k_grid, "k_grid")]
    if not out.k_grid:
        raise ConfigError("k_grid must be nonempty")
    if max(out.k_grid) > MAX_SNAPSHOTS:
        raise ConfigError(f"k_grid entries must be at most {MAX_SNAPSHOTS}, got {max(out.k_grid)}")
    for name in ("snr_grid_db", "inr_grid_db", "k_grid"):
        count = len(getattr(out, name))
        if count > MAX_GRID_POINTS:
            raise ConfigError(f"{name} must have at most {MAX_GRID_POINTS} entries, got {count}")
    out.presumed_soi_deg = _as_float(config.presumed_soi_deg, "presumed_soi_deg")
    out.interferers_deg = _as_float_list(config.interferers_deg, "interferers_deg")
    if len(out.interferers_deg) > MAX_INTERFERERS:
        raise ConfigError(
            f"interferers_deg must have at most {MAX_INTERFERERS} entries, "
            f"got {len(out.interferers_deg)}"
        )
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
    grid = EXPERIMENTS[out.experiment].grid
    rows = len(beampattern_grid_deg()) if grid is None else len(getattr(out, grid))
    max_trials = min(MAX_RAW_VALUES // rows, MAX_RAW_PERIOD) // len(methods)
    if out.trials > max_trials:
        raise ConfigError(
            f"trials must be at most {max_trials} for {rows} x values and {len(methods)} "
            f"methods ({MAX_RAW_VALUES} raw values, {MAX_RAW_PERIOD} per x), got {out.trials}"
        )
    angles = [out.presumed_soi_deg, *out.interferers_deg]
    if any(abs(a) >= 90 for a in angles):
        raise ConfigError("directions must lie strictly inside (-90, 90) degrees")
    perturbed = angles if EXPERIMENTS[out.experiment].perturbs_interferers else angles[:1]
    if any(abs(a) + out.doa_mismatch_halfwidth_deg >= 90 for a in perturbed):
        raise ConfigError(
            "directions plus doa_mismatch_halfwidth_deg must stay strictly inside (-90, 90) degrees"
        )
    try:
        _sector_complement(np.deg2rad(out.presumed_soi_deg), np.deg2rad(out.sector_halfwidth_deg))
    except ValueError as err:
        raise ConfigError(f"sector_halfwidth_deg too large: {err}") from err
    return out


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
