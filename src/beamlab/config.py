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
precision no longer resolves the noise floor, an array dimension that
may exceed ``MAX_DIMENSION``, a sensor-position error halfwidth above
``MAX_POSITION_ERROR_WL``, and a run whose estimated peak memory
(``memory_terms``) in one-trial chunks on one thread is above
``MEMORY_BUDGET``; ``run_layout`` sizes the runs it accepts.
"""

import json
import math
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .baselines import CAPON_SAMPLES, COND_LIMIT
from .metrics import beampattern_grid_deg

METHOD_NAMES = ("optimal", "scm_mvdr", "diagonal_loading", "capon_integral", "lcssp")
# The methods that read the sample covariance of the physical array.
SCM_METHODS = ("scm_mvdr", "diagonal_loading", "capon_integral")
# Largest SNR or INR grid entry, in dB over the unit noise floor. One
# interferer of power p gives a true IPNC of condition number p + 1, so
# above COND_LIMIT the optimal weights need diagonal loading: the noise
# floor is lost in rounding, and every SINR would be noise.
MAX_POWER_DB = 10.0 * math.log10(COND_LIMIT)
# Largest array dimension a run may reach: m, a fixed l, and at l "auto"
# the search ceiling 8 m. At this bound a failing search takes about
# 0.1 s; at 256 it takes 1 s.
MAX_DIMENSION = 128
# Largest position_error_halfwidth_wl, in wavelengths. At half-wavelength
# spacing, two neighbours each this far off can meet.
MAX_POSITION_ERROR_WL = 0.25
# Most trials per task: each task stacks the points of up to this many
# trials and runs every method over the stack in one batched call
# (run_layout picks the length, trial_chunks splits a run).
TRIAL_CHUNK = 16
# Columns per product of a trial's Gram matrix Z Z^H, a sum over blocks
# of this many columns of Z: each product conjugates one block, not the
# trial's whole stream. At k up to this size the Gram is one product.
GRAM_BLOCK = 512
# Most bytes of a run's estimated peak (memory_terms): it accepts each former
# per-field cap's largest run (311 MB measured), all of them at once (40 MB with
# optimal alone) and two 32-interferer k 100000 trials on one thread (561 on two).
MEMORY_BUDGET = 2**29


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
    for name in ("snr_grid_db", "inr_grid_db"):
        setattr(out, name, _as_float_list(getattr(config, name), name))
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
    out.presumed_soi_deg = _as_float(config.presumed_soi_deg, "presumed_soi_deg")
    out.interferers_deg = _as_float_list(config.interferers_deg, "interferers_deg")
    for name in ("sector_halfwidth_deg", "doa_mismatch_halfwidth_deg", "position_error_halfwidth_wl"):
        setattr(out, name, _as_float(getattr(config, name), name))
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
    perturbed = angles if EXPERIMENTS[out.experiment].perturbs_interferers else angles[:1]
    if any(abs(a) + out.doa_mismatch_halfwidth_deg >= 90 for a in perturbed):
        raise ConfigError(
            "directions plus doa_mismatch_halfwidth_deg must stay strictly inside (-90, 90) degrees"
        )
    try:
        _sector_complement(np.deg2rad(out.presumed_soi_deg), np.deg2rad(out.sector_halfwidth_deg))
    except ValueError as err:
        raise ConfigError(f"sector_halfwidth_deg too large: {err}") from err
    terms = memory_terms(out, 1, 1)
    if sum(terms.values()) > MEMORY_BUDGET:
        raise ConfigError(
            f"the run needs about {sum(terms.values()) // 10**6:,} MB, above the "
            f"{MEMORY_BUDGET / 1e6:.0f} MB memory budget; most of it is {max(terms, key=terms.get)}"
        )
    return out


def memory_terms(config, workers, length):
    """Estimated peak bytes of running the normalized ``config`` on
    ``workers`` threads in chunks of at most ``length`` trials and writing
    its CSVs, as {term (the config fields that drive it): bytes}, which
    sum to the peak. A thread's chunk holds T trials, the longest chunk of
    ``trial_chunks``, at X grid points (1 for the beampattern), each
    drawing 1 + P + L rows of normals, for P interferers and dimension L
    (8 m at "auto"). Failure records and run time are not counted."""
    spec, trials, n = EXPERIMENTS[config.experiment], config.trials, workers
    m, p, n_methods = config.m, len(config.interferers_deg), len(config.methods)
    l = 8 * m if config.l == "auto" else config.l
    n_rows = 1 + p + l
    x = len(getattr(config, spec.grid)) if spec.grid else 1
    ks = config.k_grid if spec.grid == "k_grid" else config.k_grid[:1]
    t = -(-trials // min(trials, _chunk_count(trials, n, length)))  # the longest chunk
    rows = x if spec.grid else len(beampattern_grid_deg())
    grid = f"{spec.grid}, " if spec.grid else ""
    # Each thread holds its chunk's true IPNCs (one per trial unless the
    # sweep sets interferer powers), the m x m stacks its methods read (the
    # SCM if an SCM method runs, LCSSP's IPNCs if lcssp does), and the
    # larger of two sets: the draw's (the steering stacks; if either stack
    # is read, a trial's stream, conjugated Gram block, Grams, one block
    # product past GRAM_BLOCK, B, B G, B^H and B G B^H; for lcssp their two
    # m x L products and C^H) or the methods' (4 m^2 values per point, one
    # m^2 of it memory outside numpy's arrays, and if capon_integral runs
    # the Capon spectrum).
    scm, lcssp = bool(set(SCM_METHODS) & set(config.methods)), "lcssp" in config.methods
    draw = {
        "the snapshot stream (k_grid, interferers_deg, l)":
            16 * (scm or lcssp) * n_rows * (max(ks) + min(max(ks), GRAM_BLOCK)),
        f"a trial's Gram matrices, mixing products and covariances ({grid}interferers_deg, l)":
            16 * (scm or lcssp) * ((len(ks) + (max(ks) > GRAM_BLOCK)) * n_rows**2
                                   + x * l * (3 * n_rows + l)),
        f"LCSSP's products of a trial's covariances ({grid}m, l)":
            16 * lcssp * (2 * x * m * l + l * l),
        "the steering stacks (trials, m, l, interferers_deg)": 16 * t * (m + l) * (1 + p),
    }
    capon = 3 * CAPON_SAMPLES if "capon_integral" in config.methods else 0
    solve = {
        f"the weights and SINRs ({grid}trials, methods, m)":
            16 * t * x * (n_methods * (m + 1) + 4 * m**2 + capon),
        "the beampattern gains (trials, methods, m)":
            0 if spec.grid else 16 * (t * n_methods + m) * rows,
    }
    work = max(draw, solve, key=lambda terms: sum(terms.values()))
    stack = n * 16 * t * x * m * m
    return {
        "the interpreter and numpy": 40 * 10**6,
        f"the raw table ({grid}trials, methods)": 8 * rows * n_methods * trials,
        "the raw row templates (trials, methods)": 100 * n_methods * trials,
        f"the SCM stack ({grid}trials, m)": stack * scm,
        f"the LCSSP IPNC stack ({grid}trials, m)": stack * lcssp,
        f"the true IPNCs ({grid}trials, m, interferers_deg)":
            n * 16 * t * (x if spec.grid == "inr_grid_db" else 1) * m * (p + 3 * m),
        **{name: n * size for name, size in work.items()},
    }


def run_layout(config, threads):
    """(threads, chunks) of a run of the normalized ``config`` on at most
    ``threads`` threads: the most threads, then the longest chunks up to
    TRIAL_CHUNK trials, whose ``memory_terms`` fit MEMORY_BUDGET; last, one
    thread with one-trial chunks, the layout ``normalize_config`` checks."""
    for threads, length in product(range(threads, 0, -1), range(TRIAL_CHUNK, 0, -1)):
        if sum(memory_terms(config, threads, length).values()) <= MEMORY_BUDGET:
            break
    return threads, trial_chunks(config.trials, threads, length)


def _chunk_count(trials, workers, length):
    """workers x ceil(trials / (workers length)): ``trial_chunks``'s
    ranges, the empty ones included."""
    return workers * -(-trials // (workers * length))


def trial_chunks(trials, workers, length):
    """The chunks, as ranges of trial indices, of a run on ``workers``
    threads in chunks of at most ``length`` trials, yielded in order.

    Of count = ``workers`` x ceil(trials / (workers length)) ranges, range
    i is [trials i // count, trials (i + 1) // count), and empty ones are
    dropped. They partition range(trials), their lengths differ by at
    most 1 and none exceeds ``length``. At trials >= count every thread
    gets the same number of chunks, the longest of ceil(trials / count)
    trials; fewer trials run one per chunk.
    """
    count = _chunk_count(trials, workers, length)
    bounds = [trials * i // count for i in range(count + 1)]
    return filter(len, map(range, bounds[:-1], bounds[1:]))


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
