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

Every sweep reduces a trial's draw to the Gram matrix of its normals,
and no snapshot matrix is formed. The SNR and INR sweeps draw each trial
once and scale it; the snapshot sweep draws each trial's stream once, at
its largest k, and takes every k's draw from a prefix of it. The sample
covariance of the physical array is the leading m x m block of the
extended one. ``normalize_config`` rejects power grid entries above
``MAX_POWER_DB``, where double precision no longer resolves the noise
floor, next to its other up-front checks.
"""

import json
import math
import os
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice, product
from pathlib import Path

import numpy as np

from .array_model import (
    MAX_POSITION_ERROR_WL,
    ArrayGeometry,
    Scenario,
    _normal_blocks,
    steering_matrix,
    steering_vector,
)
from .baselines import (
    COND_LIMIT,
    SingularCovarianceError,
    _eigvalsh,
    capon_integral_weights,
    diagonal_loading_weights,
    optimal_weights,
    scm_mvdr_weights,
)
from .covariance import hermitize, true_ipnc
from .lcssp import (
    LcsspConfig,
    NoConvergenceError,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
)
from .metrics import (
    beampattern_grid_deg,
    default_beampattern_grid,
    output_sinr,
    pattern_gains_db,
)

EXPERIMENTS = ("beampattern", "sinr_vs_snr", "sinr_vs_snapshots", "sinr_vs_inr")
METHOD_NAMES = ("optimal", "scm_mvdr", "diagonal_loading", "capon_integral", "lcssp")
DOMINANCE_TOL_DB = 1e-6
# Trials per task: each task stacks the points of this many trials and
# runs every method over the stack in one batched call. Worker runs use
# smaller chunks so that every worker gets one.
TRIAL_CHUNK = 16
# Rows per CSV write: a block's text is all of the file held in memory,
# and one block amortizes the interpreter's cost per write.
CSV_BLOCK_ROWS = 4096
# Largest SNR or INR grid entry, in dB over the unit noise floor. One
# interferer of power p gives a true IPNC of condition number p + 1, so
# above COND_LIMIT the optimal weights need diagonal loading: the noise
# floor is lost in rounding, and every SINR would be noise.
MAX_POWER_DB = 10.0 * math.log10(COND_LIMIT)

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
        out = [float(_not_bool(v)) for v in items]
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


def _swept_sources(config):
    """Mask over [SOI, *interferers] of the sources whose power the grid sets."""
    n_int = len(config.interferers_deg)
    return np.array(
        [config.experiment == "sinr_vs_snr"] + [config.experiment == "sinr_vs_inr"] * n_int
    )


def _trial_scenario(config, trial, swept):
    """Trial ``trial``'s ``Scenario`` and snapshot seed.

    The ``swept`` sources get unit power, for the grid to scale; the
    others take the first entry of their grid field.
    """
    soi_true, int_true, perr, snap_seed = _draw_mismatch(config, trial)
    scenario = Scenario(
        soi_direction_true=soi_true,
        soi_direction_presumed=np.deg2rad(config.presumed_soi_deg),
        interferer_directions_true=int_true,
        interferer_directions_nominal=np.deg2rad(np.asarray(config.interferers_deg, dtype=float)),
        soi_power=1.0 if swept[0] else 10.0 ** (config.snr_grid_db[0] / 10.0),
        interferer_powers=np.where(swept[1:], 1.0, 10.0 ** (config.inr_grid_db[0] / 10.0)),
        noise_power=1.0,
        geometry=ArrayGeometry(config.m, perr),
    )
    return scenario, snap_seed


@dataclass(frozen=True, eq=False)
class _Points:
    """Inputs of a chunk's trial points, stacked in (trial, x) order."""

    cov: np.ndarray  # (B, L, L) extended sample covariances
    ipnc: np.ndarray  # (B, m, m) true IPNCs
    tsv: np.ndarray  # (B, m) true steering vectors
    soi_power: np.ndarray  # (B,)
    # Runs of this many consecutive points share one true IPNC and true
    # steering vector, so the optimal weights are solved once per run.
    shared: int = 1

    @property
    def scm(self):
        """(B, m, m) sample covariances of the physical rows, a view of ``cov``.

        The first m rows of an L-element draw are the m-element draw, so
        the SCM is the leading block of the extended covariance.
        """
        m = self.tsv.shape[-1]
        return self.cov[:, :m, :m]

    @cached_property
    def scm_eigenvalues(self):
        """Ascending SCM eigenvalues: one eigvalsh shared by the SCM methods."""
        return _eigvalsh(self.scm)

    def __getitem__(self, index):
        """The points at ``index``, each with its own optimal-weight solve."""
        return _Points(self.cov[index], self.ipnc[index], self.tsv[index], self.soi_power[index])

    def __len__(self):
        return len(self.soi_power)


def _draw_points(config, x_values, trials, n_generate):
    """Draw every (trial, x) point of ``trials``, keeping only covariances.

    Each trial builds its ``Scenario``, geometry, true steering vector
    and true IPNC once. Its snapshots would be B Z, with Z the draw's
    complex normals (source waveforms, then noise) and B = [A, I] diag(a)
    for the sources' steering matrix A and the amplitudes
    a = sqrt(power / 2), so each point's covariance is B G B^H with
    G = Z Z^H / k, and no snapshot matrix is formed. In the SNR and INR
    sweeps the x values of a trial share G and change only the power p
    of the swept sources (the SOI, or every interferer), and the true
    IPNC is linear in p in the INR sweep. The snapshot sweep draws each
    trial's stream once, at its largest k, and takes every k's Z from a
    prefix of it. In every sweep but the INR one, the x values of a
    trial share its true IPNC and steering vector: ``shared`` is the
    grid length.
    """
    m, n, n_x = config.m, n_generate, len(x_values)
    swept = _swept_sources(config)
    ks = [int(k) for k in x_values] if config.experiment == "sinr_vs_snapshots" else [config.k]
    if swept.any():
        p = np.array([10.0 ** (float(x) / 10.0) for x in x_values])
    cov, ipnc, tsv = [], [], []
    for trial in trials:
        scenario, snap_seed = _trial_scenario(config, trial, swept)
        tsv.append(steering_vector(scenario.soi_direction_true, m, scenario.geometry))
        ipnc.append(true_ipnc(scenario, m))
        directions = [scenario.soi_direction_true, *scenario.interferer_directions_true]
        mix = np.hstack((steering_matrix(directions, n, scenario.geometry), np.eye(n)))
        # Powers of [SOI, *interferers], then the unit noise of each element.
        powers = np.array([scenario.soi_power, *scenario.interferer_powers, *[1.0] * n])
        if swept.any():
            powers = np.where(np.pad(swept, (0, n)), p[:, None], powers)
        b = mix * np.sqrt(np.atleast_2d(powers) / 2.0)[:, None, :]
        blocks = _normal_blocks(mix.shape[1], ks, snap_seed)
        gram = np.stack([z @ z.conj().T / z.shape[1] for z in blocks])
        cov.append(hermitize(b @ gram @ np.swapaxes(b, -1, -2).conj()))
    cov = np.concatenate(cov)
    tsv = np.repeat(np.stack(tsv), n_x, axis=0)
    ipnc = np.repeat(np.stack(ipnc), n_x, axis=0)
    soi_power = np.full(len(tsv), scenario.soi_power)  # the same in every trial
    if not swept.any():
        return _Points(cov, ipnc, tsv, soi_power, shared=n_x)
    p = np.tile(p, len(trials))
    if swept[0]:
        return _Points(cov, ipnc, tsv, p, shared=n_x)
    noise = np.eye(m)  # unit noise power
    ipnc = p[:, None, None] * (ipnc - noise) + noise
    return _Points(cov, ipnc, tsv, soi_power)


def _shared_optimal_weights(points, failures):
    """Optimal weights of a stack, solved once per run of ``points.shared``
    points; a failed solve is recorded at every point of its run."""
    r = points.shared
    per_run = None if failures is None else {}
    w = optimal_weights(points.ipnc[::r], points.tsv[::r], per_run)
    for run, error in (per_run or {}).items():
        for b in range(run * r, run * r + r):
            failures.setdefault(b, error)
    return np.repeat(w, r, axis=0)


def _method_sinr(method, points, presumed, complement, projection, failures):
    """Weights and output SINRs of one method at every point of the stack."""
    if method == "optimal":
        w = _shared_optimal_weights(points, failures)
    elif method == "scm_mvdr":
        w = scm_mvdr_weights(points.scm, presumed, failures, eigenvalues=points.scm_eigenvalues)
    elif method == "diagonal_loading":
        w = diagonal_loading_weights(
            points.scm, presumed, failures=failures, eigenvalues=points.scm_eigenvalues
        )
    elif method == "capon_integral":
        w = capon_integral_weights(
            points.scm, presumed, complement, failures=failures, eigenvalues=points.scm_eigenvalues
        )
    else:
        m = points.scm.shape[-1]
        w = lcssp_weights(reconstruct_ipnc(projection, points.cov, m), presumed, failures)
    return w, output_sinr(w, points.soi_power, points.tsv, points.ipnc, failures)


def _point_values(method, points, presumed, complement, projection):
    """(weights, SINRs, {point index: error text}) of one method over a stack.

    A point that fails gets nan, and so does a non-finite SINR, so a nan
    value always has a failure record. If LAPACK rejects a whole batch in
    a way the per-point checks did not foresee, the stack is redone one
    point at a time; batch-of-one results equal the batched ones bit for
    bit, so only the offending point is lost.
    """
    args = (presumed, complement, projection)
    failures = {}
    try:
        w, sinr = _method_sinr(method, points, *args, failures)
    except _TRIAL_ERRORS:
        w = np.zeros(points.tsv.shape, dtype=complex)
        sinr = np.full(len(points), np.nan)
        failures = {}
        for b in range(len(points)):
            try:
                w_b, sinr_b = _method_sinr(method, points[b : b + 1], *args, None)
            except _TRIAL_ERRORS + (ValueError,) as err:
                failures[b] = err
                continue
            w[b], sinr[b] = w_b[0], sinr_b[0]
    for b in np.flatnonzero(~np.isfinite(sinr)):
        failures.setdefault(int(b), ValueError(f"non-finite output SINR {sinr[b]} dB"))
    failed = sorted(failures)
    sinr[failed] = np.nan
    w[failed] = 0.0
    return w, sinr, {b: f"{type(err).__name__}: {err}" for b, err in failures.items()}


def _failure(trial, x, method, error):
    return {"trial": trial, "x": float(x), "method": method, "error": error}


def _run_chunk(task):
    """Monte Carlo trials ``trials`` across the whole x grid, batched.

    Returns (trials, values per method, failures, dominance violations).
    Values are (n_x, len(trials)) output SINRs; for the beampattern
    experiment they are the gain curves of the single operating point
    instead, one row per beampattern angle. Top-level so process pools
    can pick it up.
    """
    config, x_values, projection, lcssp_error, trials = task
    soi_nominal = np.deg2rad(config.presumed_soi_deg)
    presumed = steering_vector(soi_nominal, config.m)
    complement = _sector_complement(soi_nominal, np.deg2rad(config.sector_halfwidth_deg))
    # Snapshots always come from the extended aperture when one is
    # resolvable, so shared methods see identical data whether or not the
    # subspace method runs alongside them.
    if projection is not None:
        n_generate = projection.dim
    elif config.l != "auto":
        n_generate = config.l
    else:
        n_generate = config.m
    points = _draw_points(config, x_values, trials, n_generate)
    shape = (len(trials), len(x_values))
    values, weights, failures = {}, {}, []
    for meth in config.methods:
        if meth == "lcssp" and projection is None:
            errors = dict.fromkeys(range(len(points)), lcssp_error)
            weights[meth] = np.zeros((len(points), config.m), dtype=complex)
            sinr = np.full(len(points), np.nan)
        else:
            weights[meth], sinr, errors = _point_values(
                meth, points, presumed, complement, projection
            )
        values[meth] = sinr.reshape(shape)
        for b, error in errors.items():
            t, ix = divmod(b, len(x_values))
            failures.append(_failure(trials[t], x_values[ix], meth, error))
    violations = 0
    if "optimal" in config.methods:
        best = values["optimal"]
        for meth in config.methods:
            if meth != "optimal":
                violations += int(np.sum(values[meth] > best + DOMINANCE_TOL_DB))
    if config.experiment == "beampattern":
        steer = steering_matrix(default_beampattern_grid(), config.m)
        block = np.stack([weights[meth] for meth in config.methods], axis=1)
        gains = pattern_gains_db(block, steer)  # (trials, methods, angles)
        for j, meth in enumerate(config.methods):
            gains[np.isnan(values[meth][:, 0]), j] = np.nan
        values = {meth: gains[:, j].T for j, meth in enumerate(config.methods)}
    else:
        values = {meth: v.T for meth, v in values.items()}
    return trials, values, failures, violations


def _collect(config, n_x, outcomes, projection, epsilon, lcssp_error):
    raw = {meth: np.full((n_x, config.trials), np.nan) for meth in config.methods}
    diagnostics = {
        "dominance_violations": 0,
        "failures": [],
        "l_chosen": None if projection is None else projection.dim,
        "epsilon_n": epsilon,
        "lcssp_error": lcssp_error,
    }
    for trials, values, failures, violations in outcomes:
        for meth in config.methods:
            raw[meth][:, trials] = values[meth]
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
    count yields identical results. Trials run in chunks of at most
    TRIAL_CHUNK, and a pool of at most min(workers, trials, CPU count)
    processes maps the chunks. Failed trial points are recorded in
    diagnostics["failures"], excluded from means, and reflected in n_ok.
    """
    config = normalize_config(config)
    projection, epsilon, lcssp_error = _resolve_lcssp(config)
    x_values = np.asarray(_x_grid(config), dtype=float)
    workers = max(1, min(workers, config.trials, os.cpu_count() or 1))
    size = min(TRIAL_CHUNK, -(-config.trials // workers))
    tasks = [
        (config, x_values, projection, lcssp_error, range(start, min(start + size, config.trials)))
        for start in range(0, config.trials, size)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_chunk, tasks))
    else:
        outcomes = [_run_chunk(task) for task in tasks]
    if config.experiment == "beampattern":
        x_values = beampattern_grid_deg()
    raw, diagnostics = _collect(config, len(x_values), outcomes, projection, epsilon, lcssp_error)
    return _aggregate(
        _X_LABELS[config.experiment], x_values, config.methods, raw, diagnostics, config
    )


def _cells(values):
    """CSV text of each value: 12 significant digits, every non-finite value as nan."""
    return [f"{v:.12g}" for v in np.where(np.isfinite(values), values, np.nan).ravel().tolist()]


def _flat_rows(table, methods, per_x, start, stop):
    """Rows ``start:stop`` of ``table``'s values in CSV order: x, then method,
    then trial, with ``per_x`` rows per x. Copies only the x values they span."""
    first, last = start // per_x, -(-stop // per_x)
    block = np.stack([table[meth][first:last] for meth in methods], axis=1).ravel()
    return block[start - first * per_x : stop - first * per_x]


def _write_blocks(path, header, n_rows, block_text):
    """Write ``header``, then ``block_text(start, stop)`` for each block of rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            fh.write(block_text(start, min(start + CSV_BLOCK_ROWS, n_rows)))


def emit_csv(result, path):
    """Write aggregate and raw CSVs; returns (path, raw_path).

    Schema: ``x,method,mean_sinr_db,std_db,n_ok`` plus a sibling
    ``*_raw.csv`` with ``x,method,trial,sinr_db`` (nan rows keep failed
    trials visible). UTF-8, LF line endings, ``.`` decimal separator,
    numbers to 12 significant digits with every non-finite value as
    ``nan``; byte-identical for identical runs. Rows are formatted and
    written in blocks of CSV_BLOCK_ROWS, so the text held in memory does
    not grow with the file.
    """
    path = Path(path)
    raw_path = path.with_name(path.stem + "_raw" + path.suffix)
    methods, trials = result.methods, result.config.trials
    x_cells = _cells(result.x_values)
    n_agg, n_raw = len(x_cells) * len(methods), len(x_cells) * len(methods) * trials
    agg_keys = product(x_cells, methods)
    raw_keys = product(x_cells, methods, range(trials))

    def aggregate_block(start, stop):
        mean, std, n_ok = (
            _flat_rows(table, methods, len(methods), start, stop)
            for table in (result.mean_sinr_db, result.std_db, result.n_ok)
        )
        rows = zip(islice(agg_keys, stop - start), _cells(mean), _cells(std), n_ok.tolist())
        return "".join([f"{x},{meth},{mu},{sd},{n}\n" for (x, meth), mu, sd, n in rows])

    def raw_block(start, stop):
        values = _cells(_flat_rows(result.raw, methods, len(methods) * trials, start, stop))
        rows = zip(islice(raw_keys, stop - start), values)
        return "".join([f"{x},{meth},{t},{v}\n" for (x, meth, t), v in rows])

    try:
        _write_blocks(path, "x,method,mean_sinr_db,std_db,n_ok\n", n_agg, aggregate_block)
        _write_blocks(raw_path, "x,method,trial,sinr_db\n", n_raw, raw_block)
    except OSError as err:
        raise OSError(f"writing results to {path}: {err}") from err
    return path, raw_path
