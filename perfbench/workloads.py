"""Workload definitions and the reference-output gate.

Shared by ``run.py``, ``side.py``, ``setup_probe.py`` and
``make_reference.py``. This
module does not import beamlab itself; callers pass the imported package
in, so the set-up probe times that import.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Master seeds with stored reference outputs. ``--seed n`` runs seed n
# when it is in this list and REF_SEEDS[n % len(REF_SEEDS)] otherwise, so
# every run's outputs are checked against values recorded from the seed
# code. 123 is the library's default seed.
REF_SEEDS = tuple(range(123, 131))

# Absolute tolerance, in dB, on every per-method mean (or window mean) of
# the reference gate. Reordered floating-point arithmetic, e.g. a batched
# solve in place of a looped one, moves these means by far less; a real
# change to a beamformer or to the draw protocol moves them by more.
TOL_DB = 1e-3

# Per-trial values are clipped at this floor before averaging. Beampattern
# nulls of the optimal weights reach about -320 dB, where the gain is
# rounding noise and moves by whole dB under a last-bit change of the
# steering phases; no SINR value comes near it.
FLOOR_DB = -100.0

# Reference digests average the per-x means over at most this many
# contiguous windows of the x grid; the SINR sweeps have fewer x values,
# so they are checked point by point.
MAX_WINDOWS = 60

# Trials of the untimed sweep that warms up each side of a run.
WARMUP_TRIALS = 2


@dataclass(frozen=True)
class Workload:
    experiment: str
    trials: int
    workers: int
    overrides: dict = field(default_factory=dict)


# Closed loop, one caller. Why each exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "snr_serial": Workload("sinr_vs_snr", 25, 1),
    "snapshots_wide": Workload(
        "sinr_vs_snapshots", 25, 1, {"k_grid": [5, 8, 1000, 2000, 5000]}
    ),
    "snapshots_workers2": Workload("sinr_vs_snapshots", 40, 2),
    "beampattern_csv": Workload("beampattern", 10, 1),
}


def config_seed(seed):
    """Master seed the benchmark runs for the ``--seed`` argument."""
    return seed if seed in REF_SEEDS else REF_SEEDS[seed % len(REF_SEEDS)]


def make_config(bl, name, seed, trials=None):
    """Validated experiment config for a workload through the public API."""
    wl = WORKLOADS[name]
    config = bl.default_config(wl.experiment)
    config.trials = wl.trials if trials is None else trials
    config.seed = seed
    for key, value in wl.overrides.items():
        setattr(config, key, value)
    return bl.normalize_config(config)


def build_projector(bl, config):
    """The LCSSP projector a sweep of ``config`` uses, via the public API."""
    settings = bl.LcsspConfig(
        presumed_soi=np.deg2rad(config.presumed_soi_deg),
        soi_sector_halfwidth=np.deg2rad(config.sector_halfwidth_deg),
        nominal_interferers=np.deg2rad(config.interferers_deg),
        delta=config.delta,
        l_initial=config.m,
        l_max=max(8 * config.m, 0 if config.l == "auto" else config.l),
        fixed_l=None if config.l == "auto" else config.l,
    )
    if settings.fixed_l is None:
        _, projection = bl.select_dimension(settings)
    else:
        projection = bl.build_projection(settings, settings.fixed_l)
    bl.normalized_error(projection, settings.nominal_interferers)
    return projection


def method_points(result):
    """(completed, attempted) method-points: trial x x-value x method."""
    attempted = len(result.x_values) * len(result.methods) * result.config.trials
    completed = int(sum(int(np.sum(result.n_ok[m])) for m in result.methods))
    return completed, attempted


def digest(result):
    """Window means of each method's floored mean SINR (or gain), n_ok sums."""
    n = len(result.x_values)
    windows = np.array_split(np.arange(n), min(n, MAX_WINDOWS))
    out = {"x": [float(result.x_values[w[0]]) for w in windows], "methods": {}}
    for meth in result.methods:
        raw = np.asarray(result.raw[meth], dtype=float)
        ok = np.isfinite(raw)
        n_ok = np.asarray(result.n_ok[meth])
        with np.errstate(invalid="ignore"):
            mean = np.where(ok, np.maximum(raw, FLOOR_DB), 0.0).sum(axis=1) / ok.sum(axis=1)
        out["methods"][meth] = {
            "mean_db": [
                round(float(mean[w].mean()), 6) if np.all(np.isfinite(mean[w])) else None
                for w in windows
            ],
            "n_ok": [int(n_ok[w].sum()) for w in windows],
        }
    return out


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(result, reference):
    """List of reasons ``result`` fails the gate; empty when it passes.

    n_ok must match exactly, every mean must lie within TOL_DB of the
    reference, and no method may beat the optimal beamformer.
    """
    problems = []
    violations = result.diagnostics.get("dominance_violations")
    if violations != 0:
        problems.append(f"dominance_violations = {violations}")
    got = digest(result)
    if got["x"] != reference["x"]:
        problems.append("x grid differs from the reference")
        return problems
    if sorted(got["methods"]) != sorted(reference["methods"]):
        problems.append("method set differs from the reference")
        return problems
    for meth, ref in reference["methods"].items():
        have = got["methods"][meth]
        if have["n_ok"] != ref["n_ok"]:
            problems.append(f"{meth}: n_ok {have['n_ok']} != reference {ref['n_ok']}")
        for i, (a, b) in enumerate(zip(have["mean_db"], ref["mean_db"])):
            if a is None or b is None:
                if a is not b:
                    problems.append(f"{meth} window {i}: mean {a} != reference {b}")
            elif not math.isclose(a, b, rel_tol=0.0, abs_tol=TOL_DB):
                problems.append(f"{meth} window {i}: mean {a} dB != reference {b} dB")
    return problems
