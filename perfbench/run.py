"""Layered Monte Carlo benchmark for beamlab.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Drives the public API (``default_config`` -> ``run_experiment`` ->
``emit_csv``) of the ``src/`` tree next to this directory, one closed-loop
caller, for ``--seconds`` seconds of repeated sweeps. Every sweep's output
is checked against ``reference.json`` (see ``workloads.check``) and every
CSV pair must be byte-identical to the first one of the run; a sweep that
fails either check counts as failed and makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics. The host's speed drifts by
up to 1.8x over seconds to minutes, so each timing is taken against the
frozen seed code under ``seedcode/``. Two ``side.py`` processes, one
importing ``src/`` (live) and one importing ``seedcode/`` (seed), take
turns at rounds of sweeps and CSV writes. A timing is reported as the
median ratio of each live round to the seed rounds next to it, times
the seed code's nominal time in ``nominal.json``: the seconds the live
code would take on a host where the seed code takes the nominal time.
README.md gives the measurements behind this.

* ``setup_s``: wall time of a fresh interpreter that imports beamlab,
  builds the validated config and the LCSSP projector; SETUP_PAIRS
  live and as many seed-code processes, in turn.
* ``sweep_s``: one ``run_experiment`` call.
* ``csv_s``: one ``emit_csv`` call (aggregate and raw CSV).
* ``points_per_s``: completed method-points (trial x x value x method)
  per second of ``sweep_s``.
* ``peak_rss_mb``: peak resident memory of the live side plus, for pool
  workloads, workers x the largest pool worker's peak (each forked worker
  also counts the pages it shares with the live side). Not a ratio.

``--trace 1`` alternates untraced and traced live sweeps and reports the
per-module split of the fastest traced sweep (see ``tracer.py``) plus
pool, CSV and tracing-overhead figures, in wall seconds. Metrics with
unit ``count`` or ``B`` are computed counts: they repeat exactly for a
given config and are not timings.

The line before the result is a JSON object with provenance, the raw
wall-time samples behind each metric and the computed counts. The last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``,
where ``attempted`` counts live sweeps.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from side import Run
from tracer import Tracer, summarize
from workloads import WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SEEDCODE = HERE / "seedcode"
NOMINAL_PATH = HERE / "nominal.json"

SETUP_PAIRS = 5
MIN_PAIRS = 3
MIN_TRACE_ROUNDS = 2
# Each round of an untraced run repeats the sweep, and then emit_csv,
# until it has spent this long on each, so short calls are averaged.
ROUND_S = 0.25
MB = 1024.0  # ru_maxrss is in KiB on Linux

# Spans reported with calls and self time.
COUNTED_SPANS = (
    "baselines.conditioned_matrix",
    "baselines.distortionless_solve",
    "array_model.generate_snapshots",
    "covariance.sample_covariance",
    "array_model.steering_matrix",
    "kernels.steering_grid",
    "kernels.capon_accumulate",
    "metrics.beampattern",
    "covariance.true_ipnc",
    "lcssp.reconstruct_ipnc",
    "metrics.output_sinr",
)
# Per-method inclusive weight time; LCSSP is reconstruction plus solve.
METHOD_SPANS = {
    "baselines.optimal_weights.incl_s": ("baselines.optimal_weights",),
    "baselines.scm_mvdr_weights.incl_s": ("baselines.scm_mvdr_weights",),
    "baselines.diagonal_loading_weights.incl_s": ("baselines.diagonal_loading_weights",),
    "baselines.capon_integral_weights.incl_s": ("baselines.capon_integral_weights",),
    "lcssp.weights.incl_s": ("lcssp.reconstruct_ipnc", "lcssp.lcssp_weights"),
}
MODULES = ("array_model", "kernels", "covariance", "baselines", "lcssp", "metrics")
ROOT_SPAN = "harness.run_experiment"
CSV_SPAN = "harness.emit_csv"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def import_beamlab():
    """Import beamlab from this checkout's ``src/``; exit non-zero when absent."""
    if not (SRC / "beamlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no beamlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamlab

    if SRC.resolve() not in Path(beamlab.__file__).resolve().parents:
        sys.exit(f"perfbench: imported beamlab from {beamlab.__file__}, not {SRC}")
    return beamlab


def provenance(bl):
    import numpy as np
    import scipy

    info = {
        "git": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "beamlab": getattr(bl, "__version__", None),
        "blas": None,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "numba": None,
        "backend": bl.active_backend() if hasattr(bl, "active_backend") else None,
    }
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        info["git"] = git.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numba

        info["numba"] = numba.__version__
    except ImportError:
        pass
    return info


class Side:
    """A ``side.py`` process that sweeps one source tree on request."""

    def __init__(self, src, name, seed, work_dir, env):
        Path(work_dir).mkdir()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "side.py"), str(src), name, str(seed), str(work_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        )
        if self._answer() != "ready":
            raise RuntimeError(f"perfbench: side process for {src} did not start")

    def _answer(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: side process exited")
        return line.strip()

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._answer()

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def median_ratio(live, seed):
    """Median of live[i] / seed[i] and live[i + 1] / seed[i] over all i.

    Seed round i runs between live rounds i and i + 1, so every live
    round is compared with both seed rounds next to it.
    """
    after = [a / b for a, b in zip(live, seed)]
    before = [a / b for a, b in zip(live[1:], seed)]
    return statistics.median(after + before)


def setup_times(name, seed, env, sides):
    """Wall seconds of fresh set-up processes per side, live projector seconds.

    The sides take turns, one process each.
    """
    walls, lcssp = {side: [] for side in sides}, []
    for _ in range(SETUP_PAIRS):
        for side in sides:
            src = SRC if side == "live" else SEEDCODE
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(src), name, str(seed)],
                capture_output=True, text=True, timeout=120, check=True, cwd=ROOT, env=env,
            )
            walls[side].append(time.perf_counter() - start)
            if side == "live":
                lcssp.append(json.loads(proc.stdout.strip().splitlines()[-1])["lcssp_setup_s"])
    return walls, lcssp


def measure_untraced(live, seed, seconds, nominal):
    """Rounds of the live and the seed side in turn: sweeps, then CSV writes.

    Every round starts right after a round of the other side, so both
    sides find the caches in the same state. A round repeats the sweep,
    and then ``emit_csv`` of the last sweep, as often as the run's first
    live round needed to spend ROUND_S on each; the sample is the mean.
    Each metric is the median ratio of a live round to the seed rounds
    just after and just before it.
    """
    samples = {f"{k}_{side}_s": [] for k in ("sweep", "csv") for side in ("live", "seed")}
    repeats = {}

    def live_round(kind):
        if kind in repeats:
            return float(live.ask(f"{kind} {repeats[kind]}")) / repeats[kind]
        spent, count = 0.0, 0
        while spent < ROUND_S:
            spent += float(live.ask(f"{kind} 1"))
            count += 1
        repeats[kind] = count
        return spent / count

    start = time.perf_counter()
    while len(samples["sweep_live_s"]) < MIN_PAIRS or time.perf_counter() - start < seconds:
        for kind in ("sweep", "csv"):
            samples[f"{kind}_live_s"].append(live_round(kind))
        for kind in ("sweep", "csv"):
            samples[f"{kind}_seed_s"].append(float(seed.ask(f"{kind} {repeats[kind]}")) / repeats[kind])
    samples["repeats_per_round"] = repeats
    sweep = median_ratio(samples["sweep_live_s"], samples["sweep_seed_s"]) * nominal["sweep_s"]
    csv = median_ratio(samples["csv_live_s"], samples["csv_seed_s"]) * nominal["csv_s"]
    return {"sweep_s": (sweep, "s"), "csv_s": (csv, "s")}, samples


def layer_metrics(summary, counters):
    """Per-layer metrics of one traced sweep plus its emit_csv."""

    def get(span, key):
        return summary.get(span, {}).get(key, 0)

    out = {}
    for span in COUNTED_SPANS:
        out[f"{span}.calls"] = (get(span, "calls"), "count")
        out[f"{span}.self_s"] = (get(span, "self_s"), "s")
    cond_calls = get("baselines.conditioned_matrix", "calls")
    out["baselines.loads"] = (counters["loads"], "count")
    out["baselines.loaded_ratio"] = (counters["loads"] / cond_calls if cond_calls else 0.0, "ratio")
    for metric, spans in METHOD_SPANS.items():
        out[metric] = (sum(get(s, "incl_s") for s in spans), "s")
    out["array_model.snapshot_bytes"] = (counters["snapshot_bytes"], "B")
    for module in MODULES:
        total = sum(v["self_s"] for k, v in summary.items() if k.split(".")[0] == module)
        out[f"{module}.self_s"] = (total, "s")
    sweep = get(ROOT_SPAN, "incl_s")
    out["harness.self_s"] = (get(ROOT_SPAN, "self_s"), "s")
    out["harness.self_share"] = (get(ROOT_SPAN, "self_s") / sweep if sweep else 0.0, "ratio")
    out["harness.emit_csv_s"] = (get(CSV_SPAN, "incl_s"), "s")
    out["trace.sweep_traced_s"] = (sweep, "s")
    out["trace.accounted_s"] = (
        sum(v["self_s"] for k, v in summary.items() if k != CSV_SPAN), "s"
    )
    out["trace.spans"] = (sum(v["calls"] for v in summary.values()), "count")
    return out


def measure_traced(run, seconds, work_dir):
    """Alternate untraced and traced sweeps; pool workloads add serial ones."""
    untraced, child_cpu, serial, reps = [], [], [], []
    start = time.perf_counter()
    while len(reps) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        result, elapsed, cpu = run.sweep()
        untraced.append(elapsed)
        child_cpu.append(cpu)
        run.write_csv(result)
        with Tracer(work_dir) as tracer:
            result, elapsed, _ = run.sweep()
            tracer.collect(ROOT_SPAN)
            run.write_csv(result)
        reps.append((elapsed, summarize(tracer.spans), tracer.counters))
        if run.workers > 1:
            serial.append(run.sweep(workers=1)[1])
    _, summary, counters = min(reps, key=lambda rep: rep[0])
    metrics = layer_metrics(summary, counters)
    sweep_s = min(untraced)
    metrics["trace.sweep_untraced_s"] = (sweep_s, "s")
    metrics["trace.overhead_s"] = (metrics["trace.sweep_traced_s"][0] - sweep_s, "s")
    metrics["harness.failed_points"] = (run.attempted_points - run.completed_points, "count")
    metrics["harness.csv_bytes"] = (run.csv_bytes, "B")
    metrics["harness.csv_rows"] = (run.csv_rows, "count")
    # Child CPU is the pool workers' only: set-up probes run after this.
    metrics["harness.worker_cpu_s"] = (min(child_cpu), "s")
    # Serial sweep over workers x parallel sweep; 1 by definition for one worker.
    efficiency = min(serial) / (run.workers * sweep_s) if serial else 1.0
    metrics["harness.pool_efficiency"] = (efficiency, "ratio")
    samples = {"sweep_untraced_s": untraced, "sweep_traced_s": [rep[0] for rep in reps]}
    if serial:
        samples["sweep_serial_s"] = serial
    return metrics, samples, tracer.missing


def main():
    # Turn a termination request into SystemExit so the side processes are
    # stopped, the work directory is removed and an open process pool is
    # shut down and joined.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    args = parse_args()
    # Child processes get the environment as it was before beamlab's
    # import, so nothing the live code sets reaches the seed code.
    env = dict(os.environ)
    bl = import_beamlab()
    seed = config_seed(args.seed)
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    sides, nominal, seed_report, missing = {}, None, None, []
    try:
        if args.trace:
            run = Run(bl, args.workload, seed, work_dir)
            run.warm_up()
            metrics, samples, missing = measure_traced(run, args.seconds, work_dir)
            report = run.report()
            probes = ("live",)
        else:
            with open(NOMINAL_PATH, encoding="utf-8") as fh:
                nominal = json.load(fh)[args.workload]
            for side, src in (("live", SRC), ("seed", SEEDCODE)):
                sides[side] = Side(src, args.workload, seed, work_dir / side, env)
            metrics, samples = measure_untraced(sides["live"], sides["seed"], args.seconds, nominal)
            report = json.loads(sides["live"].ask("report"))
            seed_report = json.loads(sides["seed"].ask("report"))
            metrics["points_per_s"] = (report["completed_points"] / metrics["sweep_s"][0], "1/s")
            metrics["peak_rss_mb"] = (report["peak_rss_kib"] / MB, "MB")
            probes = ("live", "seed")
        setup_walls, lcssp_setup = setup_times(args.workload, seed, env, probes)
    finally:
        for side in sides.values():
            side.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        metrics["lcssp.setup_s"] = (statistics.median(lcssp_setup), "s")
    else:
        ratio = median_ratio(setup_walls["live"], setup_walls["seed"])
        metrics["setup_s"] = (ratio * nominal["setup_s"], "s")
    for side, walls in setup_walls.items():
        samples[f"setup_{side}_s"] = walls
    samples["lcssp.setup_s"] = lcssp_setup
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": seed,
        "trials": WORKLOADS[args.workload].trials,
        "workers": WORKLOADS[args.workload].workers,
        "trace": args.trace,
        "nominal": nominal,
        "provenance": provenance(bl),
        "computed_counts": {
            f"harness.{key}": report[key]
            for key in ("completed_points", "attempted_points", "csv_bytes", "csv_rows")
        } | {k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")},
        "samples": samples,
        "untraced_functions": missing,
        "problems": report["problems"],
        "seed_side": seed_report,
    }
    print(json.dumps(info))
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {key} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))

if __name__ == "__main__":
    main()
