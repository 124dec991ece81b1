"""Command line entry points.

``beamlab run`` executes one experiment and writes its CSV pair into the
output directory. ``beamlab plot-script`` drops a standalone matplotlib
script next to the CSVs so plotting needs nothing from this package.

Exit codes: 0 on full success, 1 on configuration errors (an unusable
output directory among them) and on errors writing the CSVs or the plot
script, 2 when any trial point failed (results are still written; means
cover the successful trials only).
"""

import argparse
import sys
from pathlib import Path

from .config import ConfigError, _as_int, load_config
from .harness import emit_csv, run_experiment

PLOT_SCRIPT_NAME = "plot_results.py"

PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot result CSVs produced by beamlab run.

Usage: python3 plot_results.py [directory]

Reads every aggregate CSV in the directory (default: the directory this
script sits in), skips the *_raw.csv companions, and writes one PNG per
file next to it. Needs only the standard library and matplotlib.
"""

import csv
import sys
from collections import defaultdict
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

AXIS_LABELS = {
    "beampattern": ("angle (deg)", "normalized gain (dB)"),
    "sinr_vs_snr": ("input SNR (dB)", "output SINR (dB)"),
    "sinr_vs_snapshots": ("snapshots", "output SINR (dB)"),
    "sinr_vs_inr": ("input INR (dB)", "output SINR (dB)"),
}


def load_series(path):
    series = defaultdict(list)
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            try:
                x = float(row["x"])
                y = float(row["mean_sinr_db"])
            except (KeyError, TypeError, ValueError):
                return {}
            series[row["method"]].append((x, y))
    return series


def main():
    base = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent
    targets = sorted(p for p in base.glob("*.csv") if not p.stem.endswith("_raw"))
    wrote = 0
    for path in targets:
        series = load_series(path)
        if not series:
            print(f"skipping {path}: not a result file")
            continue
        fig, ax = plt.subplots(figsize=(7.0, 4.5))
        for method in sorted(series):
            points = sorted(series[method])
            ax.plot(
                [p[0] for p in points],
                [p[1] for p in points],
                label=method,
                linewidth=1.2,
            )
        xlabel, ylabel = AXIS_LABELS.get(path.stem, ("x", "output SINR (dB)"))
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        if path.stem == "sinr_vs_snapshots":
            ax.set_xscale("log")
        ax.set_title(path.stem)
        ax.grid(True, alpha=0.4)
        ax.legend(loc="best", fontsize=9)
        out = path.with_suffix(".png")
        fig.tight_layout()
        fig.savefig(out, dpi=150)
        plt.close(fig)
        print(f"wrote {out}")
        wrote += 1
    if wrote == 0:
        print(f"no result CSVs found in {base}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
'''


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamlab",
        description="Adaptive beamforming Monte Carlo experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write CSVs")
    run.add_argument("--config", type=Path, default=None, help="JSON config file")
    run.add_argument("--experiment", default=None, help="experiment name")
    run.add_argument("--seed", default=None, help="master seed")
    run.add_argument("--trials", default=None, help="Monte Carlo trials")
    run.add_argument("--out", type=Path, default=Path.cwd(), help="output directory")
    run.add_argument("--workers", default=1, help="parallel trial threads")
    dim = run.add_mutually_exclusive_group()
    dim.add_argument("--fix-l", default=None, dest="fix_l",
                     help="use this extended dimension")
    dim.add_argument("--auto-l", action="store_true", dest="auto_l",
                     help="select the extended dimension automatically")
    run.add_argument("--methods", default=None,
                     help="comma-separated subset of methods to run")

    plot = sub.add_parser("plot-script", help="write a standalone plotting script")
    plot.add_argument("--out", type=Path, default=Path.cwd(), help="output directory")
    return parser


def _overrides(args):
    out = {}
    if args.experiment is not None:
        out["experiment"] = args.experiment
    if args.seed is not None:
        out["seed"] = args.seed
    if args.trials is not None:
        out["trials"] = args.trials
    if args.fix_l is not None:
        out["l"] = _as_int(args.fix_l, "l")
    elif args.auto_l:
        out["l"] = "auto"
    if args.methods is not None:
        out["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
    return out


def _make_out_dir(out):
    """Create ``out``; False, with the config error printed, if that fails."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: cannot create output directory {out}: {err}", file=sys.stderr)
        return False
    return True


def _run(args):
    try:
        config = load_config(args.config, _overrides(args))
        workers = _as_int(args.workers, "--workers", minimum=1)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    if not _make_out_dir(args.out):
        return 1
    result = run_experiment(config, workers=workers)
    try:
        csv_path, raw_path = emit_csv(result, args.out / f"{config.experiment}.csv")
    except OSError as err:
        print(err, file=sys.stderr)
        return 1
    print(f"wrote {csv_path}")
    print(f"wrote {raw_path}")
    diag = result.diagnostics
    if diag["l_chosen"] is not None:
        print(f"extended dimension {diag['l_chosen']}, projection error {diag['epsilon_n']:.4g}")
    if diag["dominance_violations"]:
        print(f"warning: {diag['dominance_violations']} points beat the optimal bound",
              file=sys.stderr)
    failures = diag["failures"]
    if failures:
        print(f"{len(failures)} trial points failed; aggregates cover the rest",
              file=sys.stderr)
        for rec in failures[:5]:
            print(f"  trial {rec['trial']} x={rec['x']:g} {rec['method']}: {rec['error']}",
                  file=sys.stderr)
        if len(failures) > 5:
            print(f"  ... and {len(failures) - 5} more", file=sys.stderr)
        return 2
    return 0


def _plot_script(args):
    if not _make_out_dir(args.out):
        return 1
    target = args.out / PLOT_SCRIPT_NAME
    try:
        target.write_text(PLOT_SCRIPT, encoding="utf-8")
    except OSError as err:
        print(f"writing plot script to {target}: {err}", file=sys.stderr)
        return 1
    print(f"wrote {target}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "plot-script":
        return _plot_script(args)
    return _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
