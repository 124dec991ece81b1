"""Record the reference outputs that the benchmark's gate checks.

Runs every workload serially at every seed in ``REF_SEEDS`` on the
frozen seed code under ``seedcode/``, the code the benchmark was defined
on, and writes ``reference.json`` next to this file. Rerun it only when
a workload's config changes, never to make a changed program pass.

Usage: python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "seedcode"))

import beamlab as bl  # noqa: E402

from workloads import REF_SEEDS, REFERENCE_PATH, WORKLOADS, digest, make_config  # noqa: E402


def main():
    reference = {}
    for name in WORKLOADS:
        reference[name] = {}
        for seed in REF_SEEDS:
            result = bl.run_experiment(make_config(bl, name, seed), workers=1)
            failures = len(result.diagnostics["failures"])
            violations = result.diagnostics["dominance_violations"]
            if failures or violations:
                sys.exit(f"{name} seed {seed}: {failures} failures, {violations} violations")
            reference[name][str(seed)] = digest(result)
            print(f"{name} seed {seed}: ok", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
