"""Write the golden cases of ``tests/golden/`` from the library.

Each case runs one small config, at seed 7 and 3 trials, and stores in
``tests/golden/<case>.json``:

* the normalized config;
* the sha256 of its aggregate and raw CSVs;
* its raw (x, method, trial) values as ``float.hex`` strings, or for the
  beampattern, whose 1801 angles would make the file about 0.7 MB, the
  sha256 of their bits;
* ``n_ok``, the failure records, ``l_chosen`` and ``epsilon_n``;
* the provenance the bits depend on: the numpy version and the core
  OpenBLAS picked for this CPU.

``test_golden.py`` compares every tree with these files. Regenerating them
is a deliberate act: say which cases moved and why. Run from the
repository root::

    PYTHONPATH=src python tests/make_golden.py
"""

import ctypes
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from beamlab import default_config, emit_csv, run_experiment

GOLDEN = Path(__file__).with_name("golden")
# Interferers that no extended dimension up to 8 m resolves to delta, so
# LCSSP fails at every point.
_NO_CONVERGENCE = {"interferers_deg": [-31.7, 28.3], "delta": 1e-4, "l": "auto"}
# name: (experiment, overrides of its defaults)
CASES = {
    "beampattern": ("beampattern", {}),
    "sinr_vs_snr": ("sinr_vs_snr", {}),
    "sinr_vs_snapshots": ("sinr_vs_snapshots", {}),
    "sinr_vs_inr": ("sinr_vs_inr", {}),
    # k 2000 sums its Gram over several column blocks (config.GRAM_BLOCK).
    "snapshots_gram_blocks": ("sinr_vs_snapshots", {"k_grid": [5, 50, 500, 2000]}),
    "inr_auto": ("sinr_vs_inr", {"l": "auto"}),
    "no_convergence": ("sinr_vs_snr", {"methods": ["optimal", "lcssp"], **_NO_CONVERGENCE}),
    # The one-snapshot points fail, and their stacks are redone point by point.
    "redo_m100_l110": ("sinr_vs_snapshots", {"m": 100, "l": 110, "k_grid": [1, 5]}),
}


def provenance():
    """The numpy version and the name of the core OpenBLAS picked, None
    where numpy links another BLAS."""
    lib = ctypes.CDLL(_umath_linalg.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    names = [f"{p}openblas_get_corename{s}" for p in ("scipy_", "") for s in ("64_", "_64", "")]
    get = next(filter(None, (getattr(lib, name, None) for name in names)), None)
    if get is not None:
        get.restype = ctypes.c_char_p
    return {"numpy": np.__version__, "openblas_core": get and get().decode()}


def record(name):
    """The golden record of case ``name``, run by this tree."""
    experiment, overrides = CASES[name]
    config = default_config(experiment)
    config.trials, config.seed = 3, 7
    for key, value in overrides.items():
        setattr(config, key, value)
    result = run_experiment(config)
    with tempfile.TemporaryDirectory() as tmp:
        paths = emit_csv(result, Path(tmp) / f"{name}.csv")
        csv_sha256 = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
    raw = result.raw.table
    if experiment == "beampattern":
        values = {"raw_sha256": hashlib.sha256(raw.astype("<f8").tobytes()).hexdigest()}
    else:
        values = {"raw": np.vectorize(float.hex, otypes=[object])(raw).tolist()}
    diagnostics = result.diagnostics
    epsilon = diagnostics["epsilon_n"]
    return {
        "config": dataclasses.asdict(result.config),
        "csv_sha256": csv_sha256,
        **values,
        "n_ok": result.n_ok.table.tolist(),
        "failures": diagnostics["failures"],
        "l_chosen": diagnostics["l_chosen"],
        "epsilon_n": None if epsilon is None else float(epsilon).hex(),
        "provenance": provenance(),
    }


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        # One line per field, so a diff shows which fields moved.
        fields = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record(name).items()]
        path = GOLDEN / f"{name}.json"
        path.write_text("{\n" + ",\n".join(fields) + "\n}\n", encoding="utf-8")
        print(path, path.stat().st_size, file=sys.stderr)


if __name__ == "__main__":
    main()
