"""The README's library examples run as written, and its tables match the code."""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from beamlab import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(marker):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    matching = [block for block in blocks if marker in block]
    assert len(matching) == 1, f"expected one README python block with {marker!r}"
    return matching[0]


def test_readme_reconstruction_loop_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_python_block("reconstruct_ipnc"), str(README), "exec"), namespace)
    l, weights = namespace["l"], namespace["weights"]
    assert namespace["snapshots"].shape == (l, 50)
    assert namespace["ipnc"].shape == (10, 10)
    presumed = namespace["bl"].steering_vector(0.0, 10)
    assert abs(np.vdot(weights, presumed) - 1.0) < 1e-12
    assert np.isfinite(namespace["sinr_db"])
    assert out.getvalue().startswith(f"l = {l}, output SINR ")


def test_readme_config_table_lists_exactly_the_config_fields():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration file", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` ", section, re.M)
    assert listed == [f.name for f in fields(ExperimentConfig)]
