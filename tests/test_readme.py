"""The README's library examples run as written."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

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
