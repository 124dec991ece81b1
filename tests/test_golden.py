"""Each golden case of ``tests/golden/`` (``make_golden.py``) still holds.

On the numpy version and OpenBLAS core that wrote a case, every field must
match exactly: raw bits, CSV hashes, failure texts and ``epsilon_n``. On
another, the bits may move by rounding, so the test compares the raw
values within TOL_DB, ``epsilon_n`` within TOL_EPSILON, and ``n_ok``,
``l_chosen`` and the failure records exactly, each failure's error to its
type, since the text prints a condition number or a best error. The
beampattern's raw values are stored as a hash of their bits (its nulls
near -320 dB move by whole dB under a last-bit change), so off the case's
provenance only its ``n_ok`` is compared.
"""

import json

import numpy as np
import pytest

import make_golden

# Largest difference of a raw value in dB off the case's provenance. It
# catches a relative change of 1e-6 in the SOI power, which moves each
# SINR by 4.3e-6 dB.
TOL_DB = 1e-6
# Largest difference of epsilon_n, LCSSP's normalized projection error,
# which is of order 1e-15 and is compared with delta (at least 1e-4 here).
TOL_EPSILON = 1e-12


def _values(hexes):
    return np.vectorize(float.fromhex, otypes=[float])(np.array(hexes))


def _kinds(failures):
    return [{**rec, "error": rec["error"].split(":")[0]} for rec in failures]


@pytest.mark.parametrize("name", sorted(make_golden.CASES))
def test_golden_case(name):
    golden = json.loads((make_golden.GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    case = make_golden.record(name)
    assert case["config"] == golden["config"]
    assert case["n_ok"] == golden["n_ok"]
    assert case["l_chosen"] == golden["l_chosen"]
    assert _kinds(case["failures"]) == _kinds(golden["failures"])
    if "raw" in golden:
        values = _values(case["raw"])
        np.testing.assert_allclose(values, _values(golden["raw"]), rtol=0, atol=TOL_DB)
    if golden["epsilon_n"] is not None:
        epsilon = float.fromhex(case["epsilon_n"]) - float.fromhex(golden["epsilon_n"])
        assert abs(epsilon) <= TOL_EPSILON
    if case["provenance"] == golden["provenance"]:
        assert case == golden
