"""Shared fixtures."""

import numpy as np
import pytest

from beamlab import harness


@pytest.fixture
def negative_ipnc(monkeypatch):
    """Make the true IPNC negative definite at chosen (trial, x index) points.

    Every method's output power w^H R w is then negative at those points,
    so each of them fails in ``output_sinr`` whatever the order of the
    arithmetic, and no other point fails. Where a trial's points share
    their IPNC, the optimal weights of the whole trial come from its
    first point. Call the fixture with the set of points.
    """

    def poison(points_to_fail):
        draw = harness._draw_points

        def poisoned(config, x_values, trials, n_generate):
            points = draw(config, x_values, trials, n_generate)
            for t, trial in enumerate(trials):
                for ix in range(len(x_values)):
                    if (trial, ix) in points_to_fail:
                        points.ipnc[t * len(x_values) + ix] = -np.eye(config.m)
            return points

        monkeypatch.setattr(harness, "_draw_points", poisoned)

    return poison
