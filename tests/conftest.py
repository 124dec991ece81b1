"""Shared fixtures."""

import dataclasses

import numpy as np
import pytest

from beamlab import harness


@pytest.fixture
def negative_ipnc(monkeypatch):
    """Make the true IPNC negative definite at chosen (trial, x index) points.

    Every method's output power w^H R w is then negative at those points,
    so each of them fails in ``output_sinr`` whatever the order of the
    arithmetic, and no other point fails. The draw's IPNCs are first
    expanded to one per (trial, x) point, so a trial's other points keep
    their own. Call the fixture with the set of points.
    """

    def poison(points_to_fail):
        draw = harness._draw_points

        def poisoned(config, x_values, trials, *args):
            points = draw(config, x_values, trials, *args)
            ipnc = np.broadcast_to(points.ipnc, (*points.shape, config.m, config.m)).copy()
            for t, trial in enumerate(trials):
                for ix in range(len(x_values)):
                    if (trial, ix) in points_to_fail:
                        ipnc[t, ix] = -np.eye(config.m)
            return dataclasses.replace(points, ipnc=ipnc)

        monkeypatch.setattr(harness, "_draw_points", poisoned)

    return poison


@pytest.fixture(scope="session")
def drawn_covariances():
    """The (T, X, L, L) stack of the extended covariances that
    ``harness._draw`` hands its reduction, trial by trial; ``n_generate``
    defaults to the config's fixed l."""

    def collect(config, x_values, trials, n_generate=None):
        covariances = []
        x_values = np.asarray(x_values, dtype=float)
        n_generate = config.l if n_generate is None else n_generate
        harness._draw(config, x_values, trials, n_generate, lambda t, cov: covariances.append(cov))
        return np.stack(covariances)

    return collect
