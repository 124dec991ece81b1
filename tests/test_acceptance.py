"""Shipping gate: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. Every test also enforces the runtime budget it was
given, measured after the session-wide kernel warmup fixture.
"""

import time

import numpy as np
import pytest

import oracle
from beamlab import (
    LcsspConfig,
    build_projection,
    default_config,
    emit_csv,
    lcssp_weights,
    normalized_error,
    optimal_weights,
    output_sinr,
    reconstruct_ipnc,
    run_experiment,
    select_dimension,
    selection_zeros,
    steering_matrix,
    steering_vector,
)

INTERFERERS = np.deg2rad([-30.0, 30.0])


def _lcssp_config(**overrides):
    base = dict(
        presumed_soi=0.0,
        soi_sector_halfwidth=np.deg2rad(6.0),
        nominal_interferers=INTERFERERS,
        delta=0.05,
        l_initial=10,
    )
    base.update(overrides)
    return LcsspConfig(**base)


def test_criterion_1_projector_properties():
    start = time.monotonic()
    for phi0_deg in (0.0, 10.0, -20.0):
        for l in (10, 20, 40):
            for hw_deg in (0.0, 6.0):
                cfg = _lcssp_config(
                    presumed_soi=np.deg2rad(phi0_deg),
                    soi_sector_halfwidth=np.deg2rad(hw_deg),
                )
                c = build_projection(cfg, l)
                zeros = selection_zeros(cfg.presumed_soi, l)
                retained = zeros[np.abs(zeros - cfg.presumed_soi) > cfg.soi_sector_halfwidth]
                assert np.max(np.abs(c - c.conj().T)) <= 1e-9
                assert np.max(np.abs(c @ c - c)) <= 1e-9
                eigs = np.linalg.eigvalsh(c)
                assert np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1))) <= 1e-9
                assert int(np.sum(eigs > 0.5)) == len(retained)
                center = steering_vector(np.deg2rad(phi0_deg), l)
                assert np.linalg.norm(c @ center) <= 1e-9
                kept = steering_matrix(retained, l)
                assert np.max(np.abs(c @ kept - kept)) <= 1e-9
    assert time.monotonic() - start < 1.0


def test_criterion_2_orthonormal_steering_basis():
    start = time.monotonic()
    for m in (2, 10, 20):
        angles = np.concatenate(([0.0], selection_zeros(0.0, m)))
        basis = steering_matrix(angles, m)
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(m))) <= 1e-10
    assert time.monotonic() - start < 1.0


def test_criterion_3_infinite_sample_optimality_without_mismatch():
    start = time.monotonic()
    m, l = 10, 20
    proj = build_projection(_lcssp_config(), l)
    presumed = steering_vector(0.0, m)
    inr = 1000.0  # 30 dB
    ipnc = oracle.covariance(INTERFERERS, [inr, inr], oracle.positions(m))
    tsv = steering_vector(0.0, m)
    for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0):
        soi_power = 10.0 ** (snr_db / 10.0)
        full = oracle.covariance([0.0, *INTERFERERS], [soi_power, inr, inr], oracle.positions(l))
        w = lcssp_weights(reconstruct_ipnc(proj, full, m), presumed)
        attained = output_sinr(w, soi_power, tsv, ipnc)
        best = output_sinr(optimal_weights(ipnc, tsv), soi_power, tsv, ipnc)
        assert best - attained <= 0.5
    assert time.monotonic() - start < 5.0


def test_criterion_4_beampattern_nulls_and_mainlobe():
    start = time.monotonic()
    res = run_experiment(default_config("beampattern"))
    x = res.x_values
    at_minus = np.argmin(np.abs(x + 30.0))
    at_plus = np.argmin(np.abs(x - 30.0))
    gains = res.raw["lcssp"][:, 0]
    assert gains[at_minus] <= -50.0
    assert gains[at_plus] <= -50.0
    assert abs(x[np.argmax(gains)]) <= 0.2
    shallower = res.raw["capon_integral"][:, 0]
    assert shallower[at_minus] > gains[at_minus]
    assert shallower[at_plus] > gains[at_plus]
    assert time.monotonic() - start < 10.0


def test_criterion_5_snr_sweep_tracks_optimal_and_beats_scm():
    start = time.monotonic()
    cfg = default_config("sinr_vs_snr")
    res = run_experiment(cfg)
    for meth in res.methods:
        assert np.all(res.n_ok[meth] == cfg.trials)
    deviation = res.mean_sinr_db["optimal"] - res.mean_sinr_db["lcssp"]
    assert np.all(deviation <= 2.0)
    high = res.x_values >= 10.0
    assert np.all(res.mean_sinr_db["lcssp"][high] > res.mean_sinr_db["scm_mvdr"][high])
    assert res.diagnostics["dominance_violations"] == 0
    assert time.monotonic() - start < 120.0


def test_criterion_6_snapshot_sweep_converges_and_is_monotone():
    start = time.monotonic()
    cfg = default_config("sinr_vs_snapshots")
    res = run_experiment(cfg)
    for meth in res.methods:
        assert np.all(res.n_ok[meth] == cfg.trials)
    lcssp = res.mean_sinr_db["lcssp"]
    deviation = res.mean_sinr_db["optimal"] - lcssp
    enough = res.x_values >= 30
    assert np.all(deviation[enough] <= 2.0)
    assert np.all(np.diff(lcssp) >= -0.5)
    assert time.monotonic() - start < 120.0


def test_criterion_7_inr_sweep_deviation_flat_and_bounded():
    start = time.monotonic()
    cfg = default_config("sinr_vs_inr")
    res = run_experiment(cfg)
    for meth in res.methods:
        assert np.all(res.n_ok[meth] == cfg.trials)
    deviation = res.mean_sinr_db["optimal"] - res.mean_sinr_db["lcssp"]
    assert np.all(deviation <= 2.0)
    assert deviation.max() - deviation.min() <= 1.5
    assert time.monotonic() - start < 120.0


def test_criterion_8_dimension_selection_terminates_and_improves():
    start = time.monotonic()
    cfg = _lcssp_config()
    chosen, _ = select_dimension(cfg)
    assert chosen <= 40
    eps_10 = normalized_error(build_projection(cfg, 10), INTERFERERS)
    eps_20 = normalized_error(build_projection(cfg, 20), INTERFERERS)
    assert eps_20 < eps_10
    assert time.monotonic() - start < 1.0


def test_criterion_9_same_seed_runs_are_byte_identical(tmp_path):
    cfg = default_config("sinr_vs_snr")
    cfg.trials = 5
    cfg.snr_grid_db = [0.0, 10.0, 20.0]
    first = emit_csv(run_experiment(cfg), tmp_path / "first.csv")
    second = emit_csv(run_experiment(cfg), tmp_path / "second.csv")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    bp = default_config("beampattern")
    third = emit_csv(run_experiment(bp), tmp_path / "third.csv")
    fourth = emit_csv(run_experiment(bp), tmp_path / "fourth.csv")
    for a, b in zip(third, fourth):
        assert a.read_bytes() == b.read_bytes()
