"""Acceptance battery on the reference desk configuration.

One test per acceptance criterion, asserting the stated thresholds against
a single shared reference run (n = 2^15, L = 800, eps = 0.1, T = 200, fixed
dt = 0.01), and one test holding the error-controlled run to it.  Each
docstring quotes the threshold; comments carry the measured values.

Four tests fail and are left failing on purpose: the limit-ODE residual
decay on the ray v = -sqrt(2) (criterion 5), the phase-drift match
(criterion 6), the profile-remainder decay (criterion 8), and the scan's
fitted-exponent window (criterion 9; its runtime clause passes).  README.md
lists the numbers each one produces; the thresholds are asserted as stated
rather than loosened to force them green.
"""

import dataclasses
import json
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from shortpulse import counterexample
from shortpulse.config import default_config
from shortpulse.errors import InsufficientData
from shortpulse.evolve import evolve
from shortpulse.norms import decay_fit
from shortpulse.packets import (attach_residuals, phase_drift_fit,
                                probe_snapshot, profile_remainder_series,
                                w_stability_series)
from conftest import gaussian_pulse
from oracles import (column_gaps, mean_coefficient, self_convergence,
                     solver_config)

PROBE_VELOCITIES = (-1.0, -(2.0 ** -0.5), -(2.0 ** 0.5))
NORM_COLUMNS = ("L2", "Hs", "Hm1", "JdxL2", "Xs", "Linf", "uxLinf", "SuL2")


@pytest.fixture(scope="module")
def reference():
    # fixed steps of dt = 0.01, the conditions every measured value below
    # was recorded under; test_controlled_reference_run_matches_the_fixed_one
    # holds the error-controlled run to this one
    cfg = solver_config(n=1 << 15, length=800.0, dt=0.01, step_tol=0.0,
                        t_final=200.0, wrap_tol=0.02)
    return evolve(gaussian_pulse(cfg.grid()), cfg)


@pytest.fixture(scope="module")
def records(reference):
    out = []
    for snap in reference.snapshots:
        if snap.t >= 1.0:
            out.extend(probe_snapshot(snap, Counter()))
    for v in PROBE_VELOCITIES:
        try:
            attach_residuals(out, v)
        except InsufficientData:
            pass
    return out


@pytest.fixture(scope="module")
def rows(reference):
    return [snap.norms for snap in reference.snapshots]


def series(records, v, t_lo=20.0, t_hi=200.0):
    return sorted((r for r in records if r.v == v and t_lo <= r.t <= t_hi),
                  key=lambda r: r.t)


def test_mass_and_mean_conservation(reference, rows):
    """L2 drift <= 1e-8 relative over [0, 200]; mean mode <= 1e-10."""
    l2 = np.array([r.L2 for r in rows])
    assert np.max(np.abs(l2 - l2[0])) / l2[0] <= 1e-8    # measured 9.8e-15
    worst_mean = max(abs(mean_coefficient(s.u.grid, s.u.values))
                     for s in reference.snapshots)
    assert worst_mean <= 1e-10                           # measured 1.05e-17


def test_h1_flux_identity(rows):
    """Centered-difference d/dt ||u_x||^2 matches the cubic flux within
    1e-3 relative at every snapshot."""
    fd = np.array([r.h1_rate_fd for r in rows])
    flux = np.array([r.h1_rate_flux for r in rows])
    scale = np.max(np.abs(flux))
    rel = np.abs(fd - flux) / np.maximum(np.abs(flux), 1e-12 * scale)
    assert np.max(rel) <= 1e-3                           # measured 1.472e-4


def test_sup_norm_decay_rate(rows):
    """Fitted slope of log(Linf + uxLinf) over [10, 200] in [-0.6, -0.4]."""
    ts = np.array([r.t for r in rows])
    ys = np.array([r.Linf + r.uxLinf for r in rows])
    slope = decay_fit(ts, ys, window=(10.0, 200.0))[0]
    assert -0.6 <= slope <= -0.4                         # measured -0.458


def test_xs_growth_exponent(rows):
    """Fitted exponent of the working norm over [1, 200] <= 0.1."""
    ts = np.array([r.t for r in rows])
    ys = np.array([r.Xs for r in rows])
    slope = decay_fit(ts, ys, window=(1.0, 200.0))[0]
    assert slope <= 0.1                                  # measured 0.034


def test_limit_ode_residual_decay(records):
    """Residual of the limit ODE decays with slope <= -1.0 over [20, 200]
    on each probe ray."""
    for v in PROBE_VELOCITIES:
        ray = [r for r in series(records, v) if r.ode_residual is not None]
        ts = np.array([r.t for r in ray])
        ys = np.array([abs(r.ode_residual) for r in ray])
        slope = decay_fit(ts, ys)[0]
        assert slope <= -1.0        # measured -1.132 / -1.332 / -0.924


def test_phase_drift_and_modulus(records):
    """d(arg gamma)/d(log t) = 3 |v|^{-1/2} |gamma|^2 within 10% relative
    on [20, 200]; |gamma| drifts <= 5% per decade."""
    for v in PROBE_VELOCITIES:
        ray = series(records, v)
        ts = [r.t for r in ray]
        gams = [r.gamma for r in ray]
        relerr = phase_drift_fit(ts, gams, v)[2]
        mods = np.abs(gams)
        drift = abs(np.log(mods[-1] / mods[0])) / np.log10(ts[-1] / ts[0])
        # measured relerr 3.18 / 2.27 / 5.89, drift 0.119 / 0.101 / 0.066:
        # the decay of |gamma| along rays breaks both clauses at eps = 0.1
        assert drift <= 0.05
        assert relerr <= 0.10


def test_final_state_stabilization(records):
    """||W(t) - W(2t)||_inf over in-window probes decays with fitted
    slope <= -0.05."""
    ts, sups = w_stability_series(records)
    slope = decay_fit(ts, sups, window=(20.0, 200.0))[0]
    assert slope <= -0.05                                # measured -0.723


def test_profile_remainder_decay(records):
    """sqrt(t)-scaled gap to the asymptotic profile decays with slope
    <= -0.05 over [20, 200]."""
    ts, sups = profile_remainder_series(records)
    slope = decay_fit(ts, sups, window=(20.0, 200.0))[0]
    assert slope <= -0.05         # measured +0.665: gap sits at probe-
    #                               packet mismatch level and does not decay


def test_endpoint_estimate_scan():
    """Original-estimate ratio grows with exponent in [0.4, 0.6] and
    crosses 1; repaired ratio has exponent <= 0.05; runtime <= 10 s."""
    t0 = time.monotonic()
    rows, verdict = counterexample.failure_scan(
        0.25, [2.0 ** k for k in range(5, 11)])
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0          # measured 0.03 s to 0.37 s, 2 cores
    assert verdict["first_crossing_N"] is not None
    assert verdict["original_unbounded"] is True
    assert verdict["corrected_exponent"] <= 0.05         # measured -0.497
    # measured 0.657: the second right-side term still contributes over
    # N <= 2^10, lifting the fitted slope above the asymptotic 1/2 window
    assert 0.4 <= verdict["original_exponent"] <= 0.6


def test_identity_suite_cli():
    """The identity suite passes end to end within 30 seconds."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "shortpulse.cli", "selftest"],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0
    assert elapsed <= 30.0
    report = json.loads(proc.stdout)
    assert report["failed"] == 0 and report["passed"] == 10


def test_self_convergence_and_resolution(reference):
    """Halving dt shrinks the T = 1 error by a 4th-order factor in
    [10, 22]; doubling n moves every reported t = 1 norm <= 1e-8."""
    cfg = reference.config
    u0 = gaussian_pulse(cfg.grid())
    ratio = self_convergence(u0, cfg, cfg.dt, t_end=1.0)[2]
    assert 10.0 <= ratio <= 22.0                         # measured 16.5

    fine_cfg = solver_config(n=cfg.n * 2, length=cfg.length, dt=cfg.dt,
                             t_final=1.0, wrap_tol=cfg.wrap_tol)
    fine = evolve(gaussian_pulse(fine_cfg.grid()), fine_cfg)
    coarse_rec = reference.snapshots[1].norms
    fine_rec = fine.snapshots[-1].norms
    assert coarse_rec.t == 1.0 and fine_rec.t == 1.0
    for col in NORM_COLUMNS:                             # measured <= 9.4e-15
        a, b = getattr(coarse_rec, col), getattr(fine_rec, col)
        rel = abs(a - b) / abs(a) if a != 0.0 else abs(b)
        assert rel <= 1e-8, f"{col}: {rel}"


def test_controlled_reference_run_matches_the_fixed_one(reference):
    """The reference run at the default step_tol takes at least 1.5x fewer
    steps than at fixed dt and moves every norms.csv column by <= 1e-8 of
    that column's scale."""
    cfg = dataclasses.replace(reference.config,
                              step_tol=default_config().solver.step_tol)
    controlled = evolve(gaussian_pulse(cfg.grid()), cfg)
    # measured 12,770 steps against 20,029, none rejected
    assert 1.5 * controlled.steps <= reference.steps
    assert controlled.times == reference.times
    gaps = column_gaps([s.norms for s in controlled.snapshots],
                       [s.norms for s in reference.snapshots])
    # measured <= 3.3e-9, and <= 2.1e-9 for a monitor (c34_jwt)
    for col, (gap, scale) in gaps.items():
        assert gap <= 1e-8 * scale, col
