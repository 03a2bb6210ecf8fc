"""Acceptance battery on the reference desk configuration.

One test per acceptance criterion, asserting the stated thresholds against
a single shared reference run (n = 2^15, L = 800, eps = 0.1, T = 200, fixed
dt = 0.01), and one test holding the error-controlled run to it.  Each
statistic is the one ``scatter`` writes to scatter_summary.json, from
:func:`shortpulse.packets.acceptance_statistics`.  Each docstring quotes
the threshold; comments carry the measured values.

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

import pytest

from shortpulse import counterexample
from shortpulse.config import default_config
from shortpulse.evolve import evolve
from shortpulse.packets import acceptance_statistics, probe_trajectory
from conftest import gaussian_pulse
from oracles import (column_gaps, mean_coefficient, self_convergence,
                     solver_config)

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
def stats(reference):
    # the probe cadence t = 2^{j/8} ends at 197.4, so the T = 200 snapshot
    # is probed as the last one, as scatter probes it
    records = probe_trajectory(reference, reference.config.snap_t0,
                               default_config().cadence_ratio)[1]
    return acceptance_statistics([s.norms for s in reference.snapshots],
                                 records)[0]


def test_mass_and_mean_conservation(reference, stats):
    """L2 drift <= 1e-8 relative over [0, 200]; mean mode <= 1e-10."""
    assert stats["l2_drift"] <= 1e-8                     # measured 9.8e-15
    worst_mean = max(abs(mean_coefficient(s.u.grid, s.u.values))
                     for s in reference.snapshots)
    assert worst_mean <= 1e-10                           # measured 1.05e-17


def test_h1_flux_identity(stats):
    """Centered-difference d/dt ||u_x||^2 matches the cubic flux within
    1e-3 relative at every snapshot."""
    assert stats["h1_flux_gap"] <= 1e-3                  # measured 1.472e-4


def test_sup_norm_decay_rate(stats):
    """Fitted slope of log(Linf + uxLinf) over [10, 200] in [-0.6, -0.4]."""
    assert -0.6 <= stats["linf_slope"] <= -0.4           # measured -0.458


def test_xs_growth_exponent(stats):
    """Fitted exponent of the working norm over [1, 200] <= 0.1."""
    assert stats["xs_exponent"] <= 0.1                   # measured 0.034


def test_limit_ode_residual_decay(stats):
    """Residual of the limit ODE decays with slope <= -1.0 over [20, 200]
    on each probe ray."""
    # measured -1.132 / -1.332 / -0.924
    assert max(stats["ode_residual_slope"]) <= -1.0


def test_phase_drift_and_modulus(stats):
    """d(arg gamma)/d(log t) = 3 |v|^{-1/2} |gamma|^2 within 10% relative
    on [20, 200]; |gamma| drifts <= 5% per decade."""
    # measured relerr 3.185 / 2.270 / 5.889, drift 0.1185 / 0.1013 /
    # 0.0661: the decay of |gamma| along rays breaks both clauses at eps = 0.1
    assert max(stats["modulus_drift"]) <= 0.05
    assert max(stats["phase_drift_relerr"]) <= 0.10


def test_final_state_stabilization(stats):
    """||W(t) - W(2t)||_inf over in-window probes decays with fitted
    slope <= -0.05 over [20, 200]."""
    assert stats["W_stability_slope"] <= -0.05           # measured -0.723


def test_profile_remainder_decay(stats):
    """sqrt(t)-scaled gap to the asymptotic profile decays with slope
    <= -0.05 over [20, 200]."""
    # measured +0.665: gap sits at probe-packet mismatch level and does
    # not decay
    assert stats["profile_remainder_slope"] <= -0.05


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
