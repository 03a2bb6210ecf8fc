"""Stepper correctness, dealiasing, convergence order, and safety gates."""

import dataclasses

import numpy as np
import pytest
from scipy import fft as sfft

import shortpulse.evolve as evolve_module
from shortpulse._kernels import NonlinearKernel
from shortpulse.config import load_config
from shortpulse.errors import BlowUp, MeanDrift, StepRejected, WrapAround
from shortpulse.evolve import TAIL_TOL, Stepper, evolve
from shortpulse.spectral import Field, Grid
from conftest import gaussian_pulse
from oracles import (
    antiderivative,
    column_gaps,
    derivative,
    free_propagate,
    nonlinearity,
    self_convergence,
    solver_config,
)

# frozen from quadruple-resolution runs of the pinned data below
nonlin_exact_tol = 1e-11          # measured 3.8e-13 / 5.4e-14
richardson_window = (11.2, 20.8)  # 16 +- 30%; measured 16.164
richardson_err_ceiling = 1e-10    # measured 1.09e-11
snapshot_cache_tol = 1e-14        # measured 6.7e-16
# The kernel and the oracle below compute the same band-limited quantity
# through different transform code (the library's numpy.fft against
# scipy.fft, 2n vs 4n points) and different cubes (products vs **).  Each length <= 2^12 FFT costs about
# eps log2(N) = 2.7e-15 of the peak; four per side, amplified up to 3 times
# by the cube, bound the gap near 1e-13.
kernel_oracle_tol = 1e-13         # measured 1.0e-15
# Both kernels form the exact cube of the same band-limited input; only
# their FFT lengths (4K against 2n points) and so their rounding differ.
band_kernel_tol = 1e-15           # measured 7.1e-16 (n/4), 5.3e-16 (n/8)
# A band drops rows whose level sits below the TAIL_TOL it keeps at its
# top quarter, so a run that starts narrow may move the state by about
# that much of max|u| before it widens, and no more.
band_run_tol = 10.0 * TAIL_TOL    # measured 1.4e-14
# A band run's state stays within band_run_tol of the same run held at n/2,
# so each NormRecord column gets that bound of its scale; h1_rate_fd divides
# a difference of ||u_x||^2 by dt/2, and gets the acceptance battery's 1e-8.
held_band_tol = band_run_tol      # measured 2.3e-12 (uxLinf), 6.7e-13 (c34_jwt)
held_band_rate_tol = 1e-8         # measured 0 (bitwise equal)
# An error-controlled run against the fixed-dt run it replaces: the tests'
# 1e-8 agreement bound, of each NormRecord column's scale.
controlled_tol = 1e-8             # measured 7.4e-9 (JdxL2), 2.1e-9 (p32_ell_x)

MODES = ([3, 17, 40, 77, 170], [0.4, 0.3, 0.2, 0.1, 0.05],
         [0.0, 1.0, 2.0, 3.0, 4.0])


def mode_sum(grid, ks, amps, phases):
    vals = np.zeros(grid.n)
    for k, a, p in zip(ks, amps, phases):
        vals += a * np.cos(2.0 * np.pi * k * grid.x / grid.length + p)
    return Field(grid, vals)


def test_nonlinearity_of_zero_is_zero():
    g = Grid(1 << 8, 32.0)
    out = nonlinearity(Field(g, np.zeros(g.n)))
    assert np.all(out.values == 0.0)


def test_single_mode_cubic_has_closed_form():
    g = Grid(1 << 8, 2.0 * np.pi * 8)
    u = Field(g, np.cos(g.x))
    # (cos x)^3 = (3 cos x + cos 3x)/4, so d/dx(u^3) has two modes
    exact = -(3.0 * np.sin(g.x) + 3.0 * np.sin(3.0 * g.x)) / 4.0
    out = nonlinearity(u)
    assert np.max(np.abs(out.values - exact)) < 1e-13


def test_padded_product_matches_fine_grid_when_no_modes_are_lost():
    g = Grid(1 << 10, 100.0)
    gf = Grid(1 << 13, 100.0)
    u, uf = mode_sum(g, *MODES), mode_sum(gf, *MODES)
    oracle = derivative(gf, uf.values ** 3)[::8]
    scale = np.max(np.abs(oracle))
    got = nonlinearity(u).values
    assert np.max(np.abs(got - oracle)) / scale < nonlin_exact_tol


def test_padded_product_matches_band_restricted_fine_grid():
    # top input mode at 200: the true cubic exceeds the coarse Nyquist,
    # so the oracle is the fine result restricted to the coarse band
    ks = ([3, 17, 40, 77, 200], [0.4, 0.3, 0.2, 0.1, 0.05],
          [0.0, 1.0, 2.0, 3.0, 4.0])
    g = Grid(1 << 10, 100.0)
    gf = Grid(1 << 13, 100.0)
    u, uf = mode_sum(g, *ks), mode_sum(gf, *ks)
    fh = sfft.rfft(derivative(gf, uf.values ** 3))
    restricted = fh[: g.n // 2 + 1].copy() * (g.n / gf.n)
    restricted[-1] = 0.0
    oracle = sfft.irfft(restricted, g.n)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(nonlinearity(u).values - oracle)) \
        / scale < nonlin_exact_tol


def padded_cube_oracle(values, length):
    """d/dx (u^3) kept below Nyquist, with the input cut to the same band.

    u^3 is formed with ``**`` on a grid of 4n points, alias-free on the
    kept band.
    """
    n = values.size
    rows = np.arange(n // 2 + 1)
    vh = sfft.rfft(values)
    vh[-1] = 0.0
    fine = sfft.irfft(vh, 4 * n) * 4.0
    ph = sfft.rfft(fine ** 3)[: n // 2 + 1] / 4.0
    ph[-1] = 0.0
    return sfft.irfft(1j * (2.0 * np.pi / length) * rows * ph, n)


def test_kernel_matches_a_four_times_padded_power():
    # modes up to the last one below Nyquist, plus a Nyquist component
    # that both sides must drop; the 2n grid keeps every mode under Nyquist
    ks = ([3, 17, 40, 200, 511, 512], [0.4, 0.3, 0.2, 0.1, 0.05, 0.07],
          [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    g = Grid(1 << 10, 100.0)
    u = mode_sum(g, *ks).values
    kern = NonlinearKernel(g.n, g.length, g.n // 2)
    oracle = padded_cube_oracle(u, g.length)
    got = nonlinearity(Field(g, u)).values
    assert np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)) \
        < kernel_oracle_tol
    # irfft drops the imaginary part of the mean and Nyquist rows; both
    # must be exactly zero for the output to be the real field it claims
    spec = kern.spectrum(np.fft.rfft(u))
    assert spec[g.n // 2] == 0.0 and spec[0] == 0.0


@pytest.mark.parametrize("band", [1 << 8, 1 << 7])
def test_band_kernel_matches_the_full_grid_below_its_band(band):
    g = Grid(1 << 10, 100.0)
    u = mode_sum(g, [3, 17, 40, 77, 127], *MODES[1:]).values
    vh = np.fft.rfft(u)
    vh[band:] = 0.0
    full = NonlinearKernel(g.n, g.length, g.n // 2).spectrum(vh)
    got = NonlinearKernel(g.n, g.length, band).spectrum(vh)
    assert got.shape == full.shape
    assert np.max(np.abs(got[:band] - full[:band])) / np.max(np.abs(full)) \
        < band_kernel_tol
    assert np.all(got[band:] == 0.0)


def test_kernel_scratch_does_not_leak_between_calls():
    # the kernel transforms on arrays it holds across calls; each result
    # must be its own array, and a call must not see the previous input
    g = Grid(1 << 10, 100.0)
    kern = NonlinearKernel(g.n, g.length, g.n // 4)
    wide = np.fft.rfft(mode_sum(g, [3, 17, 40, 77, 170], *MODES[1:]).values)
    narrow = np.fft.rfft(mode_sum(g, [5, 9], [0.3, 0.2], [0.0, 1.0]).values)
    first = kern.spectrum(wide)
    kept = first.copy()
    quartic = kern.quartic_integral(wide)
    second = kern.spectrum(narrow)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, NonlinearKernel(g.n, g.length, g.n // 4)
                          .spectrum(narrow))
    assert np.array_equal(kern.spectrum(wide), kept)
    assert kern.quartic_integral(wide) == quartic


def test_a_tail_crossing_the_tolerance_widens_the_band_once(monkeypatch):
    cfg = solver_config(n=1 << 10, length=64.0, dt=0.02, t_final=1.0)
    u0 = gaussian_pulse(cfg.grid(), eps=0.03)
    traj = evolve(u0, cfg)
    # starts on n/4, then one rejected step doubles the band mid-run
    assert len(traj.band_widenings) == 1
    assert 0.0 < traj.band_widenings[0] < cfg.t_final
    assert traj.band == cfg.n // 2
    assert traj.tail_headroom is None  # n/2 has no top quarter to watch
    monkeypatch.setattr(Stepper, "start_band", lambda self, vh: self.nyq)
    full = evolve(u0, cfg)
    assert full.band_widenings == [] and full.tail_headroom is None
    a, b = traj.snapshots[-1].u.values, full.snapshots[-1].u.values
    assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < band_run_tol


def test_every_norm_column_of_a_band_run_matches_the_run_held_at_n_over_2(
        monkeypatch):
    # fixed steps, so that both runs step the same times
    cfg = solver_config(n=1 << 12, length=64.0, dt=0.02, step_tol=0.0,
                        t_final=4.0)
    u0 = gaussian_pulse(cfg.grid())
    band = evolve(u0, cfg)
    # a zero tolerance keeps every start and every check on n/2
    monkeypatch.setattr(evolve_module, "TAIL_TOL", 0.0)
    held = evolve(u0, cfg)
    # the band run widens twice, to n/4 at t = 1.82, and stays below n/2
    assert band.band == cfg.n // 4 and len(band.band_widenings) == 2
    assert held.band == cfg.n // 2 and held.band_widenings == []
    gaps = column_gaps(band.rows,
                       held.rows)
    for col, (gap, scale) in gaps.items():
        tol = held_band_rate_tol if col == "h1_rate_fd" else held_band_tol
        assert gap <= tol * scale, col


def test_tail_headroom_covers_only_the_steps_on_the_final_band(monkeypatch):
    cfg = solver_config(n=1 << 11, length=64.0, dt=0.02, t_final=1.0)
    levels, tail_level = [], Stepper._tail_level

    def keep_level(self, vh):
        levels.append((len(vh) - 1, tail_level(self, vh)))
        return levels[-1][1]

    monkeypatch.setattr(Stepper, "_tail_level", keep_level)
    traj = evolve(gaussian_pulse(cfg.grid()), cfg)
    # starts on n/8, then one step's tail doubles the band to n/4 for good
    assert len(traj.band_widenings) == 1 and traj.band == cfg.n // 4
    final = [level for band, level in levels if band == traj.band]
    assert traj.tail_headroom == max(final) / TAIL_TOL < 1.0


def test_a_broad_datum_starts_on_the_full_grid():
    cfg = solver_config(n=1 << 10, length=64.0, dt=0.02, t_final=1.0)
    u0 = gaussian_pulse(cfg.grid(), eps=0.05, width=0.2)
    stepper = Stepper(cfg)
    assert stepper.start_band(stepper.spectrum_of(u0.values)) == cfg.n // 2
    smooth = gaussian_pulse(cfg.grid(), eps=0.05, width=1.0)
    assert stepper.start_band(stepper.spectrum_of(smooth.values)) < cfg.n // 2


def test_zero_time_step_is_the_identity():
    cfg = solver_config(n=1 << 10, length=100.0, dt=0.01, t_final=1.0)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(gaussian_pulse(cfg.grid()).values)
    assert np.max(np.abs(stepper.step_raw(vh, 0.0, None)[0] - vh)) < 1e-15


def test_step_reduces_to_free_propagation_for_tiny_data():
    cfg = solver_config(n=1 << 10, length=100.0, dt=0.1, t_final=1.0)
    g = cfg.grid()
    u0 = gaussian_pulse(g, eps=1e-8)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(u0.values)
    stepped = stepper.values_of(stepper.step_raw(vh, 0.1, None)[0])
    free = free_propagate(g, u0.values, 0.1)
    assert np.max(np.abs(stepped - free)) / np.max(np.abs(u0.values)) < 1e-14


def test_forward_then_backward_step_returns_home():
    cfg = solver_config(n=1 << 10, length=100.0, dt=0.01, t_final=1.0)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(gaussian_pulse(cfg.grid()).values)
    back = stepper.step_raw(stepper.step_raw(vh, 0.01, None)[0], -0.01,
                            None)[0]
    assert np.max(np.abs(back - vh)) / np.max(np.abs(vh)) < 1e-12


def test_step_coefficient_cache_stays_bounded():
    # every snapshot ends on a one-off partial step; caching each of them
    # held 40 MB of coefficients by the end of a 322-snapshot n = 2^13 run
    cfg = solver_config(n=1 << 8, length=64.0, dt=0.01, t_final=1.0)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(gaussian_pulse(cfg.grid()).values)
    for k in range(1, 40):
        stepper.step_raw(vh, cfg.dt / k, None)
    assert len(stepper._coef) <= 8


def test_snapshot_rate_probe_shares_its_first_stage(monkeypatch):
    cfg = solver_config(n=1 << 8, length=64.0, dt=0.05, step_tol=0.0,
                        t_final=1.0, snap_t0=0.0)
    states, calls = [], []
    make_snapshot, spectrum = Stepper.make_snapshot, NonlinearKernel.spectrum

    def keep_state(self, t, vh):
        states.append(vh.copy())
        return make_snapshot(self, t, vh)

    def count(self, vh):
        calls.append(1)
        return spectrum(self, vh)

    monkeypatch.setattr(Stepper, "make_snapshot", keep_state)
    monkeypatch.setattr(NonlinearKernel, "spectrum", count)
    traj = evolve(gaussian_pulse(cfg.grid()), cfg)
    # 20 steps of 4 stages; per snapshot, one nl(vh) that S u in the record
    # and the +-h pair of probe steps share: 1 + 2 * 3, not 1 + 2 * 4; the
    # step after the t = 0 snapshot starts from that nl(vh), and each step's
    # nl(out) is the next step's first stage and the final snapshot's nl(vh)
    assert len(traj.snapshots) == 2
    assert len(calls) == 20 * 4 - 1 + 2 * (1 + 2 * 3)
    stepper, h = Stepper(cfg), 0.25 * cfg.dt
    for rec, vh in zip(traj.rows, states):
        up = stepper.step_raw(vh, h, None)[0]
        um = stepper.step_raw(vh, -h, None)[0]
        rate = (stepper.hx1_sq(up) - stepper.hx1_sq(um)) / (2 * h)
        assert rec.h1_rate_fd == rate


def test_halving_the_step_divides_the_error_by_sixteen():
    cfg = solver_config(n=1 << 12, length=200.0, dt=0.02, t_final=1.0)
    u0 = gaussian_pulse(cfg.grid())
    e1, e2, ratio = self_convergence(u0, cfg, dt_coarse=0.02)
    lo, hi = richardson_window
    assert lo <= ratio <= hi
    assert e1 < richardson_err_ceiling
    assert e2 < e1


def test_a_zero_step_tol_reproduces_a_fixed_dt_step_loop(monkeypatch):
    cfg = solver_config(n=1 << 9, length=64.0, dt=0.05, step_tol=0.0,
                        t_final=1.0, snap_t0=0.25, snap_h=0.5)
    u0 = gaussian_pulse(cfg.grid())
    # the full band on both sides, so the loop below needs no band rule
    monkeypatch.setattr(Stepper, "start_band", lambda self, vh: self.nyq)
    traj = evolve(u0, cfg)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(u0.values)
    vh[0] = 0.0
    t, states = 0.0, [vh]
    for target in cfg.snapshot_times()[1:]:
        while t < target * (1.0 - 1e-12) - 1e-12:
            remaining = target - t
            h = remaining if remaining <= cfg.dt * (1.0 + 1e-9) else cfg.dt
            vh = stepper.step_raw(vh, h, None)[0]
            t = target if h == remaining else t + h
        states.append(vh)
    assert len(traj.snapshots) == len(states) == 6
    for snap, state in zip(traj.snapshots, states):
        assert np.array_equal(snap.uh, state)
    assert traj.h_min == traj.h_max == cfg.dt and traj.rejected_steps == 0


def test_controlled_steps_obey_the_phase_cap_and_hit_the_snapshots(
        monkeypatch):
    cfg = solver_config(n=1 << 11, length=256.0, dt=0.02, t_final=4.0,
                        snap_t0=0.5, snap_h=0.5)
    accepted, step_checked = [], Stepper.step_checked

    def keep_step(self, vh, dt, nl_vh):
        out = step_checked(self, vh, dt, nl_vh)
        accepted.append(dt)
        return out

    monkeypatch.setattr(Stepper, "step_checked", keep_step)
    traj = evolve(gaussian_pulse(cfg.grid()), cfg)
    cap = 4.0 * np.pi / cfg.length
    assert traj.times == cfg.snapshot_times()
    assert len(accepted) == traj.steps and max(accepted) <= cap
    # the cap, not the tolerance, sets the longest steps on this box
    assert traj.h_max == cap and traj.h_min == cfg.dt


def test_controlled_and_fixed_steps_agree_in_every_norm_column():
    # the ref_grid box and horizon, where the phase cap (h <= 4 pi / L =
    # 0.0157), not the tolerance, sets the step; n is cut to keep it cheap
    cfg = solver_config(n=1 << 12, length=800.0, dt=0.01, t_final=16.0)
    u0 = gaussian_pulse(cfg.grid())
    controlled = evolve(u0, cfg)
    fixed = evolve(u0, dataclasses.replace(cfg, step_tol=0.0))
    assert controlled.steps < fixed.steps
    assert controlled.times == fixed.times
    gaps = column_gaps(controlled.rows,
                       fixed.rows)
    for col, (gap, scale) in gaps.items():
        assert gap <= controlled_tol * scale, col


def test_snapshots_cache_consistent_derivatives(mini_traj):
    snap = mini_traj.snapshots[len(mini_traj.snapshots) // 2]
    g = snap.u.grid
    ux = derivative(g, snap.u.values)
    ua = antiderivative(g, snap.u.values)
    scale = max(np.max(np.abs(ux)), 1e-300)
    assert np.max(np.abs(snap.u_x.values - ux)) / scale < snapshot_cache_tol
    scale_a = max(np.max(np.abs(ua)), 1e-300)
    assert np.max(np.abs(snap.u_anti.values - ua)) / scale_a \
        < snapshot_cache_tol


def test_snapshot_times_are_geometric_between_the_endpoints():
    cfg = solver_config(n=1 << 8, length=64.0, dt=0.02, t_final=64.0)
    times = cfg.snapshot_times()
    assert times[0] == 0.0 and times[-1] == cfg.t_final
    assert all(b > a for a, b in zip(times, times[1:]))
    interior = [t for t in times if 0.0 < t < cfg.t_final]
    ratios = [b / a for a, b in zip(interior, interior[1:])]
    assert all(abs(r - 2.0 ** cfg.snap_h) < 1e-12 for r in ratios)
    assert interior[0] == cfg.snap_t0


def test_config_hash_is_stable_and_sensitive(tmp_path):
    # a run's one identity is its experiment config's hash
    def config(dt):
        ini = tmp_path / f"dt{dt}.ini"
        ini.write_text(f"[solver]\ndt = {dt}\n")
        return load_config(ini)

    a, b, c = (config(dt) for dt in (0.02, 0.02, 0.01))
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()
    assert len(a.hash()) == 16


def test_zero_data_stays_zero():
    cfg = solver_config(n=1 << 9, length=64.0, dt=0.05, t_final=1.0)
    g = cfg.grid()
    traj = evolve(Field(g, np.zeros(g.n)), cfg)
    assert traj.status == "completed"
    assert max(np.max(np.abs(s.u.values)) for s in traj.snapshots) == 0.0


def test_nonzero_mean_data_is_rejected_up_front():
    cfg = solver_config(n=1 << 9, length=64.0, dt=0.05, t_final=1.0)
    g = cfg.grid()
    with pytest.raises(MeanDrift, match="mean"):
        evolve(Field(g, np.exp(-g.x ** 2)), cfg)


def test_violent_data_makes_the_controller_reject_and_shrink(monkeypatch):
    cfg = solver_config(n=1 << 10, length=64.0, dt=0.25, t_final=2.0)
    u0 = gaussian_pulse(cfg.grid(), eps=3.0)
    trials, step_checked = [], Stepper.step_checked

    def keep_trial(self, vh, dt, nl_vh):
        trials.append(dt)
        return step_checked(self, vh, dt, nl_vh)

    monkeypatch.setattr(Stepper, "step_checked", keep_trial)
    try:
        traj = evolve(u0, cfg)
    except StepRejected as err:
        assert "step-size collapse" in str(err)
        traj = err.trajectory
        assert traj.status == "StepRejected"
    else:
        assert traj.times == cfg.snapshot_times()
    # the first trial is dt, capped at 2 rad of row-1 phase; each rejection
    # redoes the step smaller, by a factor of at least 0.2
    assert trials[0] == min(cfg.dt, 4.0 * np.pi / cfg.length)
    assert traj.rejected_steps > 0
    assert min(trials) < trials[0]


def test_cumulative_growth_trips_the_blowup_gate():
    cfg = solver_config(n=1 << 11, length=64.0, dt=0.005, t_final=2.0,
                        snap_t0=0.05, snap_h=0.02)
    u0 = gaussian_pulse(cfg.grid(), eps=1.2)
    with pytest.raises(BlowUp, match="grew") as err:
        evolve(u0, cfg)
    traj = err.value.trajectory
    assert traj.status == "BlowUp"
    assert traj.snapshots[-1].t < 1.0


def test_mass_reaching_the_box_edge_trips_the_wrap_gate():
    cfg = solver_config(n=1 << 11, length=64.0, dt=0.02, t_final=16.0,
                        wrap_tol=0.005)
    u0 = gaussian_pulse(cfg.grid())
    with pytest.raises(WrapAround) as err:
        evolve(u0, cfg)
    traj = err.value.trajectory
    assert traj.status == "WrapAround"
    assert 2.0 < traj.snapshots[-1].t < 16.0


def test_trajectory_rejects_unordered_snapshots(mini_traj):
    with pytest.raises(ValueError):
        mini_traj.append(mini_traj.snapshots[0], mini_traj.rows[0])
