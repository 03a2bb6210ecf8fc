"""Packet probes, the limit ODE, and the long-time profile."""

import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortpulse import packets
from shortpulse.bands import bump
from shortpulse.errors import InsufficientData, OutOfBox, UnderResolved
from shortpulse.norms import SOBOLEV_S
from shortpulse.packets import (
    ALPHA,
    BUMP_INTEGRAL,
    HALF_WIDTH,
    SUMMARY_VELOCITIES,
    VELOCITIES,
    ProbeRecord,
    _packet_on_support,
    _ray_coefficients,
    attach_residuals,
    chi,
    extract_w,
    gamma,
    in_window,
    ode_residual_series,
    phase,
    phase_drift_fit,
    probe_snapshot,
    profile_remainder_series,
    prop42_errors,
    w_stability_series,
)
from shortpulse.spectral import Field, Grid, Snapshot
from conftest import PlainSnap
from oracles import (field_at, free_propagate, l2, linf_norm, project_plus_range,
                     sigma_range)

gamma_phase_tol = 1e-12        # measured 3.6e-13 on the n=2^15 box
gamma_linearity_tol = 1e-12    # measured 2.1e-16
ode_residual_tol = 1e-6        # measured 7.0e-8 (pure finite-difference error)
phase_fit_tol = 1e-12          # measured 4.4e-15
w_stability_tol = 1e-15        # measured 1.5e-17
support_sum_tol = 1e-14        # slice-local vs whole-grid gamma; measured 3.9e-16
bump_integral_tol = 1e-15      # closed form vs quad; measured 5.0e-16
# half- vs full-spectrum ray values over max|f|; measured 8.6e-15 / 1.5e-14
# (u / u_x) on the mini t=64 snapshot and 3.6e-14 / 4.3e-14 on white noise,
# where every mode up to the Nyquist row carries the rounding of its phase
# argument xi_k x (up to 1.6e3 rad at t = 4)
ray_sum_tol = 1e-13
freeflow_drift_ceiling = 0.05  # measured 0.012 per decade

# packet spectral-mass leak outside the matched band, frozen at t=25/100/200
concentration_frozen = (0.4048, 0.1418, 0.0729)

# masked-carrier ray errors at t=16/36/64, frozen
synthetic_ray_errors_u = (0.028020029334892918, 0.0071479489249517414,
                          0.0015155732784390141)


def packet(t, v, grid):
    """Psi_v(t, .) on the whole grid, zero off its support."""
    support, vals = _packet_on_support(t, v, grid)
    full = np.zeros(grid.n, dtype=np.complex128)
    full[support] = vals
    return full


def spectrum_concentration(t, v, grid, spec):
    """||(1 - P^+_{N/2^d <= . <= 2^d N}) Psi_v|| / ||Psi_v||, N the nearest
    scaled dyadic to xi_v: the fraction of the packet's L2 mass outside
    the band around N."""
    psi = packet(t, v, grid)
    xi_v = abs(v) ** -0.5
    n_v = 2.0 ** (spec.delta * round(np.log2(xi_v) / spec.delta))
    kept = project_plus_range(grid, psi, n_v * 2.0 ** -spec.delta,
                              n_v * 2.0 ** spec.delta, spec)
    total = l2(grid, psi)
    return l2(grid, psi - kept) / total if total else 0.0


def asymptotic_profile(t, x, v_probed, w_values):
    """The displayed main term of the long-time profile,

        (2/sqrt t) 1_{x<0} Re{ W(x/t) exp(i phi(t,x)
                               + 3i sqrt(t/|x|) |W(x/t)|^2 log t) },

    with W(x/t) linearly interpolated over the probed velocities.  Returns
    (values, mask of x outside the probed fan); there the clamped endpoint
    gives the value.
    """
    if not t >= 1.0:
        raise ValueError(f"profile needs t >= 1, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    v_probed = np.asarray(v_probed, dtype=np.float64)
    w_values = np.asarray(w_values, dtype=np.complex128)
    if v_probed.size != w_values.size or v_probed.size == 0:
        raise ValueError("need matching, nonempty v and W tables")
    order = np.argsort(v_probed)
    v_sorted, w_sorted = v_probed[order], w_values[order]
    v_ray = x / t
    w_ray = np.interp(v_ray, v_sorted, w_sorted.real) \
        + 1j * np.interp(v_ray, v_sorted, w_sorted.imag)
    neg = x < 0.0
    vals = np.zeros_like(x)
    if np.any(neg):
        xn, wn = x[neg], w_ray[neg]
        arg = phase(t, xn) + 3.0 * np.sqrt(t / np.abs(xn)) \
            * np.abs(wn) ** 2 * np.log(t)
        vals[neg] = 2.0 / np.sqrt(t) * (wn * np.exp(1j * arg)).real
    return vals, ((v_ray < v_sorted[0]) | (v_ray > v_sorted[-1])) & neg


def limit_ode_gamma(ts, g0, v):
    """Exact solution of gamma' = 3i |v|^{-1/2} |gamma|^2 gamma / t."""
    ts = np.asarray(ts, dtype=np.float64)
    rate = 3.0 * np.abs(v) ** -0.5 * abs(g0) ** 2
    return g0 * np.exp(1j * rate * np.log(ts))


def test_ray_phase_closed_values():
    assert phase(1.0, -1.0) == pytest.approx(-2.0, abs=1e-15)
    assert phase(4.0, -4.0) == pytest.approx(-8.0, abs=1e-15)
    assert phase(7.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        phase(0.0, -1.0)


def test_packet_center_value_and_support():
    g = Grid(1 << 13, 800.0)
    t, v = 25.0, -1.0
    psi = packet(t, v, g)
    center = int(np.argmin(np.abs(g.x - v * t)))
    expected = np.abs(v) ** -0.75 * chi(np.array([0.0]))[0]
    assert abs(psi[center]) == pytest.approx(expected, rel=1e-6)
    width = np.sqrt(t) * np.abs(v) ** 0.75
    outside = np.abs(g.x - v * t) > HALF_WIDTH * width
    assert np.max(np.abs(psi[outside])) == 0.0


def test_packet_rejects_bad_arguments():
    g = Grid(1 << 13, 800.0)
    with pytest.raises(ValueError):
        packet(0.5, -1.0, g)
    with pytest.raises(ValueError):
        packet(4.0, 1.0, g)
    coarse = Grid(1 << 7, 800.0)
    with pytest.raises(UnderResolved):
        packet(4.0, -1.0, coarse)
    with pytest.raises(OutOfBox):
        packet(500.0, -1.0, g)


def test_probe_amplitude_of_the_pure_carrier_is_sqrt_t():
    g = Grid(1 << 15, 800.0)
    t = 25.0
    snap = PlainSnap(t, g, np.exp(1j * phase(t, g.x)))
    gm = gamma(snap, -1.0)
    assert abs(gm - np.sqrt(t)) / np.sqrt(t) < gamma_phase_tol


def test_probe_amplitude_is_linear():
    g = Grid(1 << 15, 800.0)
    t, v = 25.0, -1.0
    u1 = np.exp(1j * phase(t, g.x)) * np.exp(-((g.x + 25.0) / 10.0) ** 2)
    u2 = Field(g, np.cos(g.x) * np.exp(-((g.x + 30.0) / 15.0) ** 2))
    g1 = gamma(PlainSnap(t, g, u1), v)
    g2 = gamma(Snapshot(t, u2), v)
    g12 = gamma(PlainSnap(t, g, 2.0 * u1 + 3.0 * u2.values), v)
    assert abs(g12 - (2.0 * g1 + 3.0 * g2)) / abs(g12) < gamma_linearity_tol


def test_probe_amplitude_of_zero_is_zero():
    g = Grid(1 << 13, 800.0)
    snap = Snapshot(4.0, Field(g, np.zeros(g.n)))
    assert gamma(snap, -1.0) == 0.0


def test_probe_amplitude_obeys_the_sup_bound():
    # |gamma| <= sqrt(t) ||u||_inf since the packet modulus integrates to
    # sqrt(t) by the unit-integral normalization of chi
    g = Grid(1 << 15, 800.0)
    t = 25.0
    u = Field(g, 0.1 * np.exp(1j * phase(t, g.x)).real
              * np.exp(-((g.x + 25.0) / 30.0) ** 2))
    gm = gamma(Snapshot(t, u), -1.0)
    assert abs(gm) <= np.sqrt(t) * linf_norm(u) * (1.0 + 1e-9)


def test_manufactured_amplitude_solves_the_limit_ode():
    v = -1.0
    ts = 20.0 * 2.0 ** (np.arange(28) / 8.0)
    gams = limit_ode_gamma(ts, 0.05 * np.exp(0.3j), v)
    t_mid, res = ode_residual_series(ts, gams, v)
    # the model term is exact here, so the residual is pure FD error
    rate_scale = np.abs(gams[1:-1]) * 3.0 * abs(0.05) ** 2 / t_mid
    assert np.max(np.abs(res) / rate_scale) < ode_residual_tol


def test_residual_series_needs_three_increasing_times():
    with pytest.raises(InsufficientData):
        ode_residual_series([1.0, 2.0], [1.0, 1.0], -1.0)
    with pytest.raises(ValueError):
        ode_residual_series([1.0, 2.0, 2.0], [1.0, 1.0, 1.0], -1.0)


def test_phase_drift_fit_recovers_the_model_rate():
    v = -1.0
    ts = 20.0 * 2.0 ** (np.arange(28) / 8.0)
    gams = limit_ode_gamma(ts, 0.05 * np.exp(0.3j), v)
    slope, target, relerr, drift = phase_drift_fit(ts, gams, v)
    assert relerr < phase_fit_tol
    assert slope == pytest.approx(3.0 * 0.05 ** 2, rel=1e-9)
    assert drift < phase_fit_tol
    # |gamma| ~ t^-0.02 moves log|gamma| by 0.02 log(10) per decade of t
    assert phase_drift_fit(ts, gams * ts ** -0.02, v)[3] == pytest.approx(
        0.02 * np.log(10.0), rel=1e-12)


def test_phase_drift_fit_needs_eight_samples():
    ts = 20.0 * 2.0 ** (np.arange(6) / 8.0)
    gams = limit_ode_gamma(ts, 0.05, -1.0)
    with pytest.raises(InsufficientData):
        phase_drift_fit(ts, gams, -1.0)


def test_corrected_state_is_steady_when_the_ode_holds():
    v = -1.0
    ts = 20.0 * 2.0 ** (np.arange(17) / 8.0)
    gams = limit_ode_gamma(ts, 0.05 * np.exp(0.3j), v)
    records = [ProbeRecord(t=float(t), v=v, gamma=gm,
                           w=extract_w(float(t), v, gm), approx_err_u=0.0,
                           approx_err_ux=0.0, in_window=True)
               for t, gm in zip(ts, gams)]
    out_t, sups = w_stability_series(records)
    assert len(out_t) > 0
    assert np.max(sups) < w_stability_tol


def test_corrected_state_at_unit_time_is_the_amplitude():
    gm = 0.3 + 0.4j
    assert extract_w(1.0, -1.0, gm) == gm


@settings(max_examples=40, deadline=None)
@given(re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0),
       t=st.floats(1.0, 1e6), v=st.floats(-4.0, -0.25))
def test_phase_correction_preserves_the_modulus(re, im, t, v):
    gm = complex(re, im)
    assert abs(abs(extract_w(t, v, gm)) - abs(gm)) <= 1e-12 * max(abs(gm), 1.0)


def test_velocity_window_boundaries():
    assert in_window(100.0, -1.0)
    assert not in_window(100.0, -3.0)
    root2 = 2.0 ** 0.5
    assert not in_window(5792.0, -root2)
    assert in_window(5793.0, -root2)


@pytest.mark.parametrize("half_width", [0.5, 0.75, 1.0 - 2.0 ** -0.5,
                                        1.0 - 2.0 ** -3, 0.3, 1.0])
def test_bump_integral_has_the_closed_form(half_width):
    from scipy.integrate import quad
    val, _ = quad(lambda y: bump(np.array([y]), half_width)[0],
                  -half_width, half_width,
                  epsabs=1e-14, epsrel=1e-14)
    assert abs(half_width * BUMP_INTEGRAL - val) <= bump_integral_tol * val


@pytest.mark.parametrize("half_width", [0.5, 1.0, 2.0, 3.0])
def test_packet_profile_has_unit_integral(monkeypatch, half_width):
    # chi reads HALF_WIDTH when called; 0.5 is the probes' own
    from scipy.integrate import quad
    monkeypatch.setattr(packets, "HALF_WIDTH", half_width)
    val, _ = quad(lambda y: chi(np.array([y]))[0], -half_width, half_width,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(val - 1.0) <= bump_integral_tol


def test_the_cli_import_path_leaves_out_scipy():
    # every transform runs on numpy.fft; importing scipy would cost each
    # command's start-up more than the rest of its imports together
    code = "import shortpulse.cli, sys; " \
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_window_exponent_respects_the_regularity_ceiling():
    s = SOBOLEV_S
    assert ALPHA < min(2.0 / 45.0, 2.0 / (2.0 * s + 1.0),
                       2.0 * (s - 4.0) / (3.0 * (s + 1.0)))


def test_default_velocity_ladder():
    assert len(VELOCITIES) == 17
    assert VELOCITIES[0] == pytest.approx(-0.25)
    assert VELOCITIES[-1] == pytest.approx(-4.0)
    assert -1.0 in VELOCITIES
    assert set(SUMMARY_VELOCITIES) <= set(VELOCITIES)


def test_probing_skips_rays_that_leave_the_box(mini_probe_records):
    first = {r.v for r in mini_probe_records if abs(r.t - 1.0) < 1e-9}
    last = {r.v for r in mini_probe_records if abs(r.t - 64.0) < 1e-9}
    assert len(first) == len(VELOCITIES)
    assert len(last) == 12       # fast rays reach the L=256 box edge
    assert -1.0 in last and -4.0 not in last


def test_probe_records_carry_consistent_corrected_states(mini_probe_records):
    worst = max(abs(abs(r.w) - abs(r.gamma)) for r in mini_probe_records)
    assert worst < 1e-15


def test_shared_spectra_leave_probe_records_bit_identical(mini_traj):
    # the last snapshot (t = 64) drops some rays, so the skip path runs too
    snap = mini_traj.snapshots[-1]
    expected = {}
    for v in VELOCITIES:
        try:
            gam = gamma(snap, v)
        except (OutOfBox, UnderResolved):
            continue
        expected[v] = (gam, extract_w(snap.t, v, gam),
                       *prop42_errors(snap, v, gam, _ray_coefficients(snap)))
    records = probe_snapshot(snap, Counter())
    assert 0 < len(records) < len(VELOCITIES)
    assert {r.v: (r.gamma, r.w, r.approx_err_u, r.approx_err_ux)
            for r in records} == expected


def test_residual_attachment_fills_only_the_interior(mini_probe_records):
    series = attach_residuals(list(mini_probe_records), -1.0)
    assert series[0].ode_residual is None
    assert series[-1].ode_residual is None
    assert all(r.ode_residual is not None for r in series[1:-1])
    with pytest.raises(InsufficientData):
        attach_residuals(series[:2], -1.0)


def test_packet_spectrum_concentrates_as_time_grows(cutoff):
    g = Grid(1 << 13, 800.0)
    leaks = [spectrum_concentration(t, -1.0, g, cutoff)
             for t in (25.0, 100.0, 200.0)]
    for got, frozen in zip(leaks, concentration_frozen):
        assert got == pytest.approx(frozen, abs=2e-2)
    assert leaks[0] > leaks[1] > leaks[2]
    assert leaks[2] < 0.1


def test_profile_vanishes_right_of_the_origin_and_for_zero_state():
    x = np.linspace(-100.0, 100.0, 201)
    vals, flagged = asymptotic_profile(25.0, x, [-2.0, -1.0, -0.5],
                                       [0.1 + 0.1j, 0.2j, 0.1])
    assert np.all(vals[x >= 0.0] == 0.0)
    assert not np.any(flagged[x >= 0.0])
    zeros, _ = asymptotic_profile(25.0, x, [-1.0], [0.0])
    assert np.all(zeros == 0.0)


def test_profile_flags_rays_outside_the_probed_fan():
    t = 10.0
    x = np.array([-40.0, -10.0, -1.0])
    vals, flagged = asymptotic_profile(t, x, [-2.0, -0.5], [0.1, 0.1])
    assert flagged.tolist() == [True, False, True]
    assert np.all(np.isfinite(vals))


def test_profile_rejects_bad_tables():
    with pytest.raises(ValueError):
        asymptotic_profile(0.5, [-1.0], [-1.0], [0.1])
    with pytest.raises(ValueError):
        asymptotic_profile(4.0, [-1.0], [-1.0, -0.5], [0.1])
    with pytest.raises(ValueError):
        asymptotic_profile(4.0, [-1.0], [], [])


def test_remainder_series_reads_the_stored_ray_errors():
    def ray(t, v, err_u, in_window):
        return ProbeRecord(t=t, v=v, gamma=0j, w=0j, approx_err_u=err_u,
                           approx_err_ux=0.0, in_window=in_window)

    recs = [
        ray(4.0, -1.0, 0.03, True),
        ray(4.0, -2.0, 0.05, True),
        ray(4.0, -4.0, 9.0, False),
        ray(9.0, -1.0, 0.02, True),
    ]
    ts, sups = profile_remainder_series(recs)
    assert ts.tolist() == [4.0, 9.0]
    assert sups[0] == pytest.approx(0.05 * 2.0)  # out-of-window ray ignored
    assert sups[1] == pytest.approx(0.02 * 3.0)


def test_band_limited_interpolation_is_exact_on_modes():
    g = Grid(1 << 10, 64.0)
    k = 6.0 * (2.0 * np.pi / g.length)
    u = Field(g, np.cos(k * g.x + 0.7))
    pts = np.array([-20.3, -5.17, 0.0, 3.33])
    got = field_at(u, pts)
    assert np.max(np.abs(got - np.cos(k * pts + 0.7))) < 1e-12
    assert field_at(u, g.x[37])[0] == pytest.approx(u.values[37], rel=1e-12)


def test_masked_carrier_ray_errors_shrink_with_time(cutoff):
    g = Grid(1 << 13, 800.0)
    c0 = 0.3 + 0.1j
    errs_u, errs_ux = [], []
    for t in (16.0, 36.0, 64.0):
        mask = sigma_range(cutoff, np.abs(g.x), t / 3.0, 200.0) * (g.x < 0.0)
        vals = 2.0 * t ** -0.5 * (np.exp(1j * phase(t, g.x)) * c0).real * mask
        snap = Snapshot(t, Field(g, vals))
        gm = gamma(snap, -1.0)
        eu, eux = prop42_errors(snap, -1.0, gm, _ray_coefficients(snap))
        errs_u.append(eu)
        errs_ux.append(eux)
    for got, frozen in zip(errs_u, synthetic_ray_errors_u):
        assert got == pytest.approx(frozen, rel=1e-4)
    assert errs_u[0] > errs_u[1] > errs_u[2]
    assert errs_ux[0] > errs_ux[1] > errs_ux[2]


def test_free_flow_amplitude_modulus_is_steady():
    g = Grid(1 << 16, 4800.0)
    u0 = Field(g, 0.05 * np.cos(g.x) * np.exp(-(g.x / 12.0) ** 2))
    ts = 100.0 * 2.0 ** (np.arange(28) / 8.0)
    mods = [abs(gamma(Snapshot(t, Field(g, free_propagate(g, u0.values, t))),
                      -1.0))
            for t in ts]
    drift = abs(np.log(mods[-1] / mods[0])) / np.log10(ts[-1] / ts[0])
    assert drift < freeflow_drift_ceiling


def whole_grid_packet(t, v, grid):
    """Psi_v(t, .) with chi and the carrier evaluated at every node."""
    width = np.sqrt(t) * np.abs(v) ** 0.75
    return np.abs(v) ** -0.75 * chi((grid.x - v * t) / width) \
        * np.exp(1j * phase(t, grid.x))


def time_of_left_edge(v, grid, left):
    """The t at which the packet support's left end v t - a w sits at left."""
    # |v| s^2 + a |v|^{3/4} s + left = 0 with s = sqrt(t)
    a, b = abs(v), HALF_WIDTH * abs(v) ** 0.75
    s = (-b + np.sqrt(b * b - 4.0 * a * left)) / (2.0 * a)
    return s * s


def test_packet_on_its_support_matches_the_whole_grid_packet(mini_traj):
    g = mini_traj.config.grid()
    snaps = [s for s in mini_traj.snapshots if s.t >= 1.0]
    # the support of this ray starts half a node spacing inside the box
    t_edge = time_of_left_edge(-1.0, g, -g.length / 2 + 0.5 * g.dx)
    assert -g.length / 2 < -t_edge - HALF_WIDTH * np.sqrt(t_edge) \
        < -g.length / 2 + g.dx
    edge = Snapshot(t_edge, mini_traj.snapshots[-1].u)
    checked = set()
    for snap in snaps + [edge]:
        u = np.asarray(snap.u.values)
        for v in VELOCITIES:
            try:
                got = gamma(snap, v)
                psi = packet(snap.t, v, g)
            except (OutOfBox, UnderResolved):
                continue
            whole = whole_grid_packet(snap.t, v, g)
            assert np.max(np.abs(psi - whole)) <= 1e-15 * np.max(np.abs(whole))
            want = complex(g.dx * np.sum(u * np.conj(whole)))
            assert abs(got - want) <= support_sum_tol * abs(want)
            checked.add((snap.t, v))
    assert (t_edge, -1.0) in checked
    assert len(checked) > 0.9 * len(snaps) * len(VELOCITIES)


@pytest.mark.parametrize("which", ["mini t=64", "noise t=4"])
def test_half_spectrum_ray_values_match_the_full_spectrum(mini_traj, which):
    # white noise fills the Nyquist row, which the snapshots leave empty
    g = mini_traj.config.grid()
    noise = Field(g, np.random.default_rng(11).standard_normal(g.n))
    snap = mini_traj.snapshots[-1] if which == "mini t=64" \
        else Snapshot(4.0, noise)
    gam = 0.01 + 0.02j
    t = snap.t
    for v in VELOCITIES:
        x_ray = v * t
        carrier = np.exp(1j * phase(t, x_ray))
        u_ray = field_at(snap.u, x_ray)[0]
        ux_ray = field_at(snap.u_x, x_ray)[0]
        want_u = abs(u_ray - 2.0 * t ** -0.5 * (carrier * gam).real)
        want_ux = abs(ux_ray - 2.0 * t ** -0.5 * abs(v) ** -0.5
                      * (1j * carrier * gam).real)
        err_u, err_ux = prop42_errors(snap, v, gam, _ray_coefficients(snap))
        assert abs(err_u - want_u) <= ray_sum_tol * np.max(np.abs(snap.u.values))
        assert abs(err_ux - want_ux) \
            <= ray_sum_tol * np.max(np.abs(snap.u_x.values))
