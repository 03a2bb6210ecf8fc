"""Wave-packet probes of the long-time behavior along rays x = v t.

The solution is paired against a localized oscillating packet

    Psi_v(t,x) = |v|^{-3/4} chi((x - v t) / (sqrt(t) |v|^{3/4})) e^{i phi(t,x)},
    phi(t,x)   = -2 sqrt(t |x|),

whose carrier matches the ray's stationary frequency xi_v = |v|^{-1/2}.
The resulting amplitude gamma(t,v) = integral u conj(Psi_v) dx obeys, to
leading order, the modulation law

    d/dt gamma = 3 i t^{-1} |v|^{-1/2} |gamma|^2 gamma,

so the phase-corrected extraction

    W(t,v) = gamma exp(-3 i |v|^{-1/2} |gamma|^2 log t)

stabilizes for large t.  Everything here is a pure function of stored
snapshots, and :func:`acceptance_statistics` is the one place where the
acceptance criteria's fits over the norm rows and probe tables are made.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._kernels import derivative_symbols
from .bands import bump
from .errors import (ConfigError, InsufficientData, MissingSnapshots, OutOfBox,
                     UnderResolved)
from .norms import decay_fit
from .storage import require_times

#: The integral of exp(-1/(1 - y^2)) over (-1, 1) (40-digit quadrature), so
#: that bump(., a) integrates to a * BUMP_INTEGRAL by the substitution y / a.
BUMP_INTEGRAL = 0.44399381616807943782
#: Support half-width a = 1 - 2^{-delta_p} of the bump chi, at the packet
#: frequency-window exponent delta_p = 1.
HALF_WIDTH = 0.5
#: Velocity-window exponent, below min(2/45, 2/(2s+1), 2(s-4)/(3(s+1))) =
#: 0.0444 at the working norm's s = :data:`shortpulse.norms.SOBOLEV_S`.
ALPHA = 0.04
#: The 17 probe rays -1/4 .. -4, a quarter octave apart.
VELOCITIES = tuple(-(2.0 ** (k / 4.0)) for k in range(-8, 9))
#: The rays of the per-ray acceptance statistics, in their reported order.
SUMMARY_VELOCITIES = (-1.0, -(2.0 ** -0.5), -(2.0 ** 0.5))


def in_window(t, v):
    """Velocity window: t^-alpha <= -v <= t^alpha."""
    return bool(t ** -ALPHA <= -v <= t ** ALPHA)


def chi(y):
    """The unit-integral bump: supp chi = [-a, a], integral chi = 1."""
    return bump(y, HALF_WIDTH) / (HALF_WIDTH * BUMP_INTEGRAL)


@dataclass
class ProbeRecord:
    """One (t, v) probe: amplitude, corrected state, residual, ray errors."""

    t: float
    v: float
    gamma: complex
    w: complex
    # filled in by attach_residuals once the neighbors exist
    ode_residual: complex = dc_field(default=None, init=False)
    approx_err_u: float
    approx_err_ux: float
    in_window: bool


def phase(t, x):
    """The ray phase phi(t,x) = -2 sqrt(t |x|)."""
    if not t > 0.0:
        raise ValueError(f"phase needs t > 0, got {t}")
    return -2.0 * np.sqrt(t * np.abs(x))


def _packet_on_support(t, v, grid):
    """(slice, values) of Psi_v(t, .) on the nodes inside its support.

    chi vanishes outside (vt - a w, vt + a w), so the packet is exactly
    zero on every node the slice leaves out.  Raises UnderResolved when dx
    is too coarse for the carrier (dx <= pi sqrt|v| / 4 required: >= 8
    points per wavelength) and OutOfBox when the chi support leaves the box
    interior.
    """
    if not t >= 1.0:
        raise ValueError(f"packet needs t >= 1, got {t}")
    if not v < 0.0:
        raise ValueError(f"packet needs v < 0, got {v}")
    width = np.sqrt(t) * np.abs(v) ** 0.75
    if grid.dx > np.pi * np.sqrt(np.abs(v)) / 4.0:
        raise UnderResolved(
            f"dx = {grid.dx:.4g} exceeds pi sqrt|v|/4 = "
            f"{np.pi * np.sqrt(np.abs(v)) / 4.0:.4g} at v = {v}")
    left, right = v * t - HALF_WIDTH * width, v * t + HALF_WIDTH * width
    half = grid.length / 2.0
    if left <= -half or right >= half:
        raise OutOfBox(
            f"packet support [{left:.4g}, {right:.4g}] leaves the box "
            f"[{-half:.4g}, {half:.4g}] at t = {t}, v = {v}")
    support = slice(int(np.searchsorted(grid.x, left, side="right")),
                    int(np.searchsorted(grid.x, right, side="left")))
    x = grid.x[support]
    vals = np.abs(v) ** -0.75 * chi((x - v * t) / width) \
        * np.exp(1j * phase(t, x))
    return support, vals


def gamma(snap, v):
    """The probe amplitude gamma(t,v) by rectangle-rule quadrature."""
    support, psi = _packet_on_support(snap.t, v, snap.u.grid)
    u = np.asarray(snap.u.values)[support]
    return complex(snap.u.grid.dx * np.sum(u * np.conj(psi)))


def extract_w(t, v, gam):
    """Phase-corrected final state W = gamma e^{-3i |v|^{-1/2} |gamma|^2 log t}."""
    return gam * np.exp(-3j * np.abs(v) ** -0.5 * abs(gam) ** 2 * np.log(t))


def ode_residual_series(ts, gammas, v):
    """Residuals r(t) = gamma_dot - 3i t^{-1} |v|^{-1/2} |gamma|^2 gamma.

    gamma_dot is a centered difference in log t (exact second order on
    geometric cadences; the non-uniform three-point weights keep it
    consistent on irregular spacings).  Returns (interior ts, residuals).
    """
    ts = np.asarray(ts, dtype=np.float64)
    gam = np.asarray(gammas, dtype=np.complex128)
    if ts.size < 3:
        raise InsufficientData(
            f"need >= 3 probe times for gamma_dot, got {ts.size}")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("probe times must be strictly increasing")
    tau = np.log(ts)
    hp = tau[2:] - tau[1:-1]
    hm = tau[1:-1] - tau[:-2]
    dgam_dtau = (hm / (hp * (hp + hm))) * gam[2:] \
        + ((hp - hm) / (hp * hm)) * gam[1:-1] \
        - (hp / (hm * (hp + hm))) * gam[:-2]
    t_mid = ts[1:-1]
    g_mid = gam[1:-1]
    gdot = dgam_dtau / t_mid
    model = 3j * np.abs(v) ** -0.5 * np.abs(g_mid) ** 2 * g_mid / t_mid
    return t_mid, gdot - model


def _ray_coefficients(snap):
    """Half-spectrum series of the real fields u and u_x of a snapshot, one
    row each: f(x) = Re sum_k a_k e^{i xi_k x} over k = 0 .. n/2 is the
    band-limited (trigonometric) interpolant of the node values.

    With x_j = -L/2 + j dx, a_k = w_k (-1)^k fh_k / n for the rfft fh of f
    (the snapshot's ``uh``, and i xi times it for u_x), where w_k = 2 counts
    the conjugate mode -k, except at k = 0 and at the Nyquist row, which
    have no partner in the half-spectrum.
    """
    g = snap.u.grid
    nyq = g.n // 2
    ik = derivative_symbols(g.n, g.length)[0]
    a = np.stack([snap.uh, ik * snap.uh]) * (g.phase[: nyq + 1] / g.n)
    a[:, 1:nyq] *= 2.0
    return a


def _half_waves(grid, x):
    """exp(i xi_k x) for k = 0 .. n/2, as products of two exponentials.

    With k = m q + r and m ~ sqrt(n/2), the m values exp(i r dxi x) and the
    n/(2m) + 1 values exp(i q m dxi x) give every row from about 2 sqrt(n/2)
    exponentials instead of n/2 + 1, at one more rounding per row.
    """
    nyq = grid.n // 2
    m = 1 << (nyq.bit_length() // 2)
    d = grid.dxi * x
    low = np.exp(1j * d * np.arange(m))
    high = np.exp(1j * (d * m) * np.arange(nyq // m + 1))
    return np.outer(high, low).ravel()[: nyq + 1]


def prop42_errors(snap, v, gam, coeffs):
    """Ray errors of the packet approximation at x = v t of a real snapshot.

    Returns |u(t,vt) - 2 t^{-1/2} Re(e^{i phi} gamma)| and the u_x
    analogue |u_x(t,vt) - 2 t^{-1/2} |v|^{-1/2} Re(i e^{i phi} gamma)|,
    from ``coeffs``, the snapshot's :func:`_ray_coefficients`.
    """
    t = snap.t
    x_ray = v * t
    carrier = np.exp(1j * phase(t, x_ray))
    u_ray, ux_ray = (coeffs @ _half_waves(snap.u.grid, x_ray)).real
    err_u = abs(u_ray - 2.0 * t ** -0.5 * (carrier * gam).real)
    err_ux = abs(ux_ray - 2.0 * t ** -0.5 * np.abs(v) ** -0.5
                 * (1j * carrier * gam).real)
    return float(err_u), float(err_ux)


def probe_snapshot(snap, skipped):
    """Probe one snapshot at every ray of :data:`VELOCITIES`.

    Velocities whose packet does not fit the box or the resolution are
    skipped (the probe set is ray-dependent by design); each skip adds one
    to the ``(v, reason)`` entry of the Counter ``skipped``, with the
    reason the exception's class name.  Residuals are filled in later by
    :func:`attach_residuals` once neighbors exist.
    """
    coeffs = _ray_coefficients(snap)
    records = []
    for v in VELOCITIES:
        try:
            gam = gamma(snap, v)
        except (OutOfBox, UnderResolved) as exc:
            skipped[(float(v), type(exc).__name__)] += 1
            continue
        err_u, err_ux = prop42_errors(snap, v, gam, coeffs)
        records.append(ProbeRecord(
            t=float(snap.t), v=float(v), gamma=gam, w=extract_w(snap.t, v, gam),
            approx_err_u=err_u, approx_err_ux=err_ux,
            in_window=in_window(snap.t, v)))
    return records


def attach_residuals(records, v):
    """Fill ode_residual on the interior records of one velocity's series."""
    series = sorted((r for r in records if r.v == v), key=lambda r: r.t)
    if len(series) < 3:
        raise InsufficientData(
            f"need >= 3 probe times at v = {v}, got {len(series)}")
    ts = [r.t for r in series]
    gams = [r.gamma for r in series]
    t_mid, res = ode_residual_series(ts, gams, v)
    for rec, r in zip(series[1:-1], res):
        rec.ode_residual = complex(r)
    return series


def phase_drift_fit(ts, gammas, v):
    """Fitted d(arg gamma)/d(log t) against the model 3 |v|^{-1/2} |gamma|^2.

    Returns (slope, target, relative error, modulus drift).  The target
    uses the median |gamma|^2 over the samples since the modulus is
    near-constant; the drift is |log(|gamma| last / first)| per decade of t.
    """
    ts = np.asarray(ts, dtype=np.float64)
    gam = np.asarray(gammas, dtype=np.complex128)
    if ts.size < 8:
        raise InsufficientData(
            f"need >= 8 samples for the phase fit, got {ts.size}")
    tau = np.log(ts)
    theta = np.unwrap(np.angle(gam))
    slope = np.polyfit(tau, theta, 1)[0]
    mods = np.abs(gam)
    target = 3.0 * np.abs(v) ** -0.5 * float(np.median(mods ** 2))
    if target == 0.0:
        return float(slope), 0.0, np.inf, np.nan
    drift = abs(np.log(mods[-1] / mods[0])) / np.log10(ts[-1] / ts[0])
    return float(slope), target, abs(slope - target) / target, float(drift)


def w_stability_series(records):
    """Sup over in-window velocities of |W(t,v) - W(2t,v)|, per t.

    Only velocities in-window at both t and 2t contribute; times whose
    double is not probed (to 1e-9 relative) are skipped.  Returns
    (ts, sups).
    """
    by_time = {}
    for rec in records:
        by_time.setdefault(rec.t, {})[rec.v] = rec
    times = sorted(by_time)
    out_t, out_s = [], []
    for t in times:
        t2 = next((s for s in times
                   if abs(s - 2.0 * t) <= 1e-9 * s), None)
        if t2 is None:
            continue
        diffs = [abs(by_time[t][v].w - by_time[t2][v].w)
                 for v in by_time[t]
                 if v in by_time[t2]
                 and by_time[t][v].in_window and by_time[t2][v].in_window]
        if diffs:
            out_t.append(t)
            out_s.append(max(diffs))
    return np.asarray(out_t), np.asarray(out_s)


def profile_remainder_series(records):
    """Sup over in-window rays of |u(t,vt) - profile(t,vt)| sqrt(t), per t.

    At probed rays the displayed profile collapses to
    2 t^{-1/2} Re(e^{i phi} gamma) (the W phase correction cancels by
    construction), so the remainder is the stored ray error.
    """
    by_time = {}
    for rec in records:
        if rec.in_window:
            by_time.setdefault(rec.t, []).append(rec.approx_err_u)
    ts = sorted(by_time)
    return (np.asarray(ts),
            np.asarray([max(by_time[t]) for t in ts]) * np.sqrt(ts))


def probe_trajectory(traj, t0, ratio):
    """Probe a trajectory at the cadence t0 * ratio^j up to its last
    snapshot, and at that last snapshot when no cadence time is it.

    The probe times are mapped onto the trajectory's times before any
    snapshot is read; its snapshots are then iterated once, in order, and
    only their records are kept, so a stored trajectory is read one field
    at a time.  Returns (probed times, records, skipped): the records carry
    their residuals on every ray of :data:`VELOCITIES` that has three probe
    times, and ``skipped`` is :func:`probe_snapshot`'s Counter.  Raises
    ConfigError for t0 < 1 (the packets need t >= 1) and MissingSnapshots
    for a cadence time the trajectory does not hold.
    """
    if t0 < 1.0:
        raise ConfigError("probing needs solver.snap_t0 >= 1 (the packets "
                          f"need t >= 1), got {t0:g}")
    stored = traj.times
    t_max = stored[-1]
    times = []
    t = t0
    while t <= t_max * (1.0 + 1e-9):
        times.append(t)
        t = t0 * ratio ** len(times)
    if not times:
        raise MissingSnapshots(f"the trajectory ends at t={t_max:g}, before "
                               f"the first probe time solver.snap_t0 = {t0:g}")
    picked = set(require_times(traj, times)) | {len(stored) - 1}
    probed, records, skipped = [], [], Counter()
    for i, snap in enumerate(traj.snapshots):
        if i in picked:
            probed.append(snap.t)
            records += probe_snapshot(snap, skipped)
    for v in VELOCITIES:
        try:
            attach_residuals(records, v)
        except InsufficientData:
            pass
    return probed, records, skipped


def _finite(fit):
    """``fit()``, a float or a tuple of floats, if finite, else None."""
    try:
        value = np.asarray(fit(), dtype=np.float64)
    except (InsufficientData, ValueError):
        return None
    return value.tolist() if np.all(np.isfinite(value)) else None


def acceptance_statistics(rows, records):
    """Every acceptance criterion's statistic of one run, from all its norm
    rows in time order and its probe records, residuals attached.

    t_max is the last row's time.  Returns (values, degenerate): a value
    that cannot be formed or is not finite is None, its key listed in
    ``degenerate``.  The per-ray keys hold one value per ray of
    :data:`SUMMARY_VELOCITIES` over [20, t_max], None for a ray with fewer
    than 8 samples there, and a key is degenerate when any ray is None.
    ``modulus_drift`` comes from the phase fit, is None exactly where
    ``phase_drift_relerr`` is, and is listed under that name.
    """
    t_max = rows[-1].t
    ts = [r.t for r in rows]
    l2 = np.array([r.L2 for r in rows])
    fd = np.array([r.h1_rate_fd for r in rows])
    flux = np.array([r.h1_rate_flux for r in rows])
    residual, relerr, drift = [], [], []
    for v in SUMMARY_VELOCITIES:
        ray = sorted((r for r in records if r.v == v and 20.0 <= r.t <= t_max),
                     key=lambda r: r.t)
        res = [r for r in ray if r.ode_residual is not None]
        residual.append(_finite(lambda: decay_fit(
            [r.t for r in res], [abs(r.ode_residual) for r in res])[0]))
        pair = _finite(lambda: phase_drift_fit(
            [r.t for r in ray], [r.gamma for r in ray], v)[2:])
        relerr.append(pair and pair[0])
        drift.append(pair and pair[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        values = {
            "linf_slope": _finite(lambda: decay_fit(
                ts, [r.Linf + r.uxLinf for r in rows], window=(10.0, t_max))[0]),
            "xs_exponent": _finite(lambda: decay_fit(
                ts, [r.Xs for r in rows], window=(1.0, t_max))[0]),
            "l2_drift": _finite(lambda: np.max(np.abs(l2 - l2[0])) / l2[0]),
            "h1_flux_gap": _finite(lambda: np.max(np.abs(fd - flux) / np.maximum(
                np.abs(flux), 1e-12 * np.max(np.abs(flux))))),
            "ode_residual_slope": residual,
            "phase_drift_relerr": relerr,
            "modulus_drift": drift,
            "W_stability_slope": _finite(lambda: decay_fit(
                *w_stability_series(records), window=(t_max / 10.0, t_max))[0]),
            "profile_remainder_slope": _finite(lambda: decay_fit(
                *profile_remainder_series(records), window=(20.0, t_max))[0]),
        }
    degenerate = [key for key, value in values.items() if key != "modulus_drift"
                  and (value is None or isinstance(value, list) and None in value)]
    return values, degenerate
