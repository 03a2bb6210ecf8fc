"""Time integration of u_t = dx^{-1} u + dx(u^3) by the integrating-factor
RK4 method around the exact linear flow.

The linear symbol 1/(i xi) is bounded on the grid (|xi| >= 2 pi / L), so
no stiffness treatment is needed: the integrating factor advances the
linear part exactly, and the cubic is dealiased by padding.

The stepper works on raw rfft half-spectra of the real solution; fields
are materialized only at snapshot times.  It steps only an active band of
modes |k| < K, held as the first K + 1 rfft rows (row K is zero), and
evaluates the cubic on 4K points; rows at or above K are exact zeros.  K
starts as small as the datum's spectral tail allows and doubles whenever
the tail at the top of the band rises above :data:`TAIL_TOL`.  Snapshots
pad the band back to the full grid for the diagnostics; S u, the rate
probe and the next step's first stage share one cubic of the snapshot
state on the band.

The step size is error-controlled: the embedded third-order solution of
ERK4(3)-IP (Balac & Mahe, Comput. Phys. Commun. 184 (2013) 1211) estimates
each step's local error from the step's last stage and the cubic of its
output, which is also the next step's first stage ("first same as last").
``step_tol = 0`` steps at the fixed ``dt`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import __version__, _kernels, norms
from .errors import (BandExceeded, BlowUp, MeanDrift, MonitorViolation,
                     StepRejected, WrapAround, check_ranges)
from .spectral import Field, Grid, Snapshot, check_zero_mean

# Largest max|v^| on the top quarter [3K/4, K) of the active band, relative
# to max|v^|, before K doubles.  A truncated spectral series errs by about
# its last kept coefficients, and the rows a band drops sit lower still: on
# the reference grid (n = 2^15, L = 800, T = 16) the tail falls from 3.7e-12
# on xi in [48, 64) to 2.1e-15 beyond 64 for the README datum (epsilon 0.1,
# width 1), and from 3.2e-9 to 1.7e-11 for epsilon 0.11, width 0.9.  1e-10
# is two decades under the tests' 1e-8 bounds and four over rounding; it
# keeps the README datum at K = n/4 (xi_K = 64.3) with 27x margin, never
# lets it down to n/8, whose top quarter [24, 32) reaches 5.3e-7, and makes
# the 0.11 / 0.9 datum widen to n/2.
TAIL_TOL = 1e-10
MIN_BAND = 16  # the narrowest band a run starts on
# Largest linear phase h / xi_1 of an error-controlled step on row 1
# (xi_1 = 2 pi / L), so h <= 4 pi / L.  The embedded estimate does not see
# the error of the slowest rows: on the reference grid (n = 2^15, L = 800,
# T = 16) at step_tol 1e-10 and no cap, it accepted steps of 14.5 rad on
# row 1 and left an error of 1.1e-5 of max|v^| in the final spectrum
# against fixed dt = 0.01.  Capped at 2 rad, the worst norms.csv column
# stays within 7.4e-9 of its scale; 3 rad gave 7.5e-8 and 6 rad 5.4e-6,
# against the tests' 1e-8.
PHASE_CAP = 2.0


@dataclass(frozen=True)
class SolverConfig:
    n: int
    length: float
    dt: float                      # first trial step; the step when step_tol = 0
    step_tol: float                # local error per step (0 = fixed dt)
    t_final: float
    mean_tol: float
    snap_t0: float                 # first geometric snapshot time (0 = none)
    snap_h: float                  # snapshots at t0 * 2^{m h}
    blowup_factor: float           # H1 doubling vs t=0 aborts the run
    wrap_tol: float                # L2 mass fraction in the outer box band
    outer_frac: float

    def __post_init__(self):
        check_ranges(self, (
            ("n", lambda n: n >= 2 and n & (n - 1) == 0, "be a power of two >= 2"),
            ("length", lambda v: v > 0.0, "be positive"),
            ("dt", lambda v: v > 0.0, "be positive"),
            ("step_tol", lambda v: v >= 0.0, "be >= 0"),
            ("t_final", lambda v: v > 0.0, "be positive"),
            ("mean_tol", lambda v: v > 0.0, "be positive"),
            ("snap_t0", lambda v: 0.0 <= v <= self.t_final, "lie in [0, T]"),
            ("snap_h", lambda v: v > 0.0, "be positive"),
            ("blowup_factor", lambda v: v > 1.0, "exceed 1"),
            ("wrap_tol", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
            ("outer_frac", lambda v: 0.0 < v < 0.5, "lie in (0, 1/2)"),
        ))

    def grid(self):
        return Grid(self.n, self.length)

    def snapshot_times(self):
        """{0} plus the geometric cadence t0 * 2^{m h} up to and incl. T."""
        times = [0.0]
        if self.snap_t0 > 0.0:
            m = 0
            while True:
                t = self.snap_t0 * 2.0 ** (m * self.snap_h)
                if t > self.t_final * (1.0 + 1e-12):
                    break
                times.append(min(t, self.t_final))
                m += 1
        if times[-1] < self.t_final:
            times.append(self.t_final)
        out = []
        for t in times:
            if not out or t > out[-1] * (1.0 + 1e-12) + 1e-15:
                out.append(t)
        return out


@dataclass
class Trajectory:
    config: SolverConfig
    # the snapshots in time order: a list, or any container with append and
    # iteration, such as storage.SnapshotFiles, which keeps them on disk
    snapshots: list = dc_field(default_factory=list)
    rows: list = dc_field(default_factory=list)  # each snapshot's NormRecord
    code_version: str = __version__
    status: str = "completed"
    steps: int = 0                 # accepted steps
    rejected_steps: int = 0        # steps redone smaller (not band redos)
    # the smallest and largest accepted step not cut short to land on a
    # snapshot time; None when there was none
    h_min: float = None
    h_max: float = None
    band: int = None               # the active band K (at the last snapshot
                                   # while the run goes, at its end after)
    band_widenings: list = dc_field(default_factory=list)  # t of each doubling
    # max top-quarter level / TAIL_TOL over the steps on the final band;
    # None when that band is n/2, which has no top quarter to watch
    tail_headroom: float = None

    def append(self, snap):
        """Add a snapshot that carries its NormRecord."""
        if self.rows and snap.t <= self.rows[-1].t:
            raise ValueError(
                f"snapshot times must increase: {snap.t} after "
                f"{self.rows[-1].t}"
            )
        self.snapshots.append(snap)
        self.rows.append(snap.norms)

    @property
    def times(self):
        return [row.t for row in self.rows]


class Stepper:
    """IFRK4 on raw rfft spectra.

    A state held as K + 1 rows is stepped on the band K: the cubic of the
    band-K kernel, the linear flow of its rows.  The full grid is the band
    n/2, whose K + 1 = n/2 + 1 rows are the whole half-spectrum.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.grid = cfg.grid()
        n = cfg.n
        self.nyq = n // 2
        xi = _kernels.rfft_xi(n, cfg.length)
        self.lam = _kernels.derivative_symbols(n, cfg.length)[1]
        # H1 and u_x weights; a band state reads its first K + 1 rows
        w = norms.parseval_weights(n, cfg.length)
        self.h1w, self.hx1w = w * (1.0 + xi ** 2), w * xi ** 2
        self._coef = {}
        self.tail_peak = None  # largest accepted tail level on this band < n/2

    def spectrum_of(self, values):
        vh = np.fft.rfft(np.asarray(values, dtype=np.float64))
        vh[self.nyq] = 0.0
        return vh

    def values_of(self, vh):
        return np.fft.irfft(vh, self.cfg.n)

    def h1_norm(self, vh):
        return float(np.sqrt(np.sum(self.h1w[: len(vh)] * np.abs(vh) ** 2)))

    def hx1_sq(self, vh):
        """||u_x||_{L2}^2 from the rows of a band state."""
        return float(np.sum(self.hx1w[: len(vh)] * np.abs(vh) ** 2))

    def start_band(self, vh):
        """The smallest K in n/2, n/4, ... (down to MIN_BAND) such that every
        row from 3K/4 up, the band's top quarter and all it drops, is at
        most TAIL_TOL of max|v^|."""
        mag = np.abs(vh)
        floor = TAIL_TOL * mag.max()
        band = self.nyq
        while band // 2 >= MIN_BAND and mag[3 * band // 8:].max() <= floor:
            band //= 2
        return band

    @staticmethod
    def widen(vh, band):
        """The band-K state vh held on the band ``band`` >= K: zero rows
        appended, exactly, since rows at or above K are zero."""
        if len(vh) == band + 1:
            return vh
        out = np.zeros(band + 1, dtype=np.complex128)
        out[: len(vh)] = vh
        return out

    def _tail_level(self, vh):
        """max|v^| on the band's top quarter [3K/4, K) over max|v^|."""
        mag = np.abs(vh)
        peak = mag.max()
        band = len(vh) - 1
        return float(mag[3 * band // 4: band].max() / peak) if peak > 0 else 0.0

    def _coefficients(self, dt):
        c = self._coef.get(dt)
        if c is None:
            # the last step before each snapshot has a one-off size; a
            # bounded cache keeps those from piling up over the run
            if len(self._coef) >= 8:
                self._coef.clear()
            e_half = np.exp(0.5 * (self.lam * dt))
            c = self._coef[dt] = (e_half, e_half * e_half)
        return c

    def _nl(self, vh):
        """The rfft rows of d/dx(u^3) for a state held on its band."""
        return _kernels.nonlinear_kernel(
            self.cfg.n, self.cfg.length, len(vh) - 1).spectrum(vh)

    def step_raw(self, vh, dt, nl_vh):
        """One integrator step on the band of vh; no monitors.

        Returns the new state and the step's last stage d = dt nl(.), which
        the embedded error estimate needs.  ``nl_vh`` is nl(vh), the first
        stage's nonlinear term, when the caller holds it, so that steps of
        several sizes from one state evaluate it once; None makes the step
        evaluate it.
        """
        rows = len(vh)
        nl = self._nl
        e, e2 = self._coefficients(dt)
        e, e2 = e[:rows], e2[:rows]
        a = dt * (nl(vh) if nl_vh is None else nl_vh)
        b = dt * nl(e * (vh + 0.5 * a))
        c = dt * nl(e * vh + 0.5 * b)
        d = dt * nl(e2 * vh + e * c)
        return e2 * vh + (e2 * a + 2.0 * e * (b + c) + d) / 6.0, d

    def step_checked(self, vh, dt, nl_vh):
        """One step with its monitors -> (state, nl(state), local error).

        :class:`BandExceeded` when the tail at the top of a band below n/2
        rises above TAIL_TOL; :class:`StepRejected` on a non-finite state
        or, when ``step_tol`` > 0, a local error above it.  The error is
        ERK4(3)-IP's max|u4 - u3| / max|u4| on the rfft rows, where
        u4 - u3 = (d - dt nl(u4)) / 10; nl(u4) is returned as the next
        step's first stage.  ``nl_vh`` is nl(vh) or None, as in
        :meth:`step_raw`.
        """
        out, d = self.step_raw(vh, dt, nl_vh)
        if not np.all(np.isfinite(out)):
            raise StepRejected(f"non-finite state after step at dt={dt:g}",
                               np.inf)
        level = self._tail_level(out) if len(out) <= self.nyq else None
        if level is not None and level > TAIL_TOL:
            raise BandExceeded(
                f"tail {level:.2e} of max|v^| at the top of band "
                f"{len(out) - 1} after a step at dt={dt:g}"
            )
        nl_out = self._nl(out)
        peak = np.max(np.abs(out))
        err = float(np.max(np.abs(d - dt * nl_out)) / (10.0 * peak)) \
            if peak > 0.0 else 0.0
        if err > self.cfg.step_tol > 0.0:
            raise StepRejected(f"local error {err:.2e} above step_tol "
                               f"{self.cfg.step_tol:g} at dt={dt:g}", err)
        if level is not None:
            self.tail_peak = max(level, self.tail_peak or 0.0)
        return out, nl_out, err

    def make_snapshot(self, t, vh):
        """The snapshot of a band state on the full grid."""
        full = self.widen(vh, self.nyq)
        return Snapshot(t, Field(self.grid, self.values_of(full)), full)


def _step_factor(err, tol):
    """The step-size factor after a step of local error ``err``: the
    fourth-order rule with safety 0.9, bounded to [0.2, 2]."""
    if err == 0.0:
        return 2.0
    return min(2.0, max(0.2, 0.9 * (tol / err) ** 0.25))


def evolve(u0, cfg, traj=None):
    """Integrate from u0 at t = 0, emitting snapshots at the monitor cadence
    into ``traj``, an empty Trajectory of ``cfg`` (by default a new one that
    keeps its snapshots in memory), which is returned.

    Every emitted snapshot is held to the config's wrap-around, mean-drift
    and blow-up bounds.  With ``cfg.step_tol`` > 0 the step size is
    error-controlled: the first trial step is ``cfg.dt``, each step is at
    most :data:`PHASE_CAP` rad of linear phase on row 1 (h <= 4 pi / L), a
    step is cut short to land on each snapshot time without changing the
    proposed size, and a rejected step is redone smaller from the last
    accepted state; a step that cannot meet the tolerance above dt/16
    raises :class:`StepRejected`.  With ``step_tol`` = 0 every step is
    ``cfg.dt`` (cut short at snapshots) and a non-finite state raises at
    once.  A step whose tail exceeds the active band doubles the band and
    is redone, which is no rejection.  Errors raised mid-run carry the
    partial trajectory in their ``trajectory`` attribute.
    """
    g = cfg.grid()
    if u0.grid != g:
        raise ValueError(f"initial data grid {u0.grid!r} != config grid {g!r}")
    check_zero_mean(u0, cfg.mean_tol, "initial data", MeanDrift)
    stepper = Stepper(cfg)
    vh = stepper.spectrum_of(u0.values)
    vh[0] = 0.0
    vh = vh[: stepper.start_band(vh) + 1]

    if traj is None:
        traj = Trajectory(config=cfg)
    h1_init = stepper.h1_norm(vh)
    tol = cfg.step_tol
    h_cap = PHASE_CAP * 2.0 * np.pi / cfg.length if tol > 0.0 else np.inf
    dt = min(cfg.dt, h_cap)  # the proposed step
    eps_t = 1e-12

    def emit(t_now, vh_now, nl_now):
        """Append the snapshot of vh_now and return nl(vh_now), which the
        last step handed on as ``nl_now`` or None."""
        snap = stepper.make_snapshot(t_now, vh_now)
        # one nl(v^) on the band serves both probe steps below, S u in the
        # record and the next step's first stage
        if nl_now is None:
            nl_now = stepper._nl(vh_now)
        # d/dt ||u_x||^2 probed by a quarter-step centered difference;
        # the shorter spacing keeps the O(h^2) truncation error of the
        # difference quotient well below the identity's own tolerance
        probe = 0.25 * cfg.dt
        up = stepper.step_raw(vh_now, probe, nl_now)[0]
        um = stepper.step_raw(vh_now, -probe, nl_now)[0]
        rate = (stepper.hx1_sq(up) - stepper.hx1_sq(um)) / (2 * probe)
        rec = snap.norms = norms.compute_record(snap, cfg, nl_now, rate)
        traj.band = len(vh_now) - 1
        traj.append(snap)
        if rec.wrapfrac >= cfg.wrap_tol:
            raise WrapAround(
                f"{100 * rec.wrapfrac:.2f}% of L2 mass in the outer "
                f"{100 * cfg.outer_frac:.0f}% of the box at t={t_now:g} "
                f"(tolerance {100 * cfg.wrap_tol:.2f}%)"
            )
        check_zero_mean(snap.u, cfg.mean_tol, f"the solution at t={t_now:g}",
                        MeanDrift)
        h1_now = stepper.h1_norm(vh_now)
        if h1_now > cfg.blowup_factor * h1_init and h1_init > 0.0:
            raise BlowUp(
                f"H1 norm grew {h1_now / h1_init:.2f}x over the run at "
                f"t={t_now:g}"
            )
        return nl_now

    try:
        t = 0.0
        nl_vh = None  # nl(vh) when a step or a snapshot has evaluated it
        for target in cfg.snapshot_times():
            while t < target * (1.0 - eps_t) - eps_t:
                remaining = target - t
                clipped = remaining <= dt * (1.0 + 1e-9)
                h = remaining if clipped else dt
                try:
                    out, nl_out, err = stepper.step_checked(vh, h, nl_vh)
                except BandExceeded:
                    vh = stepper.widen(vh, 2 * (len(vh) - 1))
                    nl_vh = None
                    stepper.tail_peak = None
                    traj.band_widenings.append(t)
                    continue
                except StepRejected as exc:
                    traj.rejected_steps += 1
                    if tol == 0.0:
                        raise
                    dt = h * _step_factor(exc.err, tol)
                    if dt < cfg.dt / 16.0:
                        raise StepRejected(
                            f"step-size collapse at t={t:g}: the step fell "
                            f"to {dt:.3g} < dt/16 ({exc})", exc.err) from exc
                    continue
                vh, nl_vh = out, nl_out
                traj.steps += 1
                if clipped:
                    t = target
                    continue
                t += h
                traj.h_min = min(h, traj.h_min or h)
                traj.h_max = max(h, traj.h_max or h)
                if tol > 0.0:
                    dt = min(h_cap, h * _step_factor(err, tol))
            nl_vh = emit(target, vh, nl_vh)
    except MonitorViolation as violation:
        traj.status = type(violation).__name__
        violation.trajectory = traj
        raise
    finally:
        traj.band = len(vh) - 1
        if stepper.tail_peak is not None:
            traj.tail_headroom = stepper.tail_peak / TAIL_TOL
    return traj
