"""Weighted norms, the vector fields J, J+, S, decay-rate fitting, and the
scaling self-test.

The composite norm tracked throughout is

    ||u||_{X^s}^2 = ||u||_{H^s}^2 + ||u||_{Hm1}^2 + ||J dx u||_{L2}^2,

with Hm1 the homogeneous negative-order norm (zero mode excluded) and
J dx u = x u_x - t dx^{-1} u.  Multiplications by x near the periodic seam
are tapered smoothly to zero over the outer :data:`TAPER_FRAC` = 2% of the
box on each side; the wrap-around monitor is what certifies the field is
negligible there, so the taper bias is below measurement tolerance exactly
when the monitor is quiet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields
from functools import lru_cache

import numpy as np

from . import _kernels
from .bands import CutoffSpec, hyp_ell_decompose, smoothstep
from .errors import InsufficientData
from .spectral import Field, Grid, Snapshot, l2_norm, refined_sup

TAPER_FRAC = 0.02  # x is tapered on this outer fraction of the box per side
SOBOLEV_S = 4.5    # the working norm's Sobolev index s
MONITOR_CUTOFF = CutoffSpec(1.0)  # the decomposition monitors' dyadic bands


@dataclass
class NormRecord:
    """One row of norms.csv, in ``COLUMNS`` order; the five decomposition
    monitors from ``p32_hyp`` on are NaN before t = 1."""

    t: float
    L2: float
    Hs: float
    Hm1: float
    JdxL2: float
    Xs: float
    Linf: float
    uxLinf: float
    SuL2: float
    wrapfrac: float
    # both sides of the H1 flux identity d/dt ||u_x||^2 = 6 int u u_x^3
    h1_rate_fd: float
    h1_rate_flux: float
    p32_hyp: float
    p32_hyp_x: float
    p32_ell: float
    p32_ell_x: float
    c34_jwt: float

    def as_row(self):
        return [getattr(self, name) for name in self.COLUMNS]


NormRecord.COLUMNS = tuple(f.name for f in dc_fields(NormRecord))


# ----------------------------------------------------------------------
# norms

@lru_cache(maxsize=32)
def parseval_weights(n, length):
    """dx^2 / L on the n/2 + 1 rfft rows, doubled strictly between the first
    and the last row for their conjugate partners.  A band state takes the
    first K + 1; its row K, weighted double, is zero."""
    w = np.full(n // 2 + 1, (length / n) ** 2 / length)
    w[1:-1] *= 2.0
    w.setflags(write=False)
    return w


def spectral_power(snap):
    """The Parseval weights |c_k|^2 dxi on the snapshot's rfft rows: they
    sum to ||u||_L2^2."""
    g = snap.u.grid
    return np.abs(snap.uh) ** 2 * parseval_weights(g.n, g.length)


def hdot_norm(snap, s):
    """Homogeneous Sobolev norm sqrt(sum |xi|^{2s} |c|^2 dxi), zero mode out."""
    g = snap.u.grid
    xi = _kernels.rfft_xi(g.n, g.length)
    return float(np.sqrt(np.sum(xi[1:] ** (2.0 * s) * spectral_power(snap)[1:])))


@lru_cache(maxsize=32)
def _taper_values(n, length):
    x = -0.5 * length + (length / n) * np.arange(n)
    ramp = (np.abs(x) - (0.5 - TAPER_FRAC) * length) / (TAPER_FRAC * length)
    v = 1.0 - smoothstep(ramp)
    v.setflags(write=False)
    return v


def edge_taper(grid):
    """Smooth [1 -> 0] ramp over the outer TAPER_FRAC of the box per side."""
    return _taper_values(grid.n, grid.length)


def wrap_fraction(u, outer_frac):
    """Fraction of L2 mass in the outer ``outer_frac`` of the box."""
    g = u.grid
    outer = np.abs(g.x) >= (0.5 - 0.5 * outer_frac) * g.length
    total = float(np.sum(np.abs(u.values) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(u.values[outer]) ** 2) / total)


# ----------------------------------------------------------------------
# vector fields

def j_field(snap, ux):
    """J dx u = x u_x - t dx^{-1} u, with the x-weight tapered at the seam,
    for the snapshot's u_x ``ux``."""
    g = snap.u.grid
    tap = edge_taper(g)
    return Field(g, tap * g.x * ux.values - snap.t * snap.u_anti.values)


def s_field(snap, j, nl):
    """Su = -t dx(u^3) + J dx u - u, evaluated through the equation from
    ``j`` (J dx u) and ``nl``, the leading rfft rows of dx(u^3) (the rest
    are zero)."""
    g = snap.u.grid
    return Field(g, -snap.t * np.fft.irfft(nl, g.n) + j.values - snap.u.values)


def hamiltonian(snap):
    """(quartic, quadratic) parts of H = int (u^4/4 - (dx^{-1} u)^2 / 2) dx.

    The equation is u_t = dx (dH/du), so H is conserved; with the exact 2n
    padding the semi-discrete scheme conserves it too, and its drift is pure
    time-step error.  The linear flow keeps the quadratic part exactly, so
    the drift is best read against the quartic part.
    """
    g = snap.u.grid
    quartic = _kernels.nonlinear_kernel(g.n, g.length).quartic_integral(snap.uh)
    anti = snap.u_anti.values
    return quartic, -0.5 * g.dx * float(np.sum(anti * anti))


def sup_norms(snap, ux):
    """(||u||_inf, ||u_x||_inf) of a snapshot by :func:`refined_sup`, given
    its derivative ``ux``; u_x's half-spectrum is i xi times the held one."""
    g = snap.u.grid
    ik = _kernels.derivative_symbols(g.n, g.length)[0]
    return (refined_sup(snap.u.values, snap.uh),
            refined_sup(ux.values, ik * snap.uh))


def compute_record(snap, cfg, nl, h1_rate_fd):
    """The full :class:`NormRecord` of a snapshot: the one per-snapshot pass.

    ``cfg`` is the run's :class:`shortpulse.evolve.SolverConfig`.  Hs, Hm1
    and both sup norms come from the snapshot's half-spectrum; u_x is taken
    once and shared by J dx u, the sup norms, the H1 flux and the monitors.
    ``nl`` goes to :func:`s_field`; ``h1_rate_fd`` is the stepper's probe.
    """
    u = snap.u
    g = u.grid
    xi = _kernels.rfft_xi(g.n, g.length)
    power = spectral_power(snap)
    hs = float(np.sqrt(np.sum((1.0 + xi ** 2) ** SOBOLEV_S * power)))
    hm1 = float(np.sqrt(np.sum(power[1:] / xi[1:] ** 2)))
    ux = snap.u_x
    j = j_field(snap, ux)
    jn = l2_norm(j)
    xs = float(np.sqrt(hs ** 2 + hm1 ** 2 + jn ** 2))
    if snap.t >= 1.0:
        monitors = decomposition_monitors(snap, ux, xs)
    else:
        monitors = (float("nan"),) * 5
    uv, uxv = u.values, ux.values
    return NormRecord(
        float(snap.t), l2_norm(u), hs, hm1, jn, xs, *sup_norms(snap, ux),
        l2_norm(s_field(snap, j, nl)), wrap_fraction(u, cfg.outer_frac),
        h1_rate_fd, 6.0 * g.dx * float(np.sum(uv * (uxv * uxv * uxv))),
        *monitors)


# ----------------------------------------------------------------------
# decomposition monitors (empirical constants, one row per snapshot)

def decomposition_monitors(snap, ux, xs):
    """Empirical constants for the pointwise-decay and weighted bounds, for
    the snapshot's u_x ``ux`` and ||u||_{X^s} ``xs``, s = :data:`SOBOLEV_S`,
    on the bands of :data:`MONITOR_CUTOFF`.

    Returns, in :class:`NormRecord` column order:

    * ``p32_hyp``:   sup_x |u^{hyp,+}| / [t^{-1/2} min((|x|/t)^{s/4-1/2},
      (|x|/t)^{-3/4}) ||u||_{X^s}]
    * ``p32_hyp_x``: the same with dx u^{hyp,+} and exponents (s/4-1, -5/4)
    * ``p32_ell``:   ||u - 2 Re u^{hyp,+}||_inf / [t^{-(2s-1)/(2s+2)}
      (1+log t) ||u||_{X^s}]
    * ``p32_ell_x``: the derivative analogue with exponent (2s-3)/(2s+2)
    * ``c34_jwt``:   || sqrt|x| J_+ dx u^{hyp,+} ||_{L2} / ||u||_{X^s}

    The constants are reported, not asserted; boundedness along a
    trajectory (no growth trend) is what the property tests check.
    All five are 0.0 for a zero field.
    """
    t, s = float(snap.t), SOBOLEV_S
    g = snap.u.grid
    if xs == 0.0:
        return (0.0,) * 5
    hyp = hyp_ell_decompose(snap, MONITOR_CUTOFF)
    neg = g.x < 0.0
    r = np.abs(g.x[neg]) / t

    def hyp_sup(vals, lo_exp, hi_exp):
        envelope = np.minimum(r ** lo_exp, r ** (-hi_exp))
        return float(np.max(np.abs(vals[neg]) / (t ** -0.5 * envelope * xs)))

    # dx u^{hyp,+}: the windowed sum is not band-limited, so it takes a
    # whole-grid transform pair; i xi is zero on the Nyquist row
    ik = 1j * g.xi
    ik[g.n // 2] = 0.0
    hyp_x = np.fft.ifft(ik * np.fft.fft(hyp))
    ell_decay = t ** (-(2 * s - 1) / (2 * s + 2)) * (1 + np.log(t))
    ellx_decay = t ** (-(2 * s - 3) / (2 * s + 2)) * (1 + np.log(t))
    # the elliptic part from the real field: u = 2 Re u^+ when the xi = 0
    # and Nyquist rows are zero, as on every snapshot simulate takes
    ell = snap.u.values - 2.0 * np.real(hyp)
    ell_x = ux.values - 2.0 * np.real(hyp_x)
    # dx^{-1} hyp_x is hyp without its xi = 0 and Nyquist rows: its mean
    # and its projection on the alternating mode (-1)^j (the FFT phase
    # (-1)^k, since k and j share parity)
    alt = g.phase
    hyp_anti = hyp - np.mean(hyp) - np.mean(alt * hyp) * alt
    root_x = np.sqrt(np.abs(g.x))
    jwt = root_x * hyp_x - 1j * np.sqrt(t) * hyp_anti    # J_+ hyp_x
    weighted = root_x * jwt
    return (hyp_sup(hyp, s / 4 - 0.5, 0.75),
            hyp_sup(hyp_x, s / 4 - 1.0, 1.25),
            float(np.max(np.abs(ell)) / (ell_decay * xs)),
            float(np.max(np.abs(ell_x)) / (ellx_decay * xs)),
            float(np.sqrt(g.dx * np.sum(np.abs(weighted) ** 2))) / xs)


# ----------------------------------------------------------------------
# fits and self-tests

def decay_fit(ts, ys, window=None):
    """Least-squares fit of log y against log t.

    Returns (slope, intercept, residual) where residual is the RMS misfit
    of log y.  Requires at least 8 samples inside the window and positive
    data (this is a decay-rate fit; nonpositive y has no log).
    """
    ts = np.asarray(ts, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if window is not None:
        lo, hi = window
        keep = (ts >= lo) & (ts <= hi)
        ts, ys = ts[keep], ys[keep]
    if ts.size < 8:
        raise InsufficientData(
            f"decay_fit needs >= 8 samples in the window, got {ts.size}"
        )
    if np.any(ys <= 0.0):
        raise ValueError("decay_fit needs positive samples")
    lt, ly = np.log(ts), np.log(ys)
    slope, intercept = np.polyfit(lt, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lt + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def scaling_invariant(u, t):
    """Q(u, t) = t^{1/2} ||u_x||_inf / (||u||_{Hdot4}^{1/2} ||J dx u||^{1/2})."""
    snap = Snapshot(t, u)
    ux = snap.u_x
    jn = l2_norm(j_field(snap, ux))
    den = hdot_norm(snap, 4.0) ** 0.5 * jn ** 0.5
    if den == 0.0:
        return 0.0, True
    return float(np.sqrt(t) * sup_norms(snap, ux)[1] / den), False


def scaling_selftest(u, t, lam):
    """Ratio Q(u, t) / Q(u_lam, lam t) under u_lam(x) = u(lam x) / lam.

    The rescaled field lives on the grid with the same n and L/lam, whose
    nodes are exactly x_j / lam, so the rescaling is exact on samples.
    Returns (ratio, degenerate).
    """
    if lam not in (2, 4):
        raise ValueError(f"lam must be 2 or 4, got {lam}")
    g = u.grid
    g2 = Grid(g.n, g.length / lam)
    u2 = Field(g2, u.values / lam)
    q1, d1 = scaling_invariant(u, t)
    q2, d2 = scaling_invariant(u2, lam * t)
    if d1 or d2:
        return 0.0, True
    return q1 / q2, False
