"""Reference forms the tests check the library against: whole-grid
transform versions of quantities the library computes on half-spectra or
supports, the smooth band projections, a CSV reader and a Richardson
convergence run."""

import dataclasses

import numpy as np
from scipy import fft as sfft

from shortpulse import _kernels
from shortpulse.evolve import evolve
from shortpulse.spectral import (SQRT2PI, Field, apply_multiplier,
                                 forward_transform, inverse_transform,
                                 refined_sup)


def nonlinearity(u):
    """d/dx (u^3), dealiased; exact zero mean (it is a derivative)."""
    if not u.real:
        raise ValueError("nonlinearity expects a real field")
    n = u.grid.n
    kern = _kernels.nonlinear_kernel(n, u.grid.length)
    return Field(u.grid, sfft.irfft(kern.spectrum(sfft.rfft(u.values)), n))


def self_convergence(u0, cfg, dt_coarse, t_end=1.0, refine=8):
    """Richardson check: errors of dt and dt/2 runs against a dt/refine run.

    Returns (err_coarse, err_half, ratio); ratio ~ 16 for a 4th-order step.
    """
    def run(dtv):
        c = dataclasses.replace(cfg, dt=dtv, t_final=t_end, snap_t0=0.0,
                                wrap_tol=1.0, growth_limit=10.0)
        return evolve(u0, c).snapshots[-1].u.values

    ref = run(dt_coarse / refine)
    e1 = float(np.max(np.abs(run(dt_coarse) - ref)))
    e2 = float(np.max(np.abs(run(dt_coarse / 2) - ref)))
    return e1, e2, e1 / e2


def hs_norm(u, s):
    """Inhomogeneous Sobolev norm sqrt(sum <xi>^{2s} |c|^2 dxi)."""
    fh = forward_transform(u)
    w = (1.0 + fh.grid.xi ** 2) ** s
    return float(np.sqrt(fh.grid.dxi * np.sum(w * np.abs(fh.coeffs) ** 2)))


def hm1_norm(u):
    """Homogeneous H^{-1} norm; the xi = 0 mode is excluded by definition."""
    fh = forward_transform(u)
    g = fh.grid
    w = np.zeros(g.n)
    nz = g.k != 0
    w[nz] = 1.0 / g.xi[nz] ** 2
    return float(np.sqrt(g.dxi * np.sum(w * np.abs(fh.coeffs) ** 2)))


def linf_norm(f, refine=8):
    """Sup norm of the band-limited interpolant of a real field over the
    lattice ``refine`` times finer than the grid; ``refine=1`` gives the
    plain grid max."""
    if not f.real:
        raise ValueError("linf_norm expects a real field")
    vals = f.values
    if refine <= 1:
        return float(np.max(np.abs(vals)))
    return refined_sup(vals, sfft.rfft(vals), refine)


def field_at(u, points):
    """Band-limited (trigonometric) interpolation of u at arbitrary points."""
    g = u.grid
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    vals = np.exp(1j * np.outer(points, g.xi)) @ forward_transform(u).coeffs \
        * (g.dxi / SQRT2PI)
    return vals.real if u.real else vals


def _multiplier_field(u, symbol_values, real_out):
    fh = apply_multiplier(forward_transform(u), symbol_values)
    return inverse_transform(fh, real=real_out)


def project_band(u, scale, spec):
    """P_N u: smooth frequency annulus at scale N (kills the zero mode)."""
    return _multiplier_field(u, spec.sigma_band(u.grid.xi, scale), u.real)


def project_low(u, scale, spec):
    """P_{<= N} u: smooth low-pass (keeps the zero mode: sigma(0) = 1)."""
    return _multiplier_field(u, spec.sigma_le(u.grid.xi, scale), u.real)


def project_sign(u, sign):
    """P^{+-} u: sharp restriction to positive/negative frequencies; the
    zero mode is dropped and the Nyquist row counts as negative."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ind = (np.sign(u.grid.xi) == sign).astype(np.float64)
    return _multiplier_field(u, ind, real_out=False)


def project_plus_range(u, lo, hi, spec):
    """P^+_{R1 <= . <= R2} u: smooth positive-frequency range restriction."""
    sym = spec.sigma_range(u.grid.xi, lo, hi) \
        * (np.sign(u.grid.xi) == 1.0).astype(np.float64)
    return _multiplier_field(u, sym, real_out=False)


def read_csv(path):
    """Read a table written by write_csv -> (header, rows as float lists).

    Non-numeric cells come back as nan; the leading comment line is skipped.
    """
    header = None
    rows = []
    with open(path, "r", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            parsed = []
            for cell in cells:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    parsed.append(float("nan"))
            rows.append(parsed)
    if header is None:
        raise ValueError(f"{path}: no header row")
    return header, rows
