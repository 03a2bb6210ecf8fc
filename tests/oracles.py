"""Reference forms the tests check the library against.

The library works on rfft half-spectra only.  The oracles here take the
continuum-normalized whole-grid transform

    c_k = (dx / sqrt(2 pi)) * sum_j exp(-i x_j xi_k) f(x_j),
    f_j = (dxi / sqrt(2 pi)) * sum_k exp(+i x_j xi_k) c_k,

over all n rows k in [-n/2, n/2) (FFT order), so that Parseval reads
sum |f_j|^2 dx = sum |c_k|^2 dxi and a pure mode exp(i xi_k x) has the
single coefficient L / sqrt(2 pi).  Multipliers on it give the derivative,
the antiderivative, the free propagator and the smooth band projections;
norms and sup norms are taken through it too.  Transform-level oracles take
a grid and node values, real or complex, and return arrays.  Also here: a
CSV reader, a snapshot's norm record, the column gaps between two runs'
records, a Richardson convergence run and the solver settings the tests
run.
"""

import dataclasses

import numpy as np
from scipy import fft as sfft

from shortpulse import _kernels
from shortpulse.config import default_config
from shortpulse.evolve import evolve
from shortpulse.norms import NormRecord, compute_record
from shortpulse.spectral import SQRT2PI, Field, refined_sup


def forward_transform(grid, values):
    """The coefficients c_k of node values, in FFT order."""
    return (grid.dx / SQRT2PI) * (grid.phase * sfft.fft(values))


def inverse_transform(grid, coeffs):
    """The complex node values of the coefficients ``coeffs``."""
    return sfft.ifft((SQRT2PI / grid.dx) * (grid.phase * coeffs))


def multiply_symbol(grid, values, symbol, real=None):
    """Transform, multiply by the per-row ``symbol``, transform back; the
    real part when ``real`` (by default, when ``values`` is real)."""
    out = inverse_transform(grid, symbol * forward_transform(grid, values))
    if real is None:
        real = np.isrealobj(values)
    return out.real if real else out


def derivative(grid, values, order=1):
    """(i xi)^order, the Nyquist row zeroed for odd orders."""
    m = (1j * grid.xi) ** order
    if order % 2 == 1:
        m[grid.k == -grid.n // 2] = 0.0
    return multiply_symbol(grid, values, m)


def antiderivative(grid, values):
    """1 / (i xi), the xi = 0 and Nyquist rows zeroed: the inverse of the
    derivative on zero-mean fields."""
    m = np.zeros(grid.n, dtype=np.complex128)
    nz = grid.k != 0
    m[nz] = 1.0 / (1j * grid.xi[nz])
    m[grid.k == -grid.n // 2] = 0.0
    return multiply_symbol(grid, values, m)


def free_propagate(grid, values, t):
    """exp(t dx^{-1}) of u_t = dx^{-1} u: the unit-modulus symbol
    exp(-i t / xi) on every row, 1 at xi = 0."""
    m = np.ones(grid.n, dtype=np.complex128)
    nz = grid.k != 0
    m[nz] = np.exp(-1j * float(t) / grid.xi[nz])
    return multiply_symbol(grid, values, m)


def mean_coefficient(grid, values):
    """The xi = 0 coefficient c_0 = (dx / sqrt(2 pi)) sum f_j."""
    return complex(grid.dx / SQRT2PI * np.sum(values))


def l2(grid, values):
    """sqrt(sum |f_j|^2 dx) of real or complex node values."""
    return float(np.sqrt(grid.dx * np.sum(np.abs(values) ** 2)))


def spectral_l2_norm(grid, coeffs):
    """The L2 norm on the Fourier side: sqrt(sum |c_k|^2 dxi)."""
    return float(np.sqrt(grid.dxi * np.sum(np.abs(coeffs) ** 2)))


def nonlinearity(u):
    """d/dx (u^3) of a real Field, dealiased; exact zero mean (it is a
    derivative)."""
    n = u.grid.n
    kern = _kernels.nonlinear_kernel(n, u.grid.length)
    return Field(u.grid, sfft.irfft(kern.spectrum(sfft.rfft(u.values)), n))


def norm_record(snap, h1_rate_fd=float("nan")):
    """The :class:`NormRecord` of a snapshot at the solver's defaults
    (s = 4.5, outer fraction 0.05, band delta 1), with dx(u^3) on the full
    grid and ``h1_rate_fd``, the rate probe only the stepper takes."""
    g = snap.u.grid
    nl = _kernels.nonlinear_kernel(g.n, g.length).spectrum(snap.uh)
    return compute_record(snap, default_config().solver, nl, h1_rate_fd)


def column_gaps(records, others):
    """{column: (largest gap, scale)} of two runs' NormRecord lists, the
    scale being the column's largest magnitude in ``others``; both runs
    must have NaN in the same places (the monitors before t = 1), which
    both maxima skip."""
    gaps = {}
    for col in NormRecord.COLUMNS:
        a = np.array([getattr(r, col) for r in records])
        b = np.array([getattr(r, col) for r in others])
        assert np.array_equal(np.isnan(a), np.isnan(b)), col
        gaps[col] = np.nanmax(np.abs(a - b)), np.nanmax(np.abs(b))
    return gaps


def solver_config(**fields):
    """The default config's solver settings with ``fields`` replaced."""
    return dataclasses.replace(default_config().solver, **fields)


def self_convergence(u0, cfg, dt_coarse, t_end=1.0, refine=8):
    """Richardson check: errors of dt and dt/2 runs against a dt/refine run,
    each at fixed steps (step_tol = 0), which the 4th-order ratio presumes.

    Returns (err_coarse, err_half, ratio); ratio ~ 16 for a 4th-order step.
    """
    def run(dtv):
        c = dataclasses.replace(cfg, dt=dtv, step_tol=0.0, t_final=t_end,
                                snap_t0=0.0, wrap_tol=1.0)
        return evolve(u0, c).snapshots[-1].u.values

    ref = run(dt_coarse / refine)
    e1 = float(np.max(np.abs(run(dt_coarse) - ref)))
    e2 = float(np.max(np.abs(run(dt_coarse / 2) - ref)))
    return e1, e2, e1 / e2


def hs_norm(grid, values, s):
    """Inhomogeneous Sobolev norm sqrt(sum <xi>^{2s} |c|^2 dxi)."""
    w = (1.0 + grid.xi ** 2) ** s
    c = forward_transform(grid, values)
    return float(np.sqrt(grid.dxi * np.sum(w * np.abs(c) ** 2)))


def hm1_norm(grid, values):
    """Homogeneous H^{-1} norm; the xi = 0 mode is excluded by definition."""
    w = np.zeros(grid.n)
    nz = grid.k != 0
    w[nz] = 1.0 / grid.xi[nz] ** 2
    c = forward_transform(grid, values)
    return float(np.sqrt(grid.dxi * np.sum(w * np.abs(c) ** 2)))


def linf_norm(f, refine=8):
    """Sup norm of the band-limited interpolant of a real Field over the
    lattice ``refine`` times finer than the grid; ``refine=1`` gives the
    plain grid max."""
    vals = f.values
    if refine <= 1:
        return float(np.max(np.abs(vals)))
    return refined_sup(vals, sfft.rfft(vals), refine)


def field_at(u, points):
    """Band-limited (trigonometric) interpolation of a real Field at
    arbitrary points."""
    g = u.grid
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    vals = np.exp(1j * np.outer(points, g.xi)) \
        @ forward_transform(g, u.values) * (g.dxi / SQRT2PI)
    return vals.real


def project_band(grid, values, scale, spec):
    """P_N: smooth frequency annulus at scale N (kills the zero mode)."""
    return multiply_symbol(grid, values, spec.sigma_band(grid.xi, scale))


def project_low(grid, values, scale, spec):
    """P_{<= N}: smooth low-pass (keeps the zero mode: sigma(0) = 1)."""
    return multiply_symbol(grid, values, spec.sigma_le(grid.xi, scale))


def project_sign(grid, values, sign):
    """P^{+-}: sharp restriction to positive/negative frequencies; the zero
    mode is dropped and the Nyquist row counts as negative."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ind = (np.sign(grid.xi) == sign).astype(np.float64)
    return multiply_symbol(grid, values, ind, real=False)


def sigma_range(spec, r, lo, hi):
    """sigma_{R1 <= . <= R2} = sigma_{<= R2} - sigma_{< R1} on an array r,
    through the logarithm of each rescaled r that the base profile takes."""
    return spec.sigma_le(r, hi) - spec.sigma_lt(r, lo)


def project_plus_range(grid, values, lo, hi, spec):
    """P^+_{R1 <= . <= R2}: smooth positive-frequency range restriction."""
    sym = sigma_range(spec, grid.xi, lo, hi) \
        * (np.sign(grid.xi) == 1.0).astype(np.float64)
    return multiply_symbol(grid, values, sym, real=False)


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
