"""Periodic grids, continuum-normalized transforms, Fourier multipliers,
and the exact linear propagator of u_t = dx^{-1} u.

Conventions
-----------
The box is [-L/2, L/2) sampled at n equispaced nodes (n a power of two).
Transforms use the symmetric continuum normalization

    c_k = (dx / sqrt(2 pi)) * sum_j exp(-i x_j xi_k) f(x_j),
    f_j = (dxi / sqrt(2 pi)) * sum_k exp(+i x_j xi_k) c_k,

with xi_k = 2 pi k / L for k in [-n/2, n/2) and dxi = 2 pi / L, so that
Parseval reads  sum |f_j|^2 dx = sum |c_k|^2 dxi  and a pure mode
exp(i xi_k x) transforms to a single coefficient of size L / sqrt(2 pi).
Coefficients are stored in FFT order (the order of scipy.fft.fftfreq).

Symbols with an inverse power of xi (the antiderivative 1/(i xi), the
propagator exp(-i t / xi)) are defined only on zero-mean fields; the
value at xi = 0 is pinned explicitly (0 for the antiderivative, 1 for
the propagator) and the mean is checked against ``MEAN_TOL`` first.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft

from . import _kernels
from .errors import MeanNotZero, NonFiniteSymbol

SQRT2PI = np.sqrt(2.0 * np.pi)

#: Relative tolerance on |c_0| / ||f||_{L2} below which a field counts as
#: zero-mean.  Large enough to survive 2e4 accumulation steps of rounding,
#: small enough that the antiderivative is unambiguous at every usable scale.
MEAN_TOL = 1e-10

#: Relative tolerance on stray imaginary parts when a field is tagged real.
REAL_TOL = 1e-8

#: Coefficients below this fraction of the spectral peak count as empty when
#: deciding whether a non-finite symbol value actually touches content.
POPULATED_TOL = 1e-13


class Grid:
    """Uniform periodic grid with its frequency lattice.

    Parameters
    ----------
    n : int
        Number of nodes; must be a power of two.
    length : float
        Box length L; the nodes are x_j = -L/2 + j L/n.
    """

    __slots__ = ("n", "length", "dx", "dxi", "x", "k", "xi", "phase")

    def __init__(self, n, length):
        n = int(n)
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        length = float(length)
        if not (length > 0.0 and np.isfinite(length)):
            raise ValueError(f"length must be positive and finite, got {length}")
        self.n = n
        self.length = length
        self.dx = length / n
        # n is a power of two, so dx * n recovers L exactly in binary fp.
        assert self.dx * n == length
        self.dxi = 2.0 * np.pi / length
        self.x = -0.5 * length + self.dx * np.arange(n)
        self.k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        self.xi = self.dxi * self.k
        # Phase exp(i xi_k L / 2) = (-1)^k relating the node origin -L/2 to
        # the 0-based indexing of the FFT; exactly +-1.
        self.phase = np.where(self.k % 2 == 0, 1.0, -1.0)
        for arr in (self.x, self.k, self.xi, self.phase):
            arr.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length!r})"


class Field:
    """Immutable samples of a function on a :class:`Grid`.

    A field tagged ``real`` stores float64 values; constructing one from
    complex data checks that the imaginary part is below ``REAL_TOL``
    relative to the field's sup norm and strips it.
    """

    __slots__ = ("grid", "values", "real")

    def __init__(self, grid, values, real=None):
        values = np.asarray(values)
        if values.shape != (grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid n={grid.n}"
            )
        if real is None:
            real = not np.iscomplexobj(values)
        if real:
            if np.iscomplexobj(values):
                scale = max(float(np.max(np.abs(values))), 1e-300)
                worst = float(np.max(np.abs(values.imag)))
                if worst > REAL_TOL * scale:
                    raise ValueError(
                        f"field tagged real has imaginary part {worst:.3e} "
                        f"(tolerance {REAL_TOL:.1e} * {scale:.3e})"
                    )
                values = values.real
            values = np.array(values, dtype=np.float64)
        else:
            values = np.array(values, dtype=np.complex128)
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.real = bool(real)

    def __repr__(self):
        tag = "real" if self.real else "complex"
        return f"Field({self.grid!r}, {tag}, max={np.max(np.abs(self.values)):.3e})"


class Snapshot:
    """The real solution at one time: node values ``u``, their rfft ``uh``
    (as given, else ``scipy.fft.rfft(u)`` with its Nyquist row) and, once
    computed, its :class:`shortpulse.norms.NormRecord`.  ``u_x`` and
    ``u_anti`` (dx^{-1} u) are not stored: each access is one inverse rfft
    of ``uh`` times the symbol, so a caller that needs one twice keeps it.
    """

    __slots__ = ("t", "u", "uh", "norms")

    def __init__(self, t, u, uh=None):
        if not u.real:
            raise ValueError("a snapshot holds a real field")
        self.t = float(t)
        self.u = u
        self.uh = sfft.rfft(u.values) if uh is None else uh
        self.uh.setflags(write=False)
        self.norms = None

    @property
    def u_x(self):
        return self._derived(0)

    @property
    def u_anti(self):
        return self._derived(1)

    def _derived(self, which):
        g = self.u.grid
        symbol = _kernels.derivative_symbols(g.n, g.length)[which]
        return Field(g, sfft.irfft(symbol * self.uh, g.n))


class SpectralField:
    """Immutable Fourier coefficients of a field, in FFT order."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.array(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n,):
            raise ValueError(
                f"coeffs shape {coeffs.shape} does not match grid n={grid.n}"
            )
        coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    def __repr__(self):
        return f"SpectralField({self.grid!r}, l2={spectral_l2_norm(self):.3e})"


# ----------------------------------------------------------------------
# norms

def l2_norm(f):
    """Rectangle-rule L2 norm: sqrt(sum |f_j|^2 dx)."""
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def refined_sup(values, half, refine=8):
    """Maximum of |f| over the nodes and the ``refine - 1`` equispaced
    points inside each cell, for the real node values ``values`` and their
    rfft ``half``: the sup norm of the band-limited interpolant.  The plain
    grid max undersamples peaks that fall between nodes by O((dx xi_peak)^2)
    relative, enough to spoil resolution-independence checks.

    Over the half-spectrum, f(x_0 + y) = Re sum_k b_k exp(i xi_k y) with
    b_k = w_k half_k / n, where w_k = 2 counts the conjugate mode except at
    k = 0 and at the Nyquist row, which are counted once.  On the cell
    [x_j, x_{j+1}], linear interpolation bounds |f| by max(|f_j|, |f_{j+1}|) +
    (dx^2 / 8) sum_k xi_k^2 |b_k|; the lattice maximum is at least the grid
    maximum m0, so only cells whose bound (plus a summation-rounding
    margin) reaches m0 can hold it, the wrap cell n-1 -> 0 included.  The
    interior points of those cells are summed directly, unless there are
    so many that the inverse transform of the whole lattice is cheaper.
    """
    n = values.size
    nyq = n // 2
    b = half / n
    b[1:nyq] *= 2.0
    nodes = np.abs(values)
    m0 = float(np.max(nodes))
    curv, shifts, roots = _lattice_tables(n, refine)
    mag = np.abs(b)
    slack = float(curv @ mag)
    margin = n * np.finfo(np.float64).eps * float(np.sum(mag))
    bound = np.maximum(nodes, np.roll(nodes, -1)) + (slack + margin)
    cells = np.flatnonzero(bound >= m0)
    if cells.size > _max_direct_cells(n, refine):
        return max(m0, _lattice_sup(half, refine))
    twiddled = roots[np.outer(cells, np.arange(nyq + 1)) & (n - 1)] * b
    inner = (twiddled @ shifts.T).real
    return max(m0, float(np.max(np.abs(inner))))


def _max_direct_cells(n, refine):
    """Cell count above which the whole-lattice transform is cheaper:
    it costs about (m/2) log2 m complex operations for m = refine n, and
    each cell's interior sums (refine - 1)(n/2 + 1) terms."""
    m = refine * n
    return (m / 2) * np.log2(m) / ((refine - 1) * (n // 2 + 1))


def _lattice_sup(half, refine):
    """Maximum of |f| over the whole refined lattice by one inverse
    transform of m = refine n points; the Nyquist row, an interior row of
    the padded spectrum, is halved so that it is counted once."""
    n = 2 * (half.size - 1)
    pad = np.zeros(refine * n // 2 + 1, dtype=np.complex128)
    pad[: n // 2 + 1] = half
    pad[n // 2] *= 0.5
    return float(np.max(np.abs(sfft.irfft(pad, refine * n)))) * refine


@lru_cache(maxsize=8)
def _lattice_tables(n, refine):
    """The cell-bound weights (dx xi_k)^2 / 8, the (refine - 1) x (n/2 + 1)
    shift rows exp(i xi_k q dx / refine), q = 1 .. refine - 1, and the n-th
    roots of unity exp(i xi_k j dx) = exp(2 pi i (j k mod n) / n)."""
    k = np.arange(n // 2 + 1)
    curv = (2.0 * np.pi / n * k) ** 2 / 8.0
    shifts = np.exp(2j * np.pi / (n * refine) * np.outer(np.arange(1, refine), k))
    roots = np.exp(2j * np.pi / n * np.arange(n))
    for arr in (curv, shifts, roots):
        arr.setflags(write=False)
    return curv, shifts, roots


def spectral_l2_norm(fh):
    """L2 norm computed on the Fourier side: sqrt(sum |c_k|^2 dxi)."""
    return float(np.sqrt(fh.grid.dxi * np.sum(np.abs(fh.coeffs) ** 2)))


def mean_coefficient(f):
    """The xi = 0 coefficient c_0 = (dx / sqrt(2 pi)) sum f_j."""
    return complex(f.grid.dx / SQRT2PI * np.sum(f.values))


# ----------------------------------------------------------------------
# transforms

def forward_transform(f):
    """Continuum-normalized forward transform of a :class:`Field`."""
    g = f.grid
    coeffs = (g.dx / SQRT2PI) * (g.phase * sfft.fft(f.values))
    return SpectralField(g, coeffs)


def inverse_transform(fh, real=False):
    """Inverse transform; ``real=True`` checks and strips imaginary parts."""
    g = fh.grid
    values = sfft.ifft((SQRT2PI / g.dx) * (g.phase * fh.coeffs))
    return Field(g, values, real=real)


# ----------------------------------------------------------------------
# multipliers

def apply_multiplier(fh, symbol, at_zero=None):
    """Multiply coefficients by a symbol m(xi).

    ``symbol`` is either a callable evaluated on the grid's frequency array
    or an array of per-frequency values.  ``at_zero`` overrides the symbol's
    value at xi = 0 (callers must pin it explicitly for inverse powers).
    A symbol that is non-finite at a frequency whose coefficient is above
    the zero-tolerance raises :class:`NonFiniteSymbol`; non-finite values
    sitting on empty frequencies are replaced by 0 so they cannot pollute
    the output with NaNs.
    """
    g = fh.grid
    m = symbol(g.xi) if callable(symbol) else np.asarray(symbol)
    m = np.asarray(np.broadcast_to(m, (g.n,)), dtype=np.complex128)
    if at_zero is not None:
        m = m.copy()
        m[g.k == 0] = at_zero
    bad = ~np.isfinite(m)
    if bad.any():
        c = np.abs(fh.coeffs)
        populated = c > POPULATED_TOL * max(float(c.max()), 1e-300)
        if np.any(bad & populated):
            idx = int(np.argmax(bad & populated))
            raise NonFiniteSymbol(
                f"symbol is non-finite at xi = {g.xi[idx]:.6g} "
                f"where |c| = {c[idx]:.3e}"
            )
        m = np.where(bad, 0.0, m)
    return SpectralField(g, m * fh.coeffs)


def multiply_symbol(f, symbol, at_zero=None, real_out=None):
    """Transform, apply a multiplier, transform back.

    ``real_out`` defaults to the input tag; pass ``False`` for symbols that
    do not commute with conjugation-symmetry (e.g. sign projections).
    """
    if real_out is None:
        real_out = f.real
    return inverse_transform(
        apply_multiplier(forward_transform(f), symbol, at_zero=at_zero),
        real=real_out,
    )


def check_zero_mean(f, mean_tol, what):
    """Raise :class:`MeanNotZero`, naming ``what``, when
    |c_0| > mean_tol * ||f||_L2."""
    c0 = abs(mean_coefficient(f))
    bound = mean_tol * l2_norm(f)
    if c0 > bound:
        raise MeanNotZero(
            f"{what} needs a zero-mean field: |c_0| = {c0:.3e} "
            f"> {mean_tol:.1e} * ||f||_L2 = {bound:.3e}"
        )


def derivative(f, order=1):
    """Spectral derivative (i xi)^order; zeroes the Nyquist row for odd
    orders so real input maps to exactly real output."""
    g = f.grid
    m = (1j * g.xi) ** order
    if order % 2 == 1:
        m = m.copy()
        m[g.k == -g.n // 2] = 0.0
    return multiply_symbol(f, m)


def antiderivative(f, mean_tol=MEAN_TOL):
    """The inverse of d/dx on zero-mean fields: divide c_k by (i xi_k) and
    pin the xi = 0 coefficient to zero.

    Raises :class:`MeanNotZero` when |c_0| > mean_tol * ||f||_L2.
    """
    check_zero_mean(f, mean_tol, "antiderivative")
    g = f.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        m = 1.0 / (1j * g.xi)
    m[g.k == -g.n // 2] = 0.0
    return multiply_symbol(f, m, at_zero=0.0)


def free_propagate(f, t, mean_tol=MEAN_TOL):
    """Exact solution operator exp(t dx^{-1}) of u_t = dx^{-1} u.

    Applies the unit-modulus symbol exp(t / (i xi)) = exp(-i t / xi), value
    1 pinned at xi = 0 (where the coefficient is checked to be ~0 first).
    Preserves every |c_k|, hence the L2 norm, exactly.
    """
    check_zero_mean(f, mean_tol, "free_propagate")
    g = f.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.exp(-1j * float(t) / g.xi)
    return multiply_symbol(f, m, at_zero=1.0)

