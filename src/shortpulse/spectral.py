"""Periodic grids, real fields and their snapshots, and the norms read
off a snapshot's half-spectrum.

Conventions
-----------
The box is [-L/2, L/2) sampled at n equispaced nodes x_j = -L/2 + j dx (n a
power of two).  A real field's spectrum is its rfft, unnormalized,

    uh_k = sum_j exp(-2 pi i j k / n) u_j,   k = 0 .. n/2,

on the frequencies xi_k = 2 pi k / L; the rows 0 < k < n/2 stand for their
conjugate partners -k as well, the k = 0 and Nyquist rows for themselves.
The continuum-normalized coefficient of the line's Fourier transform is
c_k = (dx / sqrt(2 pi)) (-1)^k uh_k, the sign (-1)^k = exp(i xi_k L / 2)
moving the origin from the first node to x = 0; :func:`check_zero_mean`
reads c_0, and :func:`shortpulse.norms.spectral_power` holds the Parseval
weights |c_k|^2 dxi.  Every operator is a multiplier on these rows: the
derivative i xi and its inverse 1/(i xi), pinned to 0 at xi = 0 and both
zero on the Nyquist row (:func:`shortpulse._kernels.derivative_symbols`),
and the linear flow exp(t / (i xi)).  The inverse is exact only on
zero-mean fields: the solver checks its datum and every snapshot, and
a loaded trajectory every stored field as it reads it, with
:func:`check_zero_mean`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import MeanNotZero

SQRT2PI = np.sqrt(2.0 * np.pi)


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
    """Immutable real samples of a function on a :class:`Grid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        if np.iscomplexobj(values):
            raise ValueError("a field holds real samples")
        values = np.array(values, dtype=np.float64)
        if values.shape != (grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid n={grid.n}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __repr__(self):
        return f"Field({self.grid!r}, max={np.max(np.abs(self.values)):.3e})"


class Snapshot:
    """The real solution at one time: node values ``u``, their rfft ``uh``
    (as given, else ``numpy.fft.rfft(u)`` with its Nyquist row) and its
    :class:`shortpulse.norms.NormRecord`, set by ``evolve`` and on loading.
    ``u_x`` and ``u_anti`` (dx^{-1} u) are not stored: each access is one
    inverse rfft of ``uh`` times the symbol, so a caller that needs one
    twice keeps it.
    """

    __slots__ = ("t", "u", "uh", "norms")

    def __init__(self, t, u, uh=None):
        self.t = float(t)
        self.u = u
        self.uh = np.fft.rfft(u.values) if uh is None else uh
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
        return Field(g, np.fft.irfft(symbol * self.uh, g.n))


# ----------------------------------------------------------------------
# norms

def l2_norm(f):
    """Rectangle-rule L2 norm: sqrt(sum f_j^2 dx)."""
    return float(np.sqrt(f.grid.dx * np.sum(f.values ** 2)))


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
    return float(np.max(np.abs(np.fft.irfft(pad, refine * n)))) * refine


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


def check_zero_mean(f, mean_tol, what, error=MeanNotZero):
    """Raise ``error``, naming ``what``, when the mean coefficient
    |c_0| = (dx / sqrt(2 pi)) |sum f_j| exceeds mean_tol * ||f||_L2: the
    one zero-mean test of the package, for the datum, each snapshot of a
    run and each stored field."""
    c0 = abs(f.grid.dx / SQRT2PI * float(np.sum(f.values)))
    bound = mean_tol * l2_norm(f)
    if c0 > bound:
        raise error(
            f"{what} needs a zero-mean field: |c_0| = {c0:.3e} "
            f"> {mean_tol:.1e} * ||f||_L2 = {bound:.3e}"
        )
