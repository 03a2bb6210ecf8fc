"""Real-field spectral kernels shared by the time stepper and diagnostics.

Everything here works on raw half-spectra (scipy.fft.rfft of the real node
values, no normalization) because both consumers are hot paths.  The public
field-level wrapper lives in :mod:`shortpulse.evolve`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sfft


def rfft_xi(n, length):
    """Nonnegative frequencies 2 pi k / L, k = 0 .. n/2, for rfft spectra."""
    return (2.0 * np.pi / length) * np.arange(n // 2 + 1)


@lru_cache(maxsize=16)
def derivative_symbols(n, length):
    """The rfft symbols i xi of d/dx and 1/(i xi) of its inverse (pinned
    to 0 at xi = 0), both zeroed on the Nyquist row so that real fields
    map to exactly real fields."""
    xi = rfft_xi(n, length)
    ik = 1j * xi
    inv = np.zeros_like(ik)
    inv[1:] = 1.0 / ik[1:]
    ik[-1] = inv[-1] = 0.0
    for arr in (ik, inv):
        arr.setflags(write=False)
    return ik, inv


class NonlinearKernel:
    """Computes d/dx (u^3) on the grid without aliasing.

    The spectrum is zero-padded to 2n points, which makes the pointwise cube
    exact on the kept band once the input Nyquist row is empty; the cube is
    formed on the fine grid, truncated back to n points and differentiated
    spectrally.
    """

    def __init__(self, n, length):
        self.n = int(n)
        self.length = float(length)
        self.nyq = self.n // 2
        self.m = 2 * self.n
        self.ik = derivative_symbols(self.n, self.length)[0]

    def spectrum(self, vh):
        """rfft spectrum of d/dx(u^3) from the rfft spectrum of u.

        The cube is formed by products: numpy hands ``**`` with an integer
        exponent above 2 to libm pow(), which costs two orders of magnitude
        more.
        """
        fine = self._fine(vh)
        cube = fine * fine
        cube *= fine
        ph = sfft.rfft(cube)[: self.nyq + 1] * (self.n / self.m)
        ph[self.nyq] = 0.0
        return self.ik * ph

    def quartic_integral(self, vh):
        """The integral of u^4 / 4 over the box from the rfft spectrum of u.

        The 2n-point rule is exact for the band-limited u, since u^4 has no
        mode at or above 2n; an n-point sum would alias modes n .. 2n - 4
        onto the mean.
        """
        fine = self._fine(vh)
        sq = fine * fine
        return float(np.sum(sq * sq)) * (self.length / self.m) / 4.0

    def _fine(self, vh):
        """Node values on the 2n-point grid of the band-limited u, Nyquist
        row dropped, from its rfft spectrum on n points."""
        big = np.zeros(self.m // 2 + 1, dtype=np.complex128)
        big[: self.nyq + 1] = vh
        big[self.nyq] = 0.0
        return sfft.irfft(big, self.m) * (self.m / self.n)


@lru_cache(maxsize=16)
def nonlinear_kernel(n, length):
    """The :class:`NonlinearKernel` of one grid, shared by the stepper and
    the per-snapshot diagnostics."""
    return NonlinearKernel(n, length)
