"""Real-field spectral kernels shared by the time stepper and diagnostics.

Everything here works on raw half-spectra (numpy.fft.rfft of the real node
values, no normalization) because both consumers are hot paths.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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
    """Computes d/dx (u^3) on the grid without aliasing, on an active band.

    Only the modes |k| < K of the input enter (K = ``band``).  Their
    spectrum is zero-padded to M = 4K points, which makes the pointwise
    cube exact on the kept modes: the cube reaches mode 3K - 3,
    whose alias lands at M - (3K - 3) = K + 3 >= K.  The cube is truncated
    back to the modes below K and differentiated spectrally; every row at or
    above K of the output is an exact zero.  K = n/2 is the full grid
    (M = 2n, the input Nyquist row dropped).

    The transforms run on scratch arrays the kernel holds, so one instance
    serves one call at a time; the package runs on a single thread.
    """

    def __init__(self, n, length, band):
        self.n = int(n)
        self.length = float(length)
        self.band = int(band)
        self.m = 4 * self.band
        # the padded inverse's scale m/n, cubed, and the forward transform's
        # n/m fold into one row; both are powers of two, so exactly
        self._ik = derivative_symbols(self.n, self.length)[0][: self.band] \
            * (self.m / self.n) ** 2
        # scratch held across calls; rows at or above the band of ``_big``
        # stay zero, the rest are rewritten by every call
        self._big = np.zeros(self.m // 2 + 1, dtype=np.complex128)
        self._fine = np.empty(self.m)
        self._cube = np.empty(self.m)
        self._ph = np.empty(self.m // 2 + 1, dtype=np.complex128)

    def spectrum(self, vh):
        """rfft rows of d/dx(u^3) from the rfft rows of u, as many as given.

        Rows at or above the band are zero on output and ignored on input,
        so a band-K state may be held as its first K + 1 rows.  The cube is
        formed by products: numpy hands ``**`` with an integer exponent
        above 2 to libm pow(), which costs two orders of magnitude more.
        The output is a new array, never the held scratch, since the stepper
        and the diagnostics share one cached kernel.
        """
        fine = self._fine_of(vh)
        cube = np.multiply(fine, fine, out=self._cube)
        np.multiply(cube, fine, out=cube)
        ph = np.fft.rfft(cube, out=self._ph)
        out = np.zeros(len(vh), dtype=np.complex128)
        np.multiply(self._ik, ph[: self.band], out=out[: self.band])
        return out

    def quartic_integral(self, vh):
        """The integral of u^4 / 4 over the box from the rfft spectrum of u.

        The M-point rule is exact for u on the band, since u^4 has no mode
        at or above 4K - 3; an n-point sum at K = n/2 would alias the modes
        at +-n onto the mean.
        """
        fine = self._fine_of(vh) * (self.m / self.n)
        sq = fine * fine
        return float(np.sum(sq * sq)) * (self.length / self.m) / 4.0

    def _fine_of(self, vh):
        """Node values on the M-point grid of u cut to the band, times n/M,
        from its rfft rows on n points, in the held ``_fine``."""
        self._big[: self.band] = vh[: self.band]
        return np.fft.irfft(self._big, self.m, out=self._fine)


@lru_cache(maxsize=16)
def nonlinear_kernel(n, length, band=None):
    """The :class:`NonlinearKernel` of one grid and band (n/2 when None),
    shared by the stepper and the per-snapshot diagnostics."""
    return NonlinearKernel(n, length, n // 2 if band is None else band)
