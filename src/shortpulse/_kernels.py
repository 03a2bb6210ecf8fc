"""Real-field spectral kernels shared by the time stepper and diagnostics.

Everything here works on raw half-spectra (scipy.fft.rfft of the real node
values, no normalization) because both consumers are hot paths.  The public
field-level wrappers live in :mod:`shortpulse.evolve`.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft


def rfft_xi(n, length):
    """Nonnegative frequencies 2 pi k / L, k = 0 .. n/2, for rfft spectra."""
    return (2.0 * np.pi / length) * np.arange(n // 2 + 1)


class NonlinearKernel:
    """Computes d/dx (u^p) on the grid without aliasing.

    mode "pad": zero-pad the spectrum so the pointwise power is alias-free
    (2n points for p <= 3 — exact for the cubic once the input Nyquist row
    is empty — and 5n/2 for p = 4), take the power on the fine grid,
    truncate back, then differentiate spectrally.
    mode "truncate": classic sharp truncation keeping |k| <= n/(p+1)
    (the 2/3 rule at p = 2), no padding.
    """

    def __init__(self, n, length, power=3, mode="pad"):
        if power not in (2, 3, 4):
            raise ValueError(f"power must be 2, 3 or 4, got {power}")
        if mode not in ("pad", "truncate"):
            raise ValueError(f"dealias mode must be 'pad' or 'truncate', got {mode!r}")
        self.n = int(n)
        self.length = float(length)
        self.power = int(power)
        self.mode = mode
        self.nyq = self.n // 2
        xi = rfft_xi(self.n, self.length)
        ik = 1j * xi
        ik[self.nyq] = 0.0  # odd derivative: keep real fields exactly real
        if mode == "pad":
            self.m = 2 * self.n if power <= 3 else (5 * self.n) // 2
            self.keep = None
        else:
            self.m = self.n
            kmax = self.n // (power + 1)
            self.keep = (np.arange(self.nyq + 1) <= kmax).astype(np.float64)
            ik = ik * self.keep
        self.ik = ik

    def spectrum(self, vh):
        """rfft spectrum of d/dx(u^p) from the rfft spectrum of u."""
        if self.mode == "truncate":
            vals = sfft.irfft(self.keep * vh, self.n)
            return self.ik * sfft.rfft(self._power_of(vals))
        big = np.zeros(self.m // 2 + 1, dtype=np.complex128)
        big[: self.nyq + 1] = vh
        big[self.nyq] = 0.0
        fine = sfft.irfft(big, self.m) * (self.m / self.n)
        ph = sfft.rfft(self._power_of(fine))[: self.nyq + 1] * (self.n / self.m)
        ph[self.nyq] = 0.0
        return self.ik * ph

    def _power_of(self, vals):
        """vals ** power by repeated multiplication.

        numpy hands ``**`` with an integer exponent above 2 to libm pow(),
        which costs two orders of magnitude more than the products.
        """
        out = vals * vals
        if self.power == 3:
            out *= vals
        elif self.power == 4:
            out *= out
        return out

    def values(self, u_values):
        """Node values of d/dx(u^p) from node values of u."""
        return sfft.irfft(self.spectrum(sfft.rfft(u_values)), self.n)


def phi123(z):
    """phi_1, phi_2, phi_3 for exponential integrators, elementwise.

    phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k.  Evaluated by the closed form
    away from the origin and by the Taylor series for |z| < 1/2, where the
    closed form loses digits to cancellation.  Exact on the imaginary axis
    (no contour-averaging trick, which would discard imaginary parts).
    """
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 0.5
    zs = np.where(small, 0.0, z)  # avoid 0/0 in the closed form
    with np.errstate(divide="ignore", invalid="ignore"):
        ez = np.exp(zs)
        p1 = (ez - 1.0) / zs
        p2 = (ez - 1.0 - zs) / zs ** 2
        p3 = (ez - 1.0 - zs - 0.5 * zs ** 2) / zs ** 3
    # Taylor: phi_k(z) = sum_{j>=0} z^j / (j+k)!
    zt = np.where(small, z, 0.0)
    t1 = np.zeros_like(z)
    t2 = np.zeros_like(z)
    t3 = np.zeros_like(z)
    for j in range(17, -1, -1):
        f1 = 1.0 / _factorial(j + 1)
        f2 = 1.0 / _factorial(j + 2)
        f3 = 1.0 / _factorial(j + 3)
        t1 = t1 * zt + f1
        t2 = t2 * zt + f2
        t3 = t3 * zt + f3
    return (
        np.where(small, t1, p1),
        np.where(small, t2, p2),
        np.where(small, t3, p3),
    )


_FACT = [1.0]
for _i in range(1, 25):
    _FACT.append(_FACT[-1] * _i)


def _factorial(k):
    return _FACT[k]
