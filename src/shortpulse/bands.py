"""Smooth dyadic band decompositions.

A single C-infinity profile sigma built from the exp(-1/s) glue is reused
everywhere: sigma is 1 on |r| <= 1, 0 on |r| >= 2^delta, and interpolates
monotonically in log2 |r| in between.  All derived cutoffs are differences
of rescalings of this one profile, so telescoping identities hold exactly
(up to floating point) by construction:

    sigma_le(R)   = sigma(r / R)                      (low-pass at R)
    sigma_band(R) = sigma_le(R) - sigma_le(R 2^-delta) (band at R)
    sigma_lt(R)   = sigma_le(R 2^-delta)               (strictly below R)
    sigma_range(R1, R2) = sigma_le(R2) - sigma_lt(R1)   (taken from log2 |r|)

Band scales live on the scaled dyadic lattice N in 2^{delta Z}.  The same
profile, applied to the spatial variable, builds the moving window that
splits each band into a "traveling" part supported where x ~ -t/N^2 and an
elliptic remainder.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def smoothstep(s):
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1, exp(-1/s) glue between."""
    s = np.asarray(s, dtype=np.float64)
    out = np.zeros_like(s)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    ga = np.exp(-1.0 / sm)
    gb = np.exp(-1.0 / (1.0 - sm))
    out[mid] = ga / (ga + gb)
    return out


def bump(y, half_width):
    """C-infinity bump exp(-1/(1-(y/a)^2)) on |y| < a, zero outside, for
    an array y and a = ``half_width``.

    Unnormalized (peak value e^{-1}); its integral is half_width times
    :data:`shortpulse.packets.BUMP_INTEGRAL`.
    """
    y = y / half_width
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


class CutoffSpec:
    """The smooth cutoff family at transition sharpness ``delta`` > 0.

    ``delta`` is the lattice spacing exponent: scales are N = 2^{delta m},
    m integer, and every transition region spans one lattice step.
    """

    def __init__(self, delta):
        delta = float(delta)
        if not (delta > 0.0 and np.isfinite(delta)):
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta

    def sigma(self, r):
        """Base profile on an array r: 1 on |r| <= 1, 0 on |r| >= 2^delta."""
        r = np.abs(r)
        pos = r > 0.0
        ramp = np.zeros_like(r)
        ramp[pos] = np.log2(r[pos]) / self.delta
        out = 1.0 - smoothstep(ramp)
        out[~pos] = 1.0
        return out

    def sigma_le(self, r, scale):
        """Low-pass sigma_{<= R}: equals 1 on |r| <= R, 0 on |r| >= 2^delta R."""
        return self.sigma(np.asarray(r) / scale)

    def sigma_lt(self, r, scale):
        """Strict low-pass sigma_{< R} = sigma_{<= R} - sigma_R."""
        return self.sigma(np.asarray(r) * 2.0 ** self.delta / scale)

    def sigma_band(self, r, scale):
        """Band cutoff sigma_R = sigma_{<= R} - sigma_{<= R 2^-delta}."""
        return self.sigma_le(r, scale) - self.sigma_lt(r, scale)

    def sigma_range_log2(self, log_r, lo, hi):
        """sigma_{R1 <= . <= R2} = sigma_{<= R2} - sigma_{< R1} at
        |r| = 2^log_r: each ramp is log_r minus the log2 of its edge scale,
        so a caller that holds log2 |r| takes no logarithm per call."""
        lo_ramp = (log_r - math.log2(lo)) / self.delta + 1.0
        hi_ramp = (log_r - math.log2(hi)) / self.delta
        return smoothstep(lo_ramp) - smoothstep(hi_ramp)

    def lattice(self, lo, hi):
        """Scaled dyadic scales 2^{delta m} covering [lo, hi] (inclusive)."""
        if not (0.0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        m_lo = math.floor(math.log2(lo) / self.delta + 1e-12)
        m_hi = math.ceil(math.log2(hi) / self.delta - 1e-12)
        return [2.0 ** (self.delta * m) for m in range(m_lo, m_hi + 1)]

    def __repr__(self):
        return f"CutoffSpec(delta={self.delta!r})"


# ----------------------------------------------------------------------
# traveling / elliptic splitting

def _window_on_support(grid, t, scale, spec):
    """The spatial window of band N at time t, selecting x ~ -t/N^2 (the
    stationary region of the band's group lines): (slice, values) on the
    nodes strictly between its edges -3 center 2^delta and
    -center / (3 2^delta), center = t/N^2.  The window is smooth, takes
    values in [0, 1] and is exactly zero on every other node.  The slice is
    empty when the inner edge lies at or beyond the box edge -L/2."""
    center = t / scale ** 2
    lo, hi = center / 3.0, 3.0 * center
    support = slice(
        int(np.searchsorted(grid.x, -hi * 2.0 ** spec.delta, side="right")),
        int(np.searchsorted(grid.x, -lo * 2.0 ** -spec.delta, side="left")))
    return support, spec.sigma_range_log2(_log2_distance(grid)[support], lo, hi)


@lru_cache(maxsize=8)
def _log2_distance(grid):
    """log2 |x_j| on the nodes j < n/2, where x_j < 0: every window of
    :func:`_window_on_support` lies there, so the row is taken once per
    grid instead of once per band and snapshot."""
    row = np.log2(-grid.x[: grid.n // 2])
    row.setflags(write=False)
    return row


@lru_cache(maxsize=64)
def _plus_band_symbol(grid, delta, scale):
    """(slice, values) of the symbol sigma_band(xi, N) 1[xi > 0] of
    P_N P^+ on the FFT rows 0 < xi_k < n/2 dxi strictly inside its support
    (N 2^-delta, N 2^delta); it is exactly zero on every other row.

    It does not depend on t, so the per-snapshot decomposition looks it up
    instead of rebuilding it.
    """
    xi_plus = grid.xi[: grid.n // 2]
    support = slice(
        int(np.searchsorted(xi_plus, scale * 2.0 ** -delta, side="right")),
        int(np.searchsorted(xi_plus, scale * 2.0 ** delta, side="left")))
    sym = CutoffSpec(delta).sigma_band(xi_plus[support], scale)
    sym.setflags(write=False)
    return support, sym


def hyp_ell_decompose(snap, spec):
    """The traveling part hyp^+ of a snapshot's u: its frequency bands
    windowed around their group lines x ~ -t/N^2, as complex node values.

    Requires t >= 1.  hyp^+ = sum_{N <= t} w_N P_N P^+ u over lattice
    scales with grid content; the elliptic remainder of the split is
    u - 2 Re hyp^+, which the caller takes from the real field.  Each band
    is filled from the rows 0 < k < n/2 of the snapshot's rfft ``uh`` and
    inverted by one n-point complex ifft: the continuum normalization of
    P_N P^+ cancels between its two transforms.  Bands whose window misses
    every node add nothing and are not inverted.
    """
    t = snap.t
    if not t >= 1.0:
        raise ValueError(f"decomposition needs t >= 1, got t = {t}")
    g = snap.u.grid
    lo = g.dxi * 2.0 ** (-spec.delta)
    hi = min(t, g.dxi * (g.n // 2) * 2.0 ** spec.delta)
    total = np.zeros(g.n, dtype=np.complex128)
    if lo <= hi:
        for scale in spec.lattice(lo, hi):
            if scale > t:
                continue
            support, w = _window_on_support(g, t, scale, spec)
            if not w.size:
                continue
            rows, sym = _plus_band_symbol(g, spec.delta, scale)
            band_h = np.zeros(g.n, dtype=np.complex128)
            band_h[rows] = sym * snap.uh[rows]
            total[support] += w * np.fft.ifft(band_h)[support]
    return total
