"""Smooth dyadic band decompositions.

A single C-infinity profile sigma built from the exp(-1/s) glue is reused
everywhere: sigma is 1 on |r| <= 1, 0 on |r| >= 2^delta, and interpolates
monotonically in log2 |r| in between.  All derived cutoffs are differences
of rescalings of this one profile, so telescoping identities hold exactly
(up to floating point) by construction:

    sigma_le(R)   = sigma(r / R)                      (low-pass at R)
    sigma_band(R) = sigma_le(R) - sigma_le(R 2^-delta) (band at R)
    sigma_lt(R)   = sigma_le(R 2^-delta)               (strictly below R)
    sigma_range(R1, R2) = sigma_le(R2) - sigma_lt(R1)

Band scales live on the scaled dyadic lattice N in 2^{delta Z}.  The same
profile, applied to the spatial variable, builds the moving window that
splits each band into a "traveling" part supported where x ~ -t/N^2 and an
elliptic remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    Field,
    SpectralField,
    apply_multiplier,
    forward_transform,
    inverse_transform,
)


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


def bump(y, half_width=1.0):
    """C-infinity bump exp(-1/(1-(y/a)^2)) on |y| < a, zero outside.

    Unnormalized (peak value e^{-1}); its integral is half_width times
    :data:`shortpulse.packets.BUMP_INTEGRAL`.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=np.float64)) / half_width
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return float(out[0]) if scalar else out


class CutoffSpec:
    """The smooth cutoff family at transition sharpness ``delta`` > 0.

    ``delta`` is the lattice spacing exponent: scales are N = 2^{delta m},
    m integer, and every transition region spans one lattice step.
    """

    def __init__(self, delta=1.0):
        delta = float(delta)
        if not (delta > 0.0 and np.isfinite(delta)):
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta

    def sigma(self, r):
        """Base profile: 1 on |r| <= 1, 0 on |r| >= 2^delta."""
        scalar = np.isscalar(r) or np.ndim(r) == 0
        r = np.abs(np.atleast_1d(np.asarray(r, dtype=np.float64)))
        pos = r > 0.0
        ramp = np.zeros_like(r)
        ramp[pos] = np.log2(r[pos]) / self.delta
        out = 1.0 - smoothstep(ramp)
        out[~pos] = 1.0
        return float(out[0]) if scalar else out

    def sigma_le(self, r, scale):
        """Low-pass sigma_{<= R}: equals 1 on |r| <= R, 0 on |r| >= 2^delta R."""
        return self.sigma(np.asarray(r) / scale)

    def sigma_lt(self, r, scale):
        """Strict low-pass sigma_{< R} = sigma_{<= R} - sigma_R."""
        return self.sigma(np.asarray(r) * 2.0 ** self.delta / scale)

    def sigma_band(self, r, scale):
        """Band cutoff sigma_R = sigma_{<= R} - sigma_{<= R 2^-delta}."""
        return self.sigma_le(r, scale) - self.sigma_lt(r, scale)

    def sigma_range(self, r, lo, hi):
        """sigma_{R1 <= . <= R2} = sigma_{<= R2} - sigma_{< R1}."""
        return self.sigma_le(r, hi) - self.sigma_lt(r, lo)

    def lattice(self, lo, hi):
        """Scaled dyadic scales 2^{delta m} covering [lo, hi] (inclusive)."""
        if not (0.0 < lo <= hi):
            raise ValueError(f"need 0 < lo <= hi, got [{lo}, {hi}]")
        m_lo = math.floor(math.log2(lo) / self.delta + 1e-12)
        m_hi = math.ceil(math.log2(hi) / self.delta - 1e-12)
        return [2.0 ** (self.delta * m) for m in range(m_lo, m_hi + 1)]

    def __repr__(self):
        return f"CutoffSpec(delta={self.delta!r})"


def build_cutoff(delta=1.0):
    """Construct the cutoff family; the single entry point used everywhere."""
    return CutoffSpec(delta)


# ----------------------------------------------------------------------
# frequency-side projections

def project_band(u, scale, spec):
    """P_N u: smooth frequency annulus at scale N (kills the zero mode)."""
    return _multiplier_field(u, spec.sigma_band(u.grid.xi, scale), real_out=u.real)


def project_low(u, scale, spec):
    """P_{<= N} u: smooth low-pass (keeps the zero mode: sigma(0) = 1)."""
    return _multiplier_field(u, spec.sigma_le(u.grid.xi, scale), real_out=u.real)


def project_sign(u, sign):
    """P^{+-} u: sharp restriction to positive/negative frequencies.

    The zero mode is dropped; the Nyquist row follows its FFT sign (it
    belongs to the negative frequencies).  For real u this gives
    P^+ u = conj(P^- u) wherever the Nyquist row is empty.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ind = (np.sign(u.grid.xi) == sign).astype(np.float64)
    return _multiplier_field(u, ind, real_out=False)


def project_plus_range(u, lo, hi, spec):
    """P^+_{R1 <= . <= R2} u: smooth positive-frequency range restriction."""
    sym = spec.sigma_range(u.grid.xi, lo, hi) \
        * (np.sign(u.grid.xi) == 1.0).astype(np.float64)
    return _multiplier_field(u, sym, real_out=False)


def _multiplier_field(u, symbol_values, real_out):
    fh = apply_multiplier(forward_transform(u), symbol_values)
    return inverse_transform(fh, real=real_out)


# ----------------------------------------------------------------------
# traveling / elliptic splitting

@dataclass
class Decomposition:
    """Result of :func:`hyp_ell_decompose` at one time.

    ``hyp_plus`` is the sum of the windowed band pieces over scales N <= t;
    ``ell_plus`` is defined as u^+ - hyp_plus, so the aggregates recompose
    u^+ exactly by construction.  The real-field counterparts are
    2 Re(part), consistent with u = 2 Re u^+ for real zero-mean u.
    ``u_hat`` is the transform of u that the split was made from.
    """

    t: float
    delta: float
    u_plus: Field = None
    hyp_plus: Field = None
    ell_plus: Field = None
    u_hat: SpectralField = None

    def hyp_real(self):
        return Field(self.hyp_plus.grid, 2.0 * np.real(self.hyp_plus.values))

    def ell_real(self, u):
        return Field(u.grid, np.asarray(u.values) - 2.0 * np.real(self.hyp_plus.values),
                     real=u.real)


def hyp_window(grid, t, scale, spec):
    """Spatial window selecting x ~ -t/N^2: the stationary region of the
    band's group lines.  Supported in {x < 0}, smooth, values in [0, 1]."""
    support, w = _window_on_support(grid, t, scale, spec)
    full = np.zeros(grid.n)
    full[support] = w
    return full


def _window_on_support(grid, t, scale, spec):
    """(slice, values) of :func:`hyp_window` on the nodes strictly between
    its edges -3 center 2^delta and -center / (3 2^delta), center = t/N^2;
    the window is exactly zero on every other node.  The slice is empty
    when the inner edge lies at or beyond the box edge -L/2."""
    center = t / scale ** 2
    lo, hi = center / 3.0, 3.0 * center
    support = slice(
        int(np.searchsorted(grid.x, -hi * 2.0 ** spec.delta, side="right")),
        int(np.searchsorted(grid.x, -lo * 2.0 ** -spec.delta, side="left")))
    return support, spec.sigma_range(np.abs(grid.x[support]), lo, hi)


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


def hyp_ell_decompose(u, t, spec):
    """Split u into a traveling part (frequency bands windowed around their
    group lines x ~ -t/N^2) and the exact elliptic complement.

    Requires t >= 1.  The traveling part is 2 Re sum_{N <= t} w_N P_N P^+ u
    over lattice scales with grid content; the elliptic part is defined as
    u minus the traveling part, so recomposition is exact by construction.
    Bands whose window misses every node add nothing and are not
    transformed.
    """
    if not t >= 1.0:
        raise ValueError(f"decomposition needs t >= 1, got t = {t}")
    g = u.grid
    xi_min = g.dxi
    xi_max = g.dxi * (g.n // 2)
    lo = xi_min * 2.0 ** (-spec.delta)
    hi = min(float(t), xi_max * 2.0 ** spec.delta)
    total = np.zeros(g.n, dtype=np.complex128)
    uh = forward_transform(u)
    if lo <= hi:
        for scale in spec.lattice(lo, hi):
            if scale > t:
                continue
            support, w = _window_on_support(g, t, scale, spec)
            if not w.size:
                continue
            rows, sym = _plus_band_symbol(g, spec.delta, scale)
            band_h = np.zeros(g.n, dtype=np.complex128)
            band_h[rows] = sym * uh.coeffs[rows]
            band_plus = inverse_transform(SpectralField(g, band_h), real=False)
            total[support] += w * band_plus.values[support]
    plus_mask = (np.sign(g.xi) == 1.0).astype(np.float64)
    u_plus = inverse_transform(apply_multiplier(uh, plus_mask), real=False)
    return Decomposition(t=float(t), delta=spec.delta, u_plus=u_plus,
                         hyp_plus=Field(g, total, real=False),
                         ell_plus=Field(g, u_plus.values - total, real=False),
                         u_hat=uh)


def window_count_bound(spec):
    """Max number of band windows that may overlap at one point."""
    return math.ceil(5.0 / spec.delta)


# ----------------------------------------------------------------------
# localization check

def localization_check(u, scale, a, b, c, r_spatial, spec):
    """Measure how well a spatially-localized piece of a frequency band
    stays inside (a neighborhood of) the band.

    Computes

        num = || (1 - P^+_{N 2^-delta <= . <= 2^delta N})
                 |dx|^a ( |x|^b sigma_R(x) P_N P^+ u ) ||_{L2}
        den = N^{-c} R^{-a + b - c} || P_N P^+ u ||_{L2}

    and returns ``(num / den, degenerate)``.  When the band carries no
    content (den = 0 and num = 0) the ratio is reported as 0.0 with the
    degenerate flag set.
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if val < 0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    g = u.grid
    uh = forward_transform(u)
    plus_mask = (np.sign(g.xi) == 1.0).astype(np.float64)
    band_sym = spec.sigma_band(g.xi, scale) * plus_mask
    band_plus = inverse_transform(apply_multiplier(uh, band_sym), real=False)
    band_norm = _l2(band_plus.values, g.dx)

    weight = np.abs(g.x) ** b * spec.sigma_band(np.abs(g.x), r_spatial)
    localized = weight * band_plus.values
    lh = forward_transform(Field(g, localized, real=False))
    frac = apply_multiplier(lh, np.abs(g.xi) ** a if a > 0 else np.ones(g.n))
    keep = spec.sigma_range(g.xi, scale * 2.0 ** (-spec.delta),
                            scale * 2.0 ** spec.delta) * plus_mask
    leak = apply_multiplier(frac, 1.0 - keep)
    num = _l2(inverse_transform(leak, real=False).values, g.dx)

    den = scale ** (-c) * r_spatial ** (-a + b - c) * band_norm
    if den == 0.0:
        return 0.0, True
    return num / den, False


def _l2(values, dx):
    return float(np.sqrt(dx * np.sum(np.abs(values) ** 2)))
