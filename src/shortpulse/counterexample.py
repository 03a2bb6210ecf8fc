"""Fourier-side scan showing a weighted dispersive estimate failing on an
explicit frequency-localized family, and its repaired version holding.

The family is phi_N := F^{-1}[chi((. - 2N)/N)] with chi a smooth bump
supported in [-1, 1], probed at the matched time t = N^{2 + 1/(2 rho)}.
Everything is one-dimensional quadrature over the spectral interval
[N, 3N] (substituting xi = 2N + N s, s in [-1, 1]):

    lhs            = sup_x |dx phi|,   |x| <= 10/N
    ||phi||_{H^s}^2  = N integral <xi>^{2s} chi(s)^2 ds
    ||x dx U(-t) phi||_{L2}^2
                   = N integral [ (chi + (xi/N) chi'(s))^2
                                  + (t/xi)^2 chi(s)^2 ] ds

and the two sides are

    rhs = t^{-1/2} ||x dx U(-t)phi||^{1/2+rho} ||phi||_{H^{s*}}^{1/2-rho}
          + t^{-1/2} ||phi||_{H^{5/2}}

with s* = (2-2rho)/(1-2rho) for the original estimate and
(4-2rho)/(1-2rho) for the corrected one.  Sobolev weights at the
corrected index blow past float range for rho near 1/2, so the H^s
integrals are accumulated in log space and only the final combination is
exponentiated.  Every reported number passes a resolution-doubling gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnderResolved

SQRT2PI = math.sqrt(2.0 * math.pi)
QUAD_RTOL = 1e-8

SCAN_COLUMNS = ("N", "rho", "t", "lhs", "rhs_orig", "rhs_corr",
                "ratio_orig", "ratio_corr")
MIN_SCALE = 2 ** 4


@dataclass(frozen=True)
class CounterexampleCase:
    """One (N, rho) point of the scan."""

    n_scale: float
    rho: float
    quad_points: int = 4096

    def __post_init__(self):
        if not self.n_scale >= MIN_SCALE:
            raise ValueError(
                f"N must be >= {MIN_SCALE}, got {self.n_scale}")
        if not 0.0 < self.rho < 0.5:
            raise ValueError(f"rho must lie in (0, 1/2), got {self.rho}")
        if self.quad_points < 64:
            raise ValueError("quad_points must be >= 64")

    @property
    def t(self):
        return float(self.n_scale) ** (2.0 + 1.0 / (2.0 * self.rho))

    @property
    def sobolev_original(self):
        return (2.0 - 2.0 * self.rho) / (1.0 - 2.0 * self.rho)

    @property
    def sobolev_corrected(self):
        return (4.0 - 2.0 * self.rho) / (1.0 - 2.0 * self.rho)


def _midpoints(m):
    """Midpoint nodes and weight on s in (-1, 1); the integrands vanish to
    all orders at the endpoints, so midpoint sums converge spectrally."""
    ds = 2.0 / m
    return -1.0 + (np.arange(m) + 0.5) * ds, ds


def _log_chi_sq(s):
    """2 log chi(s) for the unnormalized bump chi = exp(-1/(1-s^2))."""
    return -2.0 / (1.0 - s ** 2)


def _chi_pair(s):
    """(chi, chi') without overflow; both vanish smoothly at |s| -> 1."""
    arg = 1.0 - s ** 2
    chi = np.zeros_like(s)
    dchi = np.zeros_like(s)
    ok = arg > 1.0 / 700.0    # below this chi underflows float64 anyway
    chi[ok] = np.exp(-1.0 / arg[ok])
    dchi[ok] = chi[ok] * (-2.0 * s[ok] / arg[ok] ** 2)
    return chi, dchi


def _gate(values):
    """Resolution-doubling gate: values = (coarse, fine) in plain units."""
    coarse, fine = values
    scale = max(abs(coarse), abs(fine))
    if scale > 0.0 and abs(fine - coarse) > QUAD_RTOL * scale:
        raise QuadratureUnderResolved(
            f"doubling the quadrature moved the result by "
            f"{abs(fine - coarse) / scale:.3e} relative")
    return fine


def _gate_log(values):
    """The same gate for log-space quantities (compares exp differences)."""
    coarse, fine = values
    if abs(np.expm1(fine - coarse)) > QUAD_RTOL:
        raise QuadratureUnderResolved(
            f"doubling the quadrature moved the result by "
            f"{abs(np.expm1(fine - coarse)):.3e} relative")
    return fine


def hs_sq_log(case, s_index):
    """log of ||phi||_{H^{s_index}}^2, gated; the free flow's symbol has
    unit modulus, so this is also the norm of U(-t) phi."""
    def at(m):
        s, ds = _midpoints(m)
        xi = 2.0 * case.n_scale + case.n_scale * s
        lf = s_index * np.log1p(xi ** 2) + _log_chi_sq(s)
        top = np.max(lf)
        return top + np.log(np.sum(np.exp(lf - top)) * ds * case.n_scale)

    return _gate_log((at(case.quad_points), at(2 * case.quad_points)))


def weighted_sq(case):
    """||x dx U(-t) phi||_{L2}^2 from the closed spectral form, gated."""
    t = case.t

    def at(m):
        s, ds = _midpoints(m)
        xi = 2.0 * case.n_scale + case.n_scale * s
        chi, dchi = _chi_pair(s)
        integrand = (chi + (xi / case.n_scale) * dchi) ** 2 \
            + (t / xi) ** 2 * chi ** 2
        return float(np.sum(integrand) * ds * case.n_scale)

    return _gate((at(case.quad_points), at(2 * case.quad_points)))


# Fine offsets per block of the sup's y lattice, about the square root of
# its 2^11 + 1 samples: the B x J offset tables and the J x blocks block
# tables then hold about 2 sqrt(samples) J angles instead of samples x J.
_SUP_BLOCK = 64


def _curve(m, x_points, x_extent_factor):
    """(C, S) with C = sum chi cos(ys) ds and S = sum s chi sin(ys) ds over
    the m midpoint nodes, at the samples y_j = j dy, j = 0 .. x_points/2,
    dy = 2 x_extent_factor / x_points: the half y >= 0 of x_points + 1
    samples of [-x_extent_factor, x_extent_factor].

    The nodes are symmetric, chi is even and s chi is odd, so C and S are
    real sums over the nodes s >= 0, each standing for itself and its
    mirror.  Each sample splits as y = y_r + Y_b, a fine offset
    y_r = r dy (r < B) plus a block start Y_b = b B dy, and angle addition
    gives

        C(y) = cos(y_r s) . (chi cos(Y_b s)) - sin(y_r s) . (chi sin(Y_b s))
        S(y) = cos(y_r s) . (s chi sin(Y_b s)) + sin(y_r s) . (s chi cos(Y_b s))

    so every sample comes out of two real GEMMs: the B x J tables of
    cos(y_r s) and sin(y_r s) times J x (2 blocks) matrices of weighted
    cos(Y_b s) and sin(Y_b s).  At y = 0 (r = b = 0) the identity is exact.
    """
    ds = 2.0 / m
    s = (np.arange((m + 1) // 2) + 0.5 * (1 - m % 2)) * ds
    weight = np.where(s > 0.0, 2.0 * ds, ds)
    chi, _ = _chi_pair(s)
    even = weight * chi
    odd = weight * s * chi
    samples = x_points // 2 + 1
    blocks = -(-samples // _SUP_BLOCK)
    dy = 2.0 * x_extent_factor / x_points
    fine = np.outer(np.arange(_SUP_BLOCK) * dy, s)
    coarse = np.outer(s, np.arange(blocks) * (_SUP_BLOCK * dy))
    cos_b, sin_b = np.cos(coarse), np.sin(coarse)
    by_cos = np.cos(fine) @ np.hstack(
        (even[:, None] * cos_b, odd[:, None] * sin_b))
    by_sin = np.sin(fine, out=fine) @ np.hstack(
        (even[:, None] * sin_b, odd[:, None] * cos_b))
    # row r, column b holds the sample j = b B + r
    cos_sum = (by_cos[:, :blocks] - by_sin[:, :blocks]).ravel("F")
    sin_sum = (by_cos[:, blocks:] + by_sin[:, blocks:]).ravel("F")
    return cos_sum[:samples], sin_sum[:samples]


def _sup(m, x_points, x_extent_factor):
    """sup_y |2 f0 + f1| with f0 = sum chi e^{iys} ds, f1 = sum s chi e^{iys} ds
    on the m midpoint nodes, for y on x_points + 1 samples of
    [-x_extent_factor, x_extent_factor].

    2 f0 + f1 = 2C + iS with C and S from :func:`_curve`; the modulus is
    even in y, so only the samples y >= 0 are taken.
    """
    cos_sum, sin_sum = _curve(m, x_points, x_extent_factor)
    return float(np.max(np.hypot(2.0 * cos_sum, sin_sum)))


@functools.lru_cache(maxsize=8)
def _lhs_unit(quad_points, x_points, x_extent_factor):
    """lhs / N^2, which does not depend on N; gated, computed once."""
    return _gate([1.0 / SQRT2PI * _sup(m, x_points, x_extent_factor)
                  for m in (quad_points, 2 * quad_points)])


def lhs(case, x_extent_factor=10.0):
    """sup |dx phi| over |x| <= x_extent_factor / N, by direct quadrature
    of (1/sqrt(2 pi)) integral i xi chi((xi-2N)/N) e^{i x xi} d xi, sampled
    at 2^12 + 1 points of x.

    Substituting xi = 2N + N s, y = N x makes it N^2 times an N-free sup.
    """
    return case.n_scale ** 2 * _lhs_unit(case.quad_points, 2 ** 12,
                                         x_extent_factor)


def _rhs(case, s_index):
    ln_t = (2.0 + 1.0 / (2.0 * case.rho)) * math.log(case.n_scale)
    ln_a = 0.5 * math.log(weighted_sq(case))
    ln_b = 0.5 * hs_sq_log(case, s_index)
    ln_c = 0.5 * hs_sq_log(case, 2.5)
    term1 = math.exp(-0.5 * ln_t + (0.5 + case.rho) * ln_a
                     + (0.5 - case.rho) * ln_b)
    term2 = math.exp(-0.5 * ln_t + ln_c)
    return term1 + term2


def rhs_original(case):
    """Right side with the original Sobolev index (2-2rho)/(1-2rho)."""
    return _rhs(case, case.sobolev_original)


def rhs_corrected(case):
    """Right side with the repaired Sobolev index (4-2rho)/(1-2rho)."""
    return _rhs(case, case.sobolev_corrected)


def predicted_ratio_exponent(rho):
    """Growth exponent of lhs/rhs_original expected from the two right-side
    terms: lhs ~ N^2 against N^{3/2} + N^{2 - 1/(4 rho)}."""
    return min(0.5, 1.0 / (4.0 * rho))


def near_degenerate(rho):
    """True when the two right-side growth rates nearly coincide, which
    slows the ratio's stabilization in N."""
    return 1.0 / (4.0 * rho) - 0.5 < 0.1


def scan_case(n_scale, rho):
    """One scan row: all reported quantities for a single N."""
    case = CounterexampleCase(n_scale, rho)
    row_lhs = lhs(case)
    row_orig = rhs_original(case)
    row_corr = rhs_corrected(case)
    return {
        "N": float(n_scale),
        "rho": float(rho),
        "t": case.t,
        "lhs": row_lhs,
        "rhs_orig": row_orig,
        "rhs_corr": row_corr,
        "ratio_orig": row_lhs / row_orig,
        "ratio_corr": row_lhs / row_corr,
    }


def failure_scan(rho, n_values):
    """Scan the family over the scales N in ``n_values``, returning
    (rows, verdict)."""
    rows = [scan_case(n, rho) for n in sorted(n_values)]
    return rows, scan_verdict(rows, rho)


def scan_verdict(rows, rho):
    """Fitted growth exponents and the failure verdict for a scan."""
    if len(rows) < 2:
        raise ValueError("a verdict needs at least two scan rows")
    ns = np.log([row["N"] for row in rows])
    slope_o = float(np.polyfit(
        ns, np.log([row["ratio_orig"] for row in rows]), 1)[0])
    slope_c = float(np.polyfit(
        ns, np.log([row["ratio_corr"] for row in rows]), 1)[0])
    crossing = next((row["N"] for row in rows if row["ratio_orig"] > 1.0),
                    None)
    monotone_after = crossing is not None and all(
        row["ratio_orig"] > 1.0 for row in rows if row["N"] >= crossing)
    return {
        "original_exponent": float(slope_o),
        "corrected_exponent": slope_c,
        "original_unbounded": bool(crossing is not None and monotone_after),
        "first_crossing_N": crossing,
        "predicted_exponent": predicted_ratio_exponent(rho),
        "near_degenerate": near_degenerate(rho),
    }
