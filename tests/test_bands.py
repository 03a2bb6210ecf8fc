"""Dyadic cutoffs, signed projections, and the traveling/elliptic split."""

import math

import numpy as np
import pytest
from scipy import fft as sfft

from shortpulse.bands import (
    CutoffSpec,
    _window_on_support,
    bump,
    hyp_ell_decompose,
    smoothstep,
)
from shortpulse.spectral import Field, Grid, Snapshot
from oracles import (
    forward_transform,
    inverse_transform,
    l2,
    multiply_symbol,
    project_band,
    project_low,
    project_plus_range,
    project_sign,
    sigma_range,
)

partition_tol = 1e-12
split_tol = 1e-12
recomposition_tol = 1e-15
continuum_split_tol = 1e-13          # measured 2.6e-16
# The library's window takes each ramp as log2 |x| minus log2 of the edge
# scale; the plain sigma_range takes log2 of |x| over the scale.  The two
# ramps differ by a few ulps of numbers up to about 20, and the smoothstep
# glue's slope is below 3, so the windows differ by rounding only.
window_rounding_tol = 1e-14          # measured 1.7e-15
orthogonality_const = 3.0

# localization sweep: frozen num/den ratios for the pinned datum below,
# and the ratio of ratios across a scale doubling for each weighted combo
localization_ratio_window = (0.25, 4.0)
localization_frozen = {("a1b0c0", 16.0): 0.015522770438712233,
                       ("a2b1c1", 16.0): 30.13735095221605}


def hyp_window(grid, t, scale, spec):
    """The band-N window of the decomposition on the whole grid."""
    support, w = _window_on_support(grid, t, scale, spec)
    full = np.zeros(grid.n)
    full[support] = w
    return full


def window_count_bound(spec):
    """Max number of band windows that may overlap at one point."""
    return math.ceil(5.0 / spec.delta)


def localization_check(u, scale, a, b, c, r_spatial, spec):
    """How well a spatially-localized piece of a frequency band stays inside
    (a neighborhood of) the band: (num / den, degenerate) for

        num = || (1 - P^+_{N 2^-delta <= . <= 2^delta N})
                 |dx|^a ( |x|^b sigma_R(x) P_N P^+ u ) ||_{L2}
        den = N^{-c} R^{-a + b - c} || P_N P^+ u ||_{L2},

    with the ratio 0.0 and the flag set when the band carries no content.
    """
    for name, val in (("a", a), ("b", b), ("c", c)):
        if val < 0:
            raise ValueError(f"{name} must be >= 0, got {val}")
    g = u.grid
    plus_mask = (np.sign(g.xi) == 1.0).astype(np.float64)
    band_sym = spec.sigma_band(g.xi, scale) * plus_mask
    band_plus = multiply_symbol(g, u.values, band_sym, real=False)
    weight = np.abs(g.x) ** b * spec.sigma_band(np.abs(g.x), r_spatial)
    lh = forward_transform(g, weight * band_plus)
    frac = (np.abs(g.xi) ** a if a > 0 else np.ones(g.n)) * lh
    keep = sigma_range(spec, g.xi, scale * 2.0 ** (-spec.delta),
                       scale * 2.0 ** spec.delta) * plus_mask
    leak = inverse_transform(g, (1.0 - keep) * frac)
    num = l2(g, leak)
    den = scale ** (-c) * r_spatial ** (-a + b - c) * l2(g, band_plus)
    if den == 0.0:
        return 0.0, True
    return num / den, False


def broadband_field(grid):
    vals = np.zeros(grid.n)
    for k, a in ((2.0, 0.5), (4.0, 0.4), (6.0, 0.35), (8.0, 0.3),
                 (12.0, 0.2), (16.0, 0.15)):
        vals += a * np.cos(k * grid.x + 0.3 * k) * np.exp(-(grid.x / 25.0) ** 2)
    vals -= np.mean(vals)
    fh = np.fft.rfft(vals)          # drop the top octave: the signed split
    fh[grid.n // 4:] = 0.0          # is exact only with an empty Nyquist row
    return Field(grid, np.fft.irfft(fh, grid.n))


def test_smoothstep_endpoints_and_monotonicity():
    s = np.linspace(0.0, 1.0, 101)
    vals = smoothstep(s)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) >= 0.0)


def test_bump_support_and_peak():
    y = np.linspace(-2.0, 2.0, 401)
    vals = bump(y, 1.0)
    assert np.max(vals) == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert np.all(vals[np.abs(y) >= 1.0] == 0.0)
    assert np.all(vals >= 0.0)


def test_cutoff_plateau_and_support():
    spec = CutoffSpec(1.0)
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0])
    vals = spec.sigma(r)
    assert np.all(vals[r <= 1.0] == 1.0)
    assert np.all(vals[r >= 2.0] == 0.0)
    assert vals[3] == pytest.approx(0.3318322824428206, rel=1e-12)


def test_band_pieces_sum_to_one_between_the_extreme_scales(cutoff):
    r = np.geomspace(2.0 ** -9, 2.0 ** 9, 4001)
    total = np.zeros_like(r)
    for scale in cutoff.lattice(2.0 ** -10, 2.0 ** 10):
        total += cutoff.sigma_band(r, scale)
    assert np.max(np.abs(total - 1.0)) < partition_tol


def test_lattice_covers_the_requested_range(cutoff):
    scales = cutoff.lattice(0.1, 30.0)
    assert min(scales) <= 0.1 and max(scales) >= 30.0
    ratios = [b / a for a, b in zip(scales, scales[1:])]
    assert all(abs(r - 2.0 ** cutoff.delta) < 1e-12 for r in ratios)


@pytest.mark.parametrize("delta,expected", [(1.0, 5), (0.5, 10)])
def test_window_overlap_bound_scales_with_delta(delta, expected):
    assert window_count_bound(CutoffSpec(delta)) == expected


def test_no_point_sees_more_bands_than_the_bound(cutoff):
    r = np.geomspace(2.0 ** -6, 2.0 ** 6, 2000)
    count = np.zeros_like(r)
    for scale in cutoff.lattice(2.0 ** -8, 2.0 ** 8):
        count += (cutoff.sigma_band(r, scale) > 0.0).astype(float)
    assert np.max(count) <= window_count_bound(cutoff)


def test_signed_projections_split_mass_evenly(cutoff):
    g = Grid(1 << 10, 128.0)
    u = broadband_field(g)
    plus = project_sign(g, u.values, +1)
    minus = project_sign(g, u.values, -1)
    assert abs(l2(g, plus) - l2(g, u.values) / np.sqrt(2.0)) < split_tol
    assert abs(l2(g, minus) - l2(g, u.values) / np.sqrt(2.0)) < split_tol
    # the two halves recompose the (zero-mean) field
    assert np.max(np.abs(plus + minus - u.values)) < split_tol
    # and for a real field they are conjugates
    assert np.max(np.abs(np.conj(plus) - minus)) < split_tol


def test_traveling_and_elliptic_parts_recompose_exactly(cutoff):
    # the elliptic part the monitors take from the real field, u - 2 Re
    # hyp^+, is 2 Re(P^+ u - hyp^+) with P^+ u from the oracle
    g = Grid(1 << 10, 256.0)
    u = broadband_field(g)
    hyp = hyp_ell_decompose(Snapshot(16.0, u), cutoff)
    ell = u.values - 2.0 * np.real(hyp)
    ell_plus = project_sign(g, u.values, +1) - hyp
    assert np.max(np.abs(2.0 * np.real(ell_plus) - ell)) < recomposition_tol


def test_traveling_part_lives_left_of_the_origin(cutoff):
    g = Grid(1 << 10, 256.0)
    u = broadband_field(g)
    hyp = 2.0 * np.real(hyp_ell_decompose(Snapshot(16.0, u), cutoff))
    assert np.max(np.abs(hyp[g.x >= 0.0])) == 0.0
    assert np.max(np.abs(hyp)) > 0.0


def test_band_windows_sit_on_their_group_lines(cutoff):
    g = Grid(1 << 10, 256.0)
    t = 16.0
    for scale in (1.0, 2.0):
        w = hyp_window(g, t, scale, cutoff)
        center = t / scale ** 2
        plateau = (g.x < 0.0) & (np.abs(g.x) >= center / 2.0) \
            & (np.abs(g.x) <= 2.0 * center)
        assert np.all(w[g.x >= 0.0] == 0.0)
        assert np.min(w[plateau]) == 1.0
        far = (np.abs(g.x) >= 6.0 * center) | (np.abs(g.x) <= center / 6.0)
        assert np.max(w[far]) == 0.0


def from_rfft_rows(u):
    """The band inverse the library takes: a whole-grid symbol times the
    snapshot's rfft, its rows 0 .. n/2 placed in FFT order, by one ifft."""
    uh = np.zeros(u.grid.n, dtype=np.complex128)
    uh[: u.grid.n // 2 + 1] = Snapshot(0.0, u).uh
    return lambda sym: sfft.ifft(sym * uh)


def from_continuum_transform(u):
    """The band inverse through the continuum-normalized oracle transform."""
    return lambda sym: multiply_symbol(u.grid, u.values, sym, real=False)


def decompose_band_by_band(u, t, spec, invert):
    """The decomposition with every lattice band inverted by
    ``invert(symbol)`` and windowed on the whole grid: the oracle for the
    cached symbols, the skipped empty-window bands, the windows evaluated
    on their support and the summation into one total.  Returns
    (hyp_plus, the number of empty-window bands)."""
    g = u.grid
    lo = g.dxi * 2.0 ** (-spec.delta)
    hi = min(float(t), g.dxi * (g.n // 2) * 2.0 ** spec.delta)
    plus_mask = (np.sign(g.xi) == 1.0).astype(np.float64)
    total = np.zeros(g.n, dtype=np.complex128)
    empty = 0
    for scale in spec.lattice(lo, hi):
        if scale > t:
            continue
        band_plus = invert(spec.sigma_band(g.xi, scale) * plus_mask)
        center = t / scale ** 2
        lo, hi = center / 3.0, 3.0 * center
        neg = g.x < 0.0
        w = np.zeros(g.n)
        w[neg] = spec.sigma_range_log2(np.log2(-g.x[neg]), lo, hi)
        assert np.array_equal(hyp_window(g, t, scale, spec), w)
        plain = sigma_range(spec, np.abs(g.x), lo, hi) * neg
        assert np.max(np.abs(w - plain)) <= window_rounding_tol
        total += w * band_plus
        empty += not np.any(w)
    return total, empty


def noise_field(grid, seed=7):
    """Zero-mean white noise with the top octave removed."""
    fh = np.fft.rfft(np.random.default_rng(seed).standard_normal(grid.n))
    fh[0] = 0.0
    fh[grid.n // 4:] = 0.0
    return Field(grid, np.fft.irfft(fh, grid.n))


# (n, L, t, whether some lattice band's window misses every node); the
# L = 8 and L = 1/4 boxes are small enough that every window reaches in
@pytest.mark.parametrize("n, length, t, some_empty", [
    (1 << 10, 256.0, 1.0, True),
    (1 << 10, 256.0, 16.0, True),
    (1 << 10, 256.0, 30.0, True),
    (1 << 6, 8.0, 1.0, False),
    (1 << 8, 0.25, 16.0, False),
    (1 << 8, 0.25, 30.0, False),
])
def test_decomposition_is_bit_identical_to_the_band_by_band_split(
        cutoff, n, length, t, some_empty):
    u = noise_field(Grid(n, length))
    hyp, empty = decompose_band_by_band(u, t, cutoff, from_rfft_rows(u))
    assert (empty > 0) == some_empty
    for _ in range(2):  # the second pass reads the cached band symbols
        assert np.array_equal(hyp_ell_decompose(Snapshot(t, u), cutoff), hyp)
    assert np.max(np.abs(hyp)) > 0.0


@pytest.mark.parametrize("t", [1.0, 16.0, 30.0])
def test_decomposition_matches_the_continuum_normalized_split(cutoff, t):
    # the continuum normalization of each band cancels between its forward
    # and inverse transforms, so the rfft-row split agrees with the
    # whole-grid one to rounding
    u = noise_field(Grid(1 << 10, 256.0))
    want, _ = decompose_band_by_band(u, t, cutoff, from_continuum_transform(u))
    got = hyp_ell_decompose(Snapshot(t, u), cutoff)
    scale = np.max(np.abs(project_sign(u.grid, u.values, +1)))
    assert np.max(np.abs(got - want)) <= continuum_split_tol * scale


def test_decomposition_needs_unit_time(cutoff):
    g = Grid(1 << 8, 64.0)
    with pytest.raises(ValueError):
        hyp_ell_decompose(Snapshot(0.5, broadband_field(g)), cutoff)


def test_band_energies_are_almost_orthogonal(cutoff):
    g = Grid(1 << 10, 128.0)
    u = broadband_field(g)
    plus = project_sign(g, u.values, +1)
    total = sum(l2(g, project_band(g, plus, scale, cutoff)) ** 2
                for scale in cutoff.lattice(2.0 ** -4, 2.0 ** 6))
    whole = l2(g, plus) ** 2
    assert whole / orthogonality_const <= total <= orthogonality_const * whole


def test_low_projection_removes_high_frequencies(cutoff):
    g = Grid(1 << 10, 128.0)
    u = broadband_field(g)
    lh = forward_transform(g, project_low(g, u.values, 4.0, cutoff))
    high = np.abs(g.xi) >= 4.0 * 2.0 ** cutoff.delta
    assert np.max(np.abs(lh[high])) < 1e-14


def test_plus_range_projection_support_and_plateau(cutoff):
    g = Grid(1 << 10, 128.0)
    u = broadband_field(g)
    lo, hi = 2.0, 8.0
    ch = forward_transform(g, project_plus_range(g, u.values, lo, hi, cutoff))
    outside = (g.xi <= lo * 2.0 ** -cutoff.delta) \
        | (g.xi >= hi * 2.0 ** cutoff.delta)
    assert np.max(np.abs(ch[outside])) < 1e-14
    uplus = forward_transform(g, project_sign(g, u.values, +1))
    plateau = (g.xi >= lo) & (g.xi <= hi)
    assert np.max(np.abs(ch[plateau] - uplus[plateau])) < 1e-13


@pytest.mark.parametrize("combo,a,b,c", [
    ("a1b0c0", 1.0, 0.0, 0.0),
    ("a1b1c1", 1.0, 1.0, 1.0),
    ("a2b1c1", 2.0, 1.0, 1.0),
])
@pytest.mark.parametrize("r_spatial", [16.0, 32.0])
def test_band_localization_ratio_is_stable_under_scale_doubling(
        cutoff, combo, a, b, c, r_spatial):
    g = Grid(1 << 12, 256.0)
    u = broadband_field(g)
    r4, d4 = localization_check(u, 4.0, a, b, c, r_spatial, cutoff)
    r8, d8 = localization_check(u, 8.0, a, b, c, r_spatial, cutoff)
    assert not d4 and not d8
    lo, hi = localization_ratio_window
    assert lo <= r4 / r8 <= hi
    frozen = localization_frozen.get((combo, r_spatial))
    if frozen is not None:
        assert r4 == pytest.approx(frozen, rel=1e-9)


def test_empty_band_reports_degenerate_localization(cutoff):
    g = Grid(1 << 12, 256.0)
    u = broadband_field(g)
    ratio, degenerate = localization_check(u, 512.0, 1.0, 0.0, 0.0, 16.0, cutoff)
    assert ratio == 0.0 and degenerate


def test_localization_rejects_negative_exponents(cutoff):
    g = Grid(1 << 8, 64.0)
    u = broadband_field(g)
    with pytest.raises(ValueError):
        localization_check(u, 4.0, -1.0, 0.0, 0.0, 16.0, cutoff)
