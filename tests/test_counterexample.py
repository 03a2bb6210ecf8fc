"""Fourier-side scan of the failing weighted estimate and its repair."""

import numpy as np
import pytest

from shortpulse import counterexample as cx
from shortpulse.errors import QuadratureUnderResolved
from shortpulse.spectral import Grid
from oracles import derivative, free_propagate, hs_norm, inverse_transform

# scale-invariant sup of the localized profile's derivative: lhs / N^2
lhs_over_n2_frozen = 0.35425581101245623
# verdict of the default rho = 1/4 ladder, frozen
original_exponent_frozen = 0.6570375176889423
corrected_exponent_frozen = -0.49655315954154045
# drift of rhs_orig / N^{3/2} between consecutive scales, frozen
rhs_drift_frozen = {32: 0.15007010411657662, 64: 0.12477043344250249,
                    128: 0.10078557019805345, 256: 0.07924997878202122}
rho_030_exponent_frozen = 0.6757485794702796
rho_049_exponent_frozen = 0.5089904791719367

# the default appendix ladder N = 2^5 .. 2^10
LADDER = [2.0 ** k for k in range(5, 11)]

spatial_sup_tol = 1e-6       # measured 1.9e-8 on the n=2^12 box
spatial_norm_tol = 1e-12     # measured ~1.1e-15 on the n=2^20 box


@pytest.fixture(scope="module")
def ladder():
    rows, verdict = cx.failure_scan(0.25, LADDER)
    return rows, verdict


def sampled_profile(grid, n_scale):
    """The frequency-localized family synthesized on a spatial grid."""
    s = (grid.xi - 2.0 * n_scale) / n_scale
    hat = np.zeros_like(s)
    ok = np.abs(s) < 1.0
    arg = 1.0 - s[ok] ** 2
    good = arg > 1.0 / 700.0
    vals = np.zeros(int(ok.sum()))
    vals[good] = np.exp(-1.0 / arg[good])
    hat[ok] = vals
    return inverse_transform(grid, hat.astype(np.complex128))


def test_matched_time_and_sobolev_indices_are_exact():
    case = cx.CounterexampleCase(64, 0.25)
    assert case.t == 2.0 ** 24
    assert case.sobolev_original == 3.0
    assert case.sobolev_corrected == 7.0


def test_constructor_rejects_out_of_range_parameters():
    with pytest.raises(ValueError):
        cx.CounterexampleCase(8, 0.25)
    with pytest.raises(ValueError):
        cx.CounterexampleCase(64, 0.5)
    with pytest.raises(ValueError):
        cx.CounterexampleCase(64, 0.0)
    with pytest.raises(ValueError):
        cx.CounterexampleCase(64, 0.25, quad_points=32)


@pytest.mark.parametrize("n_scale", [32, 1024])
def test_profile_sup_scales_exactly_like_n_squared(n_scale):
    case = cx.CounterexampleCase(n_scale, 0.25)
    got = cx.lhs(case) / n_scale ** 2
    assert got == pytest.approx(lhs_over_n2_frozen, rel=1e-12)


def test_widening_the_sup_window_changes_nothing():
    case = cx.CounterexampleCase(64, 0.25)
    assert cx.lhs(case, x_extent_factor=20.0) == cx.lhs(case)


def complex_sup(m, x_points, x_extent_factor):
    """sup_y |2 f0 + f1| straight from its definition, with complex
    exponentials over all nodes and all sampled y: the oracle for the real
    symmetric form."""
    s, ds = cx._midpoints(m)
    chi, _ = cx._chi_pair(s)
    y = np.linspace(-x_extent_factor, x_extent_factor, x_points + 1)
    sup = 0.0
    for block in np.array_split(y, max(1, y.size * m // (1 << 21))):
        waves = np.exp(1j * np.outer(block, s))
        f0 = waves @ (chi * ds)
        f1 = waves @ (s * chi * ds)
        sup = max(sup, float(np.max(np.abs(2.0 * f0 + f1))))
    return sup


@pytest.mark.parametrize("x_extent_factor", [10.0, 20.0])
@pytest.mark.parametrize("quad_points", [256, 4096])
def test_real_symmetric_sup_matches_the_complex_form(quad_points,
                                                     x_extent_factor):
    # Both forms sum the same m products of chi with O(1) phases; the sup
    # sits at y = 0, where every term is positive, so the sums are well
    # conditioned and differ only by summation order: a few ulps over the
    # log2(8192) = 13 levels of a blocked dot product (measured <= 4e-16).
    for m in (quad_points, 2 * quad_points):
        want = complex_sup(m, 2 ** 12, x_extent_factor)
        got = cx._sup(m, 2 ** 12, x_extent_factor)
        assert abs(got - want) / want <= 1e-14


def direct_curve(m, x_points, x_extent_factor):
    """C(y) and S(y) as outer-product sums over the half nodes, at the
    samples |y| of linspace(-x_extent_factor, x_extent_factor, x_points + 1)
    from y = 0 on: the oracle for the angle-addition form."""
    ds = 2.0 / m
    s = (np.arange(m // 2) + 0.5) * ds
    chi, _ = cx._chi_pair(s)
    y = np.abs(np.linspace(-x_extent_factor, x_extent_factor,
                           x_points + 1)[x_points // 2:])
    ys = np.outer(y, s)
    return np.cos(ys) @ (2.0 * ds * chi), np.sin(ys) @ (2.0 * ds * s * chi)


@pytest.mark.parametrize("x_extent_factor", [10.0, 20.0])
@pytest.mark.parametrize("m", [256, 4096, 8192])
def test_the_whole_curve_matches_the_direct_sums(m, x_extent_factor):
    # Every term of C and S is at most its weight chi ds in modulus, so
    # both forms round to a few ulps of sum chi ds; the lattice y_j = j dy
    # and the oracle's linspace samples differ by an ulp of |y| <= 20, which
    # moves a phase y s by at most 3.6e-15.  Stated before measuring: 1e-14
    # of sum chi ds, at every sample, not only at the sup's y = 0.
    want_c, want_s = direct_curve(m, 2 ** 12, x_extent_factor)
    got_c, got_s = cx._curve(m, 2 ** 12, x_extent_factor)
    scale = want_c[0]          # C(0) = sum chi ds
    assert got_c.shape == got_s.shape == (2 ** 11 + 1,)
    assert np.max(np.abs(got_c - want_c)) <= 1e-14 * scale
    assert np.max(np.abs(got_s - want_s)) <= 1e-14 * scale


def test_lhs_is_n_squared_times_one_cached_sup():
    small = cx.lhs(cx.CounterexampleCase(16, 0.25))
    assert cx.lhs(cx.CounterexampleCase(2 ** 20, 0.25)) \
        == 2 ** 40 * small / 256


def test_a_scan_evaluates_the_sup_once_per_resolution(monkeypatch):
    sup_sizes = []
    chi_pair = cx._chi_pair

    def counted(s):
        if s.min() > 0.0:          # the sup's half nodes; rhs uses all
            sup_sizes.append(s.size)
        return chi_pair(s)

    monkeypatch.setattr(cx, "_chi_pair", counted)
    cx._lhs_unit.cache_clear()
    rows, _ = cx.failure_scan(0.25, [2.0 ** k for k in range(5, 21)])
    assert len(rows) == 16
    assert sorted(sup_sizes) == [2048, 4096]


def test_profile_sup_matches_a_sampled_synthesis():
    case = cx.CounterexampleCase(16, 0.25)
    g = Grid(1 << 12, 16.0)
    phi = sampled_profile(g, 16.0)
    sup = float(np.abs(derivative(g, phi)).max())
    assert abs(sup - cx.lhs(case)) / cx.lhs(case) < spatial_sup_tol


def test_quadrature_norms_match_a_sampled_synthesis():
    case = cx.CounterexampleCase(64, 0.25)
    g = Grid(1 << 20, 16384.0)
    w = free_propagate(g, sampled_profile(g, 64.0), -case.t)
    weighted = float(g.dx * np.sum(np.abs(g.x * derivative(g, w)) ** 2))
    assert abs(weighted - cx.weighted_sq(case)) \
        / cx.weighted_sq(case) < spatial_norm_tol
    for s_index in (3.0, 7.0):
        sampled = hs_norm(g, w, s_index) ** 2
        quad = float(np.exp(cx.hs_sq_log(case, s_index)))
        assert abs(sampled - quad) / quad < spatial_norm_tol


def test_repaired_side_dominates_everywhere(ladder):
    rows, _ = ladder
    assert len(rows) == 6
    for row in rows:
        assert row["rhs_corr"] >= row["rhs_orig"]


def test_original_ratio_crosses_one_and_keeps_growing(ladder):
    rows, verdict = ladder
    ratios = [row["ratio_orig"] for row in rows]
    assert all(r > 1.0 for r in ratios)
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert verdict["first_crossing_N"] == 32.0
    assert verdict["original_unbounded"] is True


def test_repaired_ratio_shrinks_monotonically(ladder):
    rows, _ = ladder
    ratios = [row["ratio_corr"] for row in rows]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.05


def test_fitted_growth_exponents(ladder):
    _, verdict = ladder
    assert verdict["original_exponent"] == pytest.approx(
        original_exponent_frozen, abs=1e-9)
    assert verdict["corrected_exponent"] == pytest.approx(
        corrected_exponent_frozen, abs=1e-9)
    assert verdict["predicted_exponent"] == 0.5
    assert verdict["near_degenerate"] is False


def test_local_growth_exponent_stabilizes(ladder):
    rows, _ = ladder
    r = [row["ratio_orig"] for row in rows]
    ns = [row["N"] for row in rows]
    slopes = [np.log(r[i + 1] / r[i]) / np.log(ns[i + 1] / ns[i])
              for i in range(len(r) - 1)]
    gaps = [abs(b - a) / max(abs(a), abs(b))
            for a, b in zip(slopes, slopes[1:])]
    assert max(gaps) < 0.1


def test_scaled_right_side_drift_shrinks(ladder):
    rows, _ = ladder
    drifts = {}
    for a, b in zip(rows, rows[1:]):
        drifts[int(a["N"])] = abs(b["rhs_orig"] / b["N"] ** 1.5
                                  / (a["rhs_orig"] / a["N"] ** 1.5) - 1.0)
    for n_scale, frozen in rhs_drift_frozen.items():
        assert drifts[n_scale] == pytest.approx(frozen, abs=5e-3)
    vals = [drifts[n] for n in sorted(drifts)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exponent_shifts_with_the_weight_parameter():
    _, verdict = cx.failure_scan(0.3, LADDER)
    assert verdict["original_exponent"] == pytest.approx(
        rho_030_exponent_frozen, abs=2e-2)
    assert verdict["near_degenerate"] is False


def test_near_degenerate_weight_still_resolves():
    _, verdict = cx.failure_scan(0.49, LADDER)
    assert verdict["near_degenerate"] is True
    assert verdict["original_exponent"] == pytest.approx(
        rho_049_exponent_frozen, abs=2e-2)
    case = cx.CounterexampleCase(16, 0.49)
    assert case.sobolev_corrected == pytest.approx(151.0, rel=1e-12)
    assert np.isfinite(cx.rhs_corrected(case))


def test_predicted_exponent_is_capped_at_one_half():
    for rho in (0.25, 0.3, 0.49):
        assert cx.predicted_ratio_exponent(rho) == 0.5


def test_coarse_quadrature_trips_the_resolution_gate():
    case = cx.CounterexampleCase(64, 0.49, quad_points=64)
    for reported in (cx.lhs, cx.rhs_original, cx.rhs_corrected):
        with pytest.raises(QuadratureUnderResolved):
            reported(case)


def test_verdict_needs_at_least_two_rows(ladder):
    rows, _ = ladder
    with pytest.raises(ValueError):
        cx.scan_verdict(rows[:1], 0.25)
