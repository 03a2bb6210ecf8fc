"""Transform conventions, symbol calculus, and the free propagator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortpulse import spectral
from shortpulse.errors import MeanNotZero, NonFiniteSymbol
from shortpulse.spectral import (
    Grid,
    Field,
    antiderivative,
    apply_multiplier,
    derivative,
    forward_transform,
    free_propagate,
    inverse_transform,
    l2_norm,
    mean_coefficient,
    spectral_l2_norm,
)
from oracles import linf_norm

SQRT2PI = np.sqrt(2.0 * np.pi)

roundtrip_tol = 1e-12
parseval_tol = 1e-12
gaussian_transform_tol = 1e-10
calculus_tol = 1e-10
weight_identity_tol = 1e-12
propagator_tol = 1e-12
linf_oversample_tol = 1e-8
linf_oracle_tol = 1e-14               # measured 1.3e-15 on the mini snapshots
freeflow_leak_ratio = 0.05


def smooth_random_field(grid, seed=0, modes=24):
    """Zero-mean real field: seeded cosine series with decaying amplitudes."""
    rng = np.random.default_rng(seed)
    base = 2.0 * np.pi / grid.length
    vals = np.zeros(grid.n)
    for j in range(1, modes + 1):
        k = base * rng.integers(1, grid.n // 8)
        vals += np.exp(-j / 4.0) * np.cos(k * grid.x + 2.0 * np.pi * rng.random())
    u = Field(grid, vals)
    return Field(grid, u.values / max(l2_norm(u), 1e-300))


def test_transform_roundtrip_is_identity():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=3)
    back = inverse_transform(forward_transform(u), real=True)
    assert np.max(np.abs(back.values - u.values)) < roundtrip_tol


def test_parseval_ties_spatial_and_spectral_mass():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=4)
    assert abs(l2_norm(u) - spectral_l2_norm(forward_transform(u))) < parseval_tol


def test_gaussian_transform_matches_closed_form():
    g = Grid(1 << 12, 64.0)
    u = Field(g, np.exp(-g.x ** 2))
    fh = forward_transform(u)
    exact = np.exp(-g.xi ** 2 / 4.0) / np.sqrt(2.0)
    assert np.max(np.abs(fh.coeffs - exact)) < gaussian_transform_tol


def test_single_mode_coefficient_is_box_length_over_sqrt_2pi():
    g = Grid(1 << 8, 40.0)
    k = 2.0 * np.pi * 5 / g.length
    u = Field(g, np.exp(1j * k * g.x), real=False)
    fh = forward_transform(u)
    idx = int(np.argmin(np.abs(g.xi - k)))
    assert abs(fh.coeffs[idx] - g.length / SQRT2PI) < 1e-10
    others = np.abs(fh.coeffs)
    others[idx] = 0.0
    assert np.max(others) < 1e-10


def test_derivative_of_sine_is_cosine():
    g = Grid(1 << 10, 16.0 * np.pi)
    u = Field(g, np.sin(g.x))
    ux = derivative(u)
    assert np.max(np.abs(ux.values - np.cos(g.x))) < calculus_tol


def test_second_derivative_via_order_argument():
    g = Grid(1 << 10, 16.0 * np.pi)
    u = Field(g, np.sin(g.x))
    uxx = derivative(u, order=2)
    assert np.max(np.abs(uxx.values + np.sin(g.x))) < calculus_tol


def test_antiderivative_of_cosine_is_sine():
    g = Grid(1 << 10, 16.0 * np.pi)
    u = Field(g, np.cos(g.x))
    v = antiderivative(u)
    assert np.max(np.abs(v.values - np.sin(g.x))) < calculus_tol


def test_antiderivative_inverts_derivative_up_to_mean():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=5)
    back = antiderivative(derivative(u))
    centered = u.values - np.mean(u.values)
    assert np.max(np.abs(back.values - centered)) < roundtrip_tol


def test_antiderivative_rejects_nonzero_mean():
    g = Grid(1 << 10, 64.0)
    with pytest.raises(MeanNotZero):
        antiderivative(Field(g, np.exp(-g.x ** 2)))


def test_mean_coefficient_scaling():
    g = Grid(1 << 10, 64.0)
    u = Field(g, np.exp(-g.x ** 2))
    # c_0 = integral / sqrt(2 pi); integral of exp(-x^2) = sqrt(pi)
    assert abs(mean_coefficient(u) - np.sqrt(np.pi) / SQRT2PI) < 1e-10


@pytest.mark.parametrize("s", [4.5, -4.5])
def test_sobolev_weight_and_its_inverse_cancel(s):
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=6)
    w = (1.0 + g.xi ** 2) ** (s / 2.0)
    fh = apply_multiplier(forward_transform(u), w)
    back = inverse_transform(apply_multiplier(fh, w ** -1.0), real=True)
    assert np.max(np.abs(back.values - u.values)) < weight_identity_tol


def test_non_finite_symbol_on_populated_mode_is_rejected():
    g = Grid(1 << 8, 32.0)
    u = Field(g, 1.0 + np.cos(2.0 * np.pi * g.x / g.length))
    with np.errstate(divide="ignore"):
        sym = 1.0 / g.xi
    with pytest.raises(NonFiniteSymbol):
        apply_multiplier(forward_transform(u), sym)


def test_non_finite_symbol_on_empty_mode_is_zeroed():
    g = Grid(1 << 8, 32.0)
    u = smooth_random_field(g, seed=7)  # zero mean: the xi=0 mode is empty
    with np.errstate(divide="ignore"):
        sym = 1.0 / g.xi
    fh = apply_multiplier(forward_transform(u), sym)
    assert np.all(np.isfinite(fh.coeffs))


def test_inverse_symbol_with_zero_mode_value_is_accepted():
    g = Grid(1 << 8, 32.0)
    u = smooth_random_field(g, seed=8)
    sym = np.where(np.abs(g.xi) < 1e-12, 0.0, 1.0 / np.where(g.xi == 0, 1.0, g.xi))
    fh = apply_multiplier(forward_transform(u), sym, at_zero=0.0)
    assert np.all(np.isfinite(fh.coeffs))


def propagator_symbol(xi, t):
    """exp(-i t / xi) with the xi = 0 entry pinned to 1, as a raw array."""
    xi = np.asarray(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.exp(-1j * float(t) / xi)
    return np.where(xi == 0.0, 1.0 + 0.0j, m)


def test_propagator_symbol_has_unit_modulus():
    g = Grid(1 << 10, 100.0)
    sym = propagator_symbol(g.xi, 7.3)
    assert np.max(np.abs(np.abs(sym) - 1.0)) < 1e-14


def test_free_propagation_at_time_zero_is_identity():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=9)
    assert np.max(np.abs(free_propagate(u, 0.0).values - u.values)) < 1e-14


def test_free_propagation_preserves_l2_mass():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=10)
    assert abs(l2_norm(free_propagate(u, 17.0)) - l2_norm(u)) < propagator_tol


def test_free_propagation_composes_and_inverts():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=11)
    two_hops = free_propagate(free_propagate(u, 3.0), 4.0)
    one_hop = free_propagate(u, 7.0)
    assert np.max(np.abs(two_hops.values - one_hop.values)) < propagator_tol
    back = free_propagate(one_hop, -7.0)
    assert np.max(np.abs(back.values - u.values)) < propagator_tol


def test_free_propagation_moves_mass_left():
    g = Grid(1 << 15, 3200.0)
    u0 = Field(g, 0.1 * (-2.0 * g.x) * np.exp(-g.x ** 2))
    ut = free_propagate(u0, 100.0)
    right = np.max(np.abs(ut.values[g.x > 10.0]))
    left = np.max(np.abs(ut.values[g.x < 0.0]))
    assert right / left < freeflow_leak_ratio


def test_oversampled_sup_beats_the_grid_maximum():
    g = Grid(1 << 11, 64.0)
    u = Field(g, 0.1 * (-2.0 * g.x) * np.exp(-g.x ** 2))
    exact = 0.1 * np.sqrt(2.0) * np.exp(-0.5)
    assert abs(linf_norm(u, refine=8) - exact) < linf_oversample_tol
    grid_max = float(np.max(np.abs(u.values)))
    assert abs(grid_max - exact) > 1e-5


def test_unrefined_sup_equals_grid_maximum():
    g = Grid(1 << 11, 64.0)
    u = Field(g, 0.1 * (-2.0 * g.x) * np.exp(-g.x ** 2))
    assert linf_norm(u, refine=1) == pytest.approx(np.max(np.abs(u.values)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       t=st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False))
def test_free_propagation_is_unitary_for_any_time(seed, t):
    g = Grid(1 << 8, 64.0)
    u = smooth_random_field(g, seed=seed)
    assert abs(l2_norm(free_propagate(u, t)) - l2_norm(u)) < 1e-10


# ---- the refined-lattice sup norm against its whole-lattice oracle ----

def lattice_oracle(values, refine=8):
    """max |f| over the lattice refine times finer, by the zero-padded
    (refine n)-point inverse transform of the whole lattice; the Nyquist
    row, interior to the padded spectrum, is halved so it counts once."""
    n = values.size
    half = np.fft.rfft(values)
    half[n // 2] *= 0.5
    return float(np.max(np.abs(np.fft.irfft(half, refine * n)))) * refine


def gaussian_bump(grid, center, width, height=1.0):
    """Periodized Gaussian; band-limited to rounding once width >= 4 dx."""
    d = (grid.x - center + 0.5 * grid.length) % grid.length - 0.5 * grid.length
    return height * np.exp(-(d / width) ** 2)


def assert_matches_oracle(values, refine=8):
    g = Grid(values.size, 64.0)
    got = linf_norm(Field(g, values), refine=refine)
    want = lattice_oracle(values, refine)
    assert abs(got - want) <= linf_oracle_tol * want
    assert got >= np.max(np.abs(values))


def test_sup_norm_matches_the_oracle_on_every_mini_snapshot(mini_traj):
    for snap in mini_traj.snapshots:
        for f in (snap.u, snap.u_x):
            assert_matches_oracle(f.values)


def test_sup_norm_finds_the_higher_of_two_distant_peaks():
    # the grid maximum sits on peak A's node; peak B, centered mid-cell on
    # the far side of the box, is higher between its nodes
    g = Grid(512, 64.0)
    vals = gaussian_bump(g, g.x[100], 0.5) \
        + gaussian_bump(g, g.x[400] + 0.5 * g.dx, 0.5, height=1.005)
    assert int(np.argmax(vals)) == 100
    assert_matches_oracle(vals)
    assert linf_norm(Field(g, vals)) > 1.004


@pytest.mark.parametrize("cell", [200, 511])    # 511: the wrap cell
@pytest.mark.parametrize("refine", [4, 8])
def test_sup_norm_finds_a_peak_in_the_middle_of_a_cell(cell, refine):
    g = Grid(512, 64.0)
    vals = gaussian_bump(g, g.x[cell] + 0.5 * g.dx, 0.5, height=-1.0)
    assert_matches_oracle(vals, refine)
    assert linf_norm(Field(g, vals), refine=refine) \
        == pytest.approx(1.0, abs=1e-12)


def test_white_noise_takes_the_whole_lattice_transform(monkeypatch):
    calls = []
    whole = spectral._lattice_sup
    monkeypatch.setattr(spectral, "_lattice_sup",
                        lambda *a: calls.append(a) or whole(*a))
    vals = np.random.default_rng(3).normal(size=1 << 10)
    assert_matches_oracle(vals)
    assert len(calls) == 1
    # a single smooth peak has a handful of candidate cells: no transform
    assert_matches_oracle(gaussian_bump(Grid(1 << 10, 64.0), 1.0, 0.5))
    assert len(calls) == 1


def test_nyquist_row_counts_once_in_the_sup_norm():
    g = Grid(64, 8.0)
    u = Field(g, (-1.0) ** np.arange(g.n))
    assert linf_norm(u) == pytest.approx(1.0, abs=1e-14)
    assert linf_norm(u) >= np.max(np.abs(u.values))
