"""The rfft operators the library runs -- the snapshot's spectrum, its
derivative and antiderivative, the linear flow exp(t dx^{-1}) and the
Parseval weights -- checked against the whole-grid transform oracles,
which are checked against closed forms; and the refined-lattice sup norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from shortpulse import spectral
from shortpulse._kernels import derivative_symbols
from shortpulse.errors import MeanNotZero
from shortpulse.norms import spectral_power
from shortpulse.spectral import Field, Grid, Snapshot, check_zero_mean, l2_norm
from oracles import (
    derivative,
    forward_transform,
    free_propagate,
    inverse_transform,
    linf_norm,
    mean_coefficient,
    spectral_l2_norm,
)

SQRT2PI = np.sqrt(2.0 * np.pi)

roundtrip_tol = 1e-12
parseval_tol = 1e-12
gaussian_transform_tol = 1e-10
calculus_tol = 1e-10
weight_identity_tol = 1e-12
propagator_tol = 1e-12
propagator_oracle_tol = 1e-13
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


def flow(u, t):
    """The linear flow exp(t dx^{-1}) as the library takes it: exp(t inv)
    on the snapshot's rfft rows, inv the pinned 1/(i xi) symbol."""
    g = u.grid
    inv = derivative_symbols(g.n, g.length)[1]
    return Field(g, sfft.irfft(np.exp(t * inv) * Snapshot(0.0, u).uh, g.n))


def test_transform_roundtrip_is_identity():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=3)
    back = sfft.irfft(Snapshot(0.0, u).uh, g.n)
    assert np.max(np.abs(back - u.values)) < roundtrip_tol
    whole = inverse_transform(g, forward_transform(g, u.values))
    assert np.max(np.abs(whole - u.values)) < roundtrip_tol


def test_parseval_ties_spatial_and_spectral_mass():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=4)
    half = np.sqrt(np.sum(spectral_power(Snapshot(0.0, u))))
    assert abs(l2_norm(u) - half) < parseval_tol
    assert abs(l2_norm(u) - spectral_l2_norm(g, forward_transform(g, u.values))) \
        < parseval_tol


def test_gaussian_transform_matches_closed_form():
    g = Grid(1 << 12, 64.0)
    c = forward_transform(g, np.exp(-g.x ** 2))
    exact = np.exp(-g.xi ** 2 / 4.0) / np.sqrt(2.0)
    assert np.max(np.abs(c - exact)) < gaussian_transform_tol


def test_single_mode_coefficient_is_box_length_over_sqrt_2pi():
    g = Grid(1 << 8, 40.0)
    k = 2.0 * np.pi * 5 / g.length
    c = forward_transform(g, np.exp(1j * k * g.x))
    idx = int(np.argmin(np.abs(g.xi - k)))
    assert abs(c[idx] - g.length / SQRT2PI) < 1e-10
    others = np.abs(c)
    others[idx] = 0.0
    assert np.max(others) < 1e-10


def test_derivative_of_sine_is_cosine():
    g = Grid(1 << 10, 16.0 * np.pi)
    ux = Snapshot(0.0, Field(g, np.sin(g.x))).u_x
    assert np.max(np.abs(ux.values - np.cos(g.x))) < calculus_tol


def test_second_derivative_via_order_argument():
    g = Grid(1 << 10, 16.0 * np.pi)
    uxx = derivative(g, np.sin(g.x), order=2)
    assert np.max(np.abs(uxx + np.sin(g.x))) < calculus_tol


def test_antiderivative_of_cosine_is_sine():
    g = Grid(1 << 10, 16.0 * np.pi)
    v = Snapshot(0.0, Field(g, np.cos(g.x))).u_anti
    assert np.max(np.abs(v.values - np.sin(g.x))) < calculus_tol


def test_antiderivative_inverts_derivative_up_to_mean():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=5)
    back = Snapshot(0.0, Snapshot(0.0, u).u_x).u_anti
    centered = u.values - np.mean(u.values)
    assert np.max(np.abs(back.values - centered)) < roundtrip_tol


def test_antiderivative_rejects_nonzero_mean():
    g = Grid(1 << 10, 64.0)
    with pytest.raises(MeanNotZero, match="antiderivative"):
        check_zero_mean(Field(g, np.exp(-g.x ** 2)), 1e-10, "antiderivative")


def test_mean_coefficient_scaling():
    g = Grid(1 << 10, 64.0)
    u = Field(g, np.exp(-g.x ** 2))
    # c_0 = integral / sqrt(2 pi); integral of exp(-x^2) = sqrt(pi)
    c0 = mean_coefficient(g, u.values)
    assert abs(c0 - np.sqrt(np.pi) / SQRT2PI) < 1e-10
    # the library's zero-mean check reads the same c_0
    check_zero_mean(u, 1.001 * abs(c0) / l2_norm(u), "u")
    with pytest.raises(MeanNotZero):
        check_zero_mean(u, 0.999 * abs(c0) / l2_norm(u), "u")


@pytest.mark.parametrize("s", [4.5, -4.5])
def test_sobolev_weight_and_its_inverse_cancel(s):
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=6)
    w = (1.0 + g.xi ** 2) ** (s / 2.0)
    weighted = w * forward_transform(g, u.values)
    back = inverse_transform(g, w ** -1.0 * weighted)
    assert np.max(np.abs(back - u.values)) < weight_identity_tol


def test_inverse_symbol_with_zero_mode_value_is_accepted():
    # 1/(i xi) is pinned to 0 at xi = 0 (and on the Nyquist row), so the
    # symbol and the flow built on it are finite on every row
    g = Grid(1 << 8, 32.0)
    ik, inv = derivative_symbols(g.n, g.length)
    assert np.all(np.isfinite(inv))
    assert inv[0] == 0.0 and inv[-1] == 0.0
    assert np.max(np.abs(ik[1:-1] * inv[1:-1] - 1.0)) < 1e-15
    assert np.all(np.isfinite(np.exp(7.3 * inv)))


def test_propagator_symbol_has_unit_modulus():
    g = Grid(1 << 10, 100.0)
    sym = np.exp(7.3 * derivative_symbols(g.n, g.length)[1])
    assert np.max(np.abs(np.abs(sym) - 1.0)) < 1e-14


def test_free_propagation_at_time_zero_is_identity():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=9)
    assert np.max(np.abs(flow(u, 0.0).values - u.values)) < 1e-14


def test_free_propagation_preserves_l2_mass():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=10)
    assert abs(l2_norm(flow(u, 17.0)) - l2_norm(u)) < propagator_tol


def test_free_propagation_composes_and_inverts():
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=11)
    two_hops = flow(flow(u, 3.0), 4.0)
    one_hop = flow(u, 7.0)
    assert np.max(np.abs(two_hops.values - one_hop.values)) < propagator_tol
    back = flow(one_hop, -7.0)
    assert np.max(np.abs(back.values - u.values)) < propagator_tol


@pytest.mark.parametrize("t", [0.3, 17.0, -40.0])
def test_free_propagation_matches_the_whole_grid_oracle(t):
    g = Grid(1 << 10, 100.0)
    u = smooth_random_field(g, seed=12)
    want = free_propagate(g, u.values, t)
    assert np.max(np.abs(flow(u, t).values - want)) \
        < propagator_oracle_tol * np.max(np.abs(want))


def test_free_propagation_moves_mass_left():
    g = Grid(1 << 15, 3200.0)
    u0 = Field(g, 0.1 * (-2.0 * g.x) * np.exp(-g.x ** 2))
    ut = flow(u0, 100.0)
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
    assert abs(l2_norm(flow(u, t)) - l2_norm(u)) < 1e-10


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
