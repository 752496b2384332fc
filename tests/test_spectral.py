import numpy as np
import pytest

from speclp import (Field, GridSpec, SpectralField, forward_transform, inverse_transform,
                    lp_norm, mean_remove, refine_field, spectral_shift)
from speclp.spectral import _multiply


@pytest.fixture
def grid():
    return GridSpec(1, 256, 16.0)


def spectral_l2(F):
    return np.sqrt((np.abs(F.coeffs) ** 2).sum() * F.grid.freq_measure)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 255, 16.0)  # odd n
    with pytest.raises(ValueError):
        GridSpec(4, 16, 1.0)  # d > 3
    with pytest.raises(ValueError):
        GridSpec(1, 16, -1.0)
    for L in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            GridSpec(1, 16, L)
    g = GridSpec(2, 64, 8.0)
    assert g.spacing * g.n == 2 * g.half_extent
    assert g.nyquist == np.pi * g.n / (2 * g.half_extent)


def test_dc_field_transform(grid):
    F = forward_transform(Field(grid, np.ones(grid.n)))
    expected_zero_mode = 2 * grid.half_extent / np.sqrt(2 * np.pi)
    assert abs(F.coeffs[0] - expected_zero_mode) < 1e-12 * expected_zero_mode
    assert np.abs(F.coeffs[1:]).max() < 1e-12 * expected_zero_mode


def test_single_harmonic(grid):
    x = grid.x_axis()
    F = forward_transform(Field(grid, np.exp(1j * np.pi * x / grid.half_extent)))
    mags = np.abs(F.coeffs)
    assert np.argmax(mags) == 1  # k = 1 bin in fft order
    rest = mags.copy()
    rest[1] = 0.0
    assert rest.max() < 1e-12 * mags[1]


def test_gaussian_transform_closed_form(grid):
    x = grid.x_axis()
    F = forward_transform(Field(grid, np.exp(-(x**2) / 2)))
    xi = grid.freq_axis()
    sel = np.abs(xi) <= 4.0
    exact = np.exp(-(xi[sel] ** 2) / 2)
    assert np.abs(F.coeffs[sel] - exact).max() <= 1e-8 * np.abs(exact).max()


def test_round_trip_random_bandlimited(grid):
    rng = np.random.default_rng(0)
    coeffs = np.zeros(grid.n, dtype=complex)
    band = np.abs(grid.freq_axis()) < grid.nyquist / 2
    coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    f = inverse_transform(SpectralField(grid, coeffs))
    back = inverse_transform(forward_transform(f))
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()


def test_zero_spectrum(grid):
    f = inverse_transform(SpectralField(grid, np.zeros(grid.n)))
    assert np.abs(f.values).max() == 0.0


def test_unit_coefficient_gives_plane_wave(grid):
    coeffs = np.zeros(grid.n, dtype=complex)
    k = 5
    coeffs[k] = 1.0
    f = inverse_transform(SpectralField(grid, coeffs))
    xi0 = grid.freq_axis()[k]
    expected = (2 * np.pi) ** -0.5 * grid.freq_measure * np.exp(1j * xi0 * grid.x_axis())
    assert np.abs(f.values - expected).max() < 1e-14


def test_multiplier_identity_and_derivative(grid):
    x = grid.x_axis()
    xi0 = grid.freq_axis()[3]
    f = Field(grid, np.exp(1j * xi0 * x))
    same = _multiply(f, lambda half: np.ones(grid.shape))
    assert np.abs(same.values - f.values).max() < 1e-12
    deriv = _multiply(f, lambda half: 1j * grid.xi_stack()[0])
    assert np.abs(deriv.values - 1j * xi0 * f.values).max() < 1e-10 * abs(xi0)


def test_plancherel_and_linearity(grid):
    rng = np.random.default_rng(2)
    for _ in range(4):
        vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        f = Field(grid, vals)
        F = forward_transform(f)
        assert abs(lp_norm(f, 2) - spectral_l2(F)) <= 1e-12 * lp_norm(f, 2)
    f1 = Field(grid, rng.standard_normal(grid.n))
    f2 = Field(grid, rng.standard_normal(grid.n))
    lhs = forward_transform(Field(grid, 2.0 * f1.values - 3.0 * f2.values)).coeffs
    rhs = 2.0 * forward_transform(f1).coeffs - 3.0 * forward_transform(f2).coeffs
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_lp_norm_plateau_and_gaussian(grid):
    x = grid.x_axis()
    plateau = Field(grid, (np.abs(x) <= 1.0).astype(float))
    assert abs(lp_norm(plateau, 2) ** 2 - 2.0) <= 2 * grid.spacing
    assert lp_norm(Field(grid, np.zeros(grid.n)), 3) == 0.0
    gauss = Field(grid, np.exp(-(x**2) / 2))
    assert abs(lp_norm(gauss, 2) - np.pi**0.25) <= 1e-6


def test_lp_norm_rejects_p_below_one(grid):
    with pytest.raises(ValueError):
        lp_norm(Field(grid, np.ones(grid.n)), 0.5)
    # (sum |f|^inf)^(1/inf) would be x**0 = 1.0 for every nonzero field
    with pytest.raises(ValueError, match="p must be finite and >= 1, got inf"):
        lp_norm(Field(grid, np.ones(grid.n)), float("inf"))


def test_mean_remove(grid):
    f = mean_remove(Field(grid, np.ones(grid.n) + np.cos(grid.x_axis())))
    assert abs(forward_transform(f).coeffs[0]) < 1e-12


def test_spectral_shift_matches_roll(grid):
    rng = np.random.default_rng(3)
    coeffs = np.zeros(grid.n, dtype=complex)
    band = np.abs(grid.freq_axis()) < grid.nyquist / 2
    coeffs[band] = rng.standard_normal(band.sum())
    f = inverse_transform(SpectralField(grid, coeffs))
    m = 7
    shifted = spectral_shift(f, m * grid.spacing)
    assert np.abs(shifted.values - np.roll(f.values, m)).max() < 1e-10


def test_refine_preserves_samples(grid):
    x = grid.x_axis()
    f = Field(grid, np.exp(-(x**2) / 2))
    fine = refine_field(f, 2)
    assert fine.grid.n == 2 * grid.n
    assert np.abs(fine.values[::2] - f.values).max() < 1e-12


def test_2d_round_trip_and_plancherel():
    g = GridSpec(2, 64, 8.0)
    rng = np.random.default_rng(4)
    f = Field(g, rng.standard_normal(g.shape))
    F = forward_transform(f)
    back = inverse_transform(F)
    assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
    assert abs(lp_norm(f, 2) - spectral_l2(F)) <= 1e-12 * lp_norm(f, 2)


@pytest.mark.parametrize("dim, n", [(1, 64.0), (1.0, 64), (1, "64"), (1, 64.5)])
def test_grid_rejects_non_integer_sizes(dim, n):
    with pytest.raises(ValueError, match="must be an integer"):
        GridSpec(dim, n, 8.0)


def test_grid_accepts_numpy_integers():
    g = GridSpec(np.int64(2), np.int32(64), 8.0)
    assert g == GridSpec(2, 64, 8.0)
    assert g.shape == (64, 64) and all(type(k) is int for k in g.shape)
    assert type(g.dim) is int


@pytest.mark.parametrize("factor", [2.0, 1.5, "2", None])
def test_refine_rejects_non_integer_factor(grid, factor):
    f = Field(grid, np.cos(grid.x_axis()))
    with pytest.raises(ValueError, match="factor must be an integer"):
        refine_field(f, factor)


def test_refine_accepts_numpy_integer_factor(grid):
    f = Field(grid, np.exp(-(grid.x_axis() ** 2) / 2))
    fine = refine_field(f, np.int64(2))
    assert fine.grid == GridSpec(1, 2 * grid.n, grid.half_extent)
    assert fine.values.tobytes() == refine_field(f, 2).values.tobytes()
    with pytest.raises(ValueError, match="positive"):
        refine_field(f, np.int64(0))
