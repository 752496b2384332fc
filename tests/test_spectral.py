import tracemalloc

import numpy as np
import pytest

from speclp import (Field, GridSpec, SpectralField, forward_transform, inverse_transform,
                    lp_norm, mean_remove, refine_field, spectral_shift)
from speclp import spectral
from speclp.spectral import _multiply
from test_lattice_radius import x_stack


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


def test_lp_norm_p2_real_bits_match_abs_pow():
    # a real field at p = 2 is squared in one pass; abs then **= 2.0 gave the
    # same bits, over magnitudes 1e-170..1e170 (the top and bottom squares
    # overflow and underflow), zeros of both signs and subnormals
    rng = np.random.default_rng(2)
    v = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-170.0, 170.0, 200_000)
    v[::97], v[1::89], v[2::83], v[3::79] = 0.0, -0.0, 5e-324, -2.2e-308
    with np.errstate(over="ignore", under="ignore"):
        a = np.abs(v)
        a **= 2.0
        assert np.square(v).tobytes() == a.tobytes()
        for d, n in ((1, 4096), (2, 64), (3, 16)):
            grid = GridSpec(d, n, 8.0)
            for scale in (1e-160, 1e-100, 1.0, 1e100, 1e160):
                f = Field(grid, v[:n**d].reshape(grid.shape) / 1e170 * scale)
                a = np.abs(f.values)
                a **= 2.0
                want = float(a.sum() * grid.cell_measure) ** 0.5
                assert repr(lp_norm(f, 2)) == repr(want)


def _powers(x, p):
    """|x|^p as numpy spells it for the whole array: np.square for a real x
    at p = 2, else abs then **."""
    return np.square(x) if p == 2 and np.isrealobj(x) else np.abs(x) ** p


@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_lp_norm_pieces_bits_match_one_array_sum(p):
    # sums over pieces of at most _CHUNK_BYTES split as numpy's pairwise sum
    # splits, against numpy's sum of the whole array of powers: odd and
    # even sizes on both sides of one piece, and fields that take many pieces
    # (n // 2 is 2, 6, 7 and 5 mod 8 on the last four sizes)
    piece = spectral._CHUNK_BYTES // 8
    rng = np.random.default_rng(7)
    for size in (127, 128, 1000, piece - 1, piece, piece + 1, 3 * 2**17 + 5, 3 * 2**17 + 13,
                 3 * 2**17 + 15, 5 * 2**16 + 27):
        re = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        for x in (re, re + 1j * rng.standard_normal(size)):
            want = _powers(x, p).sum()
            assert repr(spectral._power_sum(x, lambda v: _powers(v, p))) == repr(want)
    for grid in (GridSpec(1, 1000, 8.0), GridSpec(1, piece + 2, 8.0),
                 GridSpec(1, 3 * 2**17 + 6, 8.0), GridSpec(2, 256, 8.0), GridSpec(3, 128, 8.0)):
        re = rng.standard_normal(grid.shape)
        for f in (Field(grid, re), Field(grid, re + 1j * rng.standard_normal(grid.shape))):
            want = float(_powers(f.values, p).sum() * grid.cell_measure) ** (1.0 / p)
            assert repr(lp_norm(f, p)) == repr(want)


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


@pytest.mark.parametrize("grid", [GridSpec(2, 32, 8.0), GridSpec(3, 16, 4.0)], ids=str)
def test_spectral_shift_matches_roll_in_2d_and_3d(grid):
    # content below Nyquist/2 on every axis: a lattice shift is a roll
    rng = np.random.default_rng(4)
    axis = np.abs(grid.freq_axis()) < grid.nyquist / 2
    band = np.ones(grid.shape, bool)
    for k in range(grid.dim):
        band &= axis.reshape((-1,) + (1,) * (grid.dim - 1 - k))
    coeffs = np.where(band, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
                      0.0)
    g = inverse_transform(SpectralField(grid, coeffs))
    m = np.array([7, -3, 2])[:grid.dim]
    for f in (Field(grid, g.values.real), g):
        shifted = spectral_shift(f, m * grid.spacing)
        assert shifted.values.dtype == f.values.dtype
        rolled = np.roll(f.values, tuple(m), axis=tuple(range(grid.dim)))
        assert np.abs(shifted.values - rolled).max() <= 1e-12 * np.abs(f.values).max()


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


def _traced_peak(fn):
    fn()  # caches built outside the trace
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bump(grid):
    x = x_stack(grid)
    return Field(grid, np.exp(-(x**2).sum(axis=0)) * (1.0 + 0.3 * np.cos(2.0 * x[0])))


def test_refine_and_norm_peak_memory():
    # a 32^3 -> 64^3 refinement transforms only the lines its spectrum fills,
    # its last two stages by blocks of at most _CHUNK_BYTES, and lp_norm sums
    # by pieces: no zero-padded lattice or second field-sized temporary lives
    # next to the fine field (3.23x on the full lattice, 2.17x with one
    # buffer for the last stages, 1.92x measured)
    f = _bump(GridSpec(3, 32, 4.0))
    assert _traced_peak(lambda: lp_norm(refine_field(f, 2), 2.0)) <= 1.95 * 64**3 * 8


def test_refine_64_cubed_peak_memory():
    # the fine field is 16 MiB; the padded spectrum, whole along the first
    # axis and transformed there in place, one block and one centring block
    # come to 21.3 MiB (23.2 MiB with a compact coarse spectrum held beside
    # the first stage's buffer, 34.4 MiB with one buffer of shape
    # (128, 128, 65) for the last stages)
    f = _bump(GridSpec(3, 64, 4.0))
    assert _traced_peak(lambda: refine_field(f, 2)) < 22 * 2**20


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_lp_norm_peak_memory(complex_values):
    # |f|^p is held one piece at a time, not as a 16 MiB array of 128^3 powers
    grid = GridSpec(3, 128, 4.0)
    values = np.random.default_rng(3).standard_normal(grid.shape)
    f = Field(grid, values + 1j * values if complex_values else values)
    for p in (1.5, 2.0):
        assert _traced_peak(lambda: lp_norm(f, p)) < 2 * spectral._CHUNK_BYTES
    # so is the finiteness test of a new field's samples: one piece's bools,
    # not a 2 MiB bool array of the lattice
    assert _traced_peak(lambda: Field(grid, f.values)) < spectral._CHUNK_BYTES // 4
