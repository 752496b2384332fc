import numpy as np
import pytest

from speclp import (Field, GridSpec, SpectralField, besov_norm0, block, block_energy_table,
                    build_decomposition, bump_profile, chi_profile,
                    inverse_transform, low_part, lp_norm, refine_field, sobolev_norm)
from speclp import spectral
from speclp.corpus import generate_corpus
from speclp.lp_decomp import _low_and_blocks, _partition_defect, _radial
from speclp.spectral import _multiply


@pytest.fixture
def grid():
    return GridSpec(1, 1024, 32.0)


def bandlimited(grid, seed, lo_frac=0.05, hi_frac=0.45):
    rng = np.random.default_rng(seed)
    xi = np.abs(grid.freq_axis())
    band = (xi > lo_frac * grid.nyquist) & (xi < hi_frac * grid.nyquist)
    coeffs = np.zeros(grid.n, dtype=complex)
    coeffs[band] = rng.standard_normal(band.sum()) + 1j * rng.standard_normal(band.sum())
    return inverse_transform(SpectralField(grid, coeffs))


def test_cutoff_profile_shape():
    assert chi_profile(np.array([0.0, 0.5, 1.0]))[0:3].tolist() == [1.0, 1.0, 1.0]
    assert chi_profile(np.array([2.0, 3.0])).tolist() == [0.0, 0.0]
    # ratio construction is symmetric about the midpoint
    assert chi_profile(np.array([1.5]))[0] == pytest.approx(0.5)
    rho = np.linspace(0.0, 3.0, 601)
    c = chi_profile(rho)
    assert np.all(np.diff(c) <= 1e-15)  # monotone


def _g(u):
    """g(u) = exp(-1/u) for u > 0, else 0, on the whole array."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _chi_oracle(rho):
    """The cutoff with both g evaluated on the whole input, as first written."""
    rho = np.asarray(rho, dtype=float)
    a, b = _g(2.0 - rho), _g(rho - 1.0)
    mid = (rho > 1.0) & (rho < 2.0)
    out = np.where(rho <= 1.0, 1.0, 0.0)
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


_EDGES = [1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0 - 1e-15, 2.0, 2.0 + 1e-15, 0.5, 0.0, -1.0,
          np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_local_profiles_match_the_whole_lattice_formula(d):
    rng = np.random.default_rng(d)
    inputs = [rng.uniform(0.0, 4.0, size=(24,) * d), np.array(_EDGES),
              np.array(_EDGES).reshape(3, 4), np.float64(1.37), 1.5, 2.0 - 1e-15]
    for rho in inputs:
        for got, ref in ((chi_profile(rho), _chi_oracle(rho)),
                         (bump_profile(rho), _chi_oracle(rho) - _chi_oracle(2.0 * np.asarray(rho)))):
            assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_bump_support_exact_and_nonnegative():
    assert bump_profile(np.array([0.5, 2.0])).tolist() == [0.0, 0.0]
    rho = np.linspace(0.0, 4.0, 801)
    vals = bump_profile(rho)
    assert np.all(vals >= 0.0)
    assert np.all(vals[(rho < 0.5) | (rho > 2.0)] == 0.0)


def _bump_sum_defect(D):
    """max |sum_j Phi(2^-j xi) - 1| over nonzero xi, one bump_profile per j."""
    xi = D.grid.xi_norm()
    total = np.zeros(D.grid.shape)
    for j in D.j_range:
        total += bump_profile(xi * 2.0 ** (-j))
    return float(np.abs(total[xi > 0] - 1.0).max())


def test_partition_of_unity(grid):
    assert _bump_sum_defect(build_decomposition(grid)) <= 1e-14


@pytest.mark.parametrize("d, n", [(1, 4096), (2, 256), (3, 64)])
def test_partition_defect_has_the_bits_of_the_per_block_sum(d, n):
    D = build_decomposition(GridSpec(d, n, 32.0))
    assert repr(_partition_defect(D)) == repr(_bump_sum_defect(D))


def test_block_annihilates_distant_spectrum(grid):
    D = build_decomposition(grid)
    # spectrum concentrated near |xi| = 2^2
    xi = np.abs(grid.freq_axis())
    coeffs = np.where((xi > 2**1.9) & (xi < 2**2.1), 1.0 + 0.0j, 0.0)
    f = inverse_transform(SpectralField(grid, coeffs))
    for j in D.j_range:
        if abs(j - 2) >= 2:
            assert lp_norm(block(f, j, D), 2) <= 1e-12 * lp_norm(f, 2)


def test_almost_orthogonality(grid):
    D = build_decomposition(grid)
    f = bandlimited(grid, 11)
    l2 = lp_norm(f, 2)
    for i, j in ((0, 2), (1, 3), (D.j_min, D.j_min + 2), (D.j_max - 2, D.j_max)):
        assert lp_norm(block(block(f, j, D), i, D), 2) <= 1e-12 * l2


def test_reconstruction(grid):
    D = build_decomposition(grid)
    f = bandlimited(grid, 12)
    rec = low_part(f, D).values.copy()
    for j in range(1, D.j_max + 1):
        rec += block(f, j, D).values
    assert np.linalg.norm(rec - f.values) <= 1e-10 * np.linalg.norm(f.values)


def test_block_range_checked(grid):
    D = build_decomposition(grid)
    f = bandlimited(grid, 13)
    with pytest.raises(ValueError):
        block(f, D.j_max + 1, D)


def test_low_part_cases(grid):
    D = build_decomposition(grid)
    xi = np.abs(grid.freq_axis())
    low = inverse_transform(SpectralField(grid, np.where(xi <= 0.5, 1.0 + 0j, 0.0)))
    assert np.abs(low_part(low, D).values - low.values).max() <= 1e-12 * np.abs(low.values).max()
    high = inverse_transform(SpectralField(grid, np.where(xi >= 2.0, 1.0 + 0j, 0.0)))
    assert lp_norm(low_part(high, D), 2) <= 1e-12 * lp_norm(high, 2)
    const = Field(grid, np.full(grid.n, 2.5))
    assert np.abs(low_part(const, D).values - const.values).max() <= 1e-12


def test_besov_single_annulus_exact():
    # half extent 16 pi puts xi = k/16 on the lattice; sin(4x) sits exactly
    # where the j = 2 bump equals one
    g = GridSpec(1, 1024, 16.0 * np.pi)
    D = build_decomposition(g)
    f = Field(g, np.sin(4.0 * g.x_axis()))
    q = 3.0
    assert besov_norm0(f, q, D) == pytest.approx(lp_norm(f, q), rel=1e-12)


def test_besov_zero_and_homogeneous(grid):
    D = build_decomposition(grid)
    assert besov_norm0(Field(grid, np.zeros(grid.n)), 2.0, D) == 0.0
    f = bandlimited(grid, 14)
    a = besov_norm0(f, 2.0, D)
    b = besov_norm0(Field(grid, 3.5 * f.values), 2.0, D)
    assert b == pytest.approx(3.5 * a, rel=1e-12)


def test_besov_l2_frame_bounds(grid):
    D = build_decomposition(grid)
    entries = generate_corpus(15, grid, "BANDLIMITED_RANDOM", 6, mean_removed=False)
    for e in entries:
        ratio = besov_norm0(e.field, 2.0, D) / lp_norm(e.field, 2)
        assert 1.0 / np.sqrt(3.0) - 1e-9 <= ratio <= np.sqrt(2.0) + 1e-9


def test_sobolev_cases(grid):
    f = bandlimited(grid, 16)
    assert sobolev_norm(f, 0.0, 2.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    xi0 = grid.freq_axis()[12]
    wave = Field(grid, np.exp(1j * xi0 * grid.x_axis()))
    expected = (1.0 + xi0**2) ** 0.75 * lp_norm(wave, 2)
    assert sobolev_norm(wave, 1.5, 2.0) == pytest.approx(expected, rel=1e-10)
    g = Field(grid, 2.0 * f.values)
    assert sobolev_norm(g, 1.0, 2.0) == pytest.approx(2.0 * sobolev_norm(f, 1.0, 2.0), rel=1e-12)


def test_besov_sobolev_embedding_constant_stable(grid):
    D = build_decomposition(grid)
    entries = generate_corpus(17, grid, "BANDLIMITED_RANDOM", 5, mean_removed=False)
    coarse = max(besov_norm0(e.field, 2.0, D) / sobolev_norm(e.field, 0.0, 2.0)
                 for e in entries)
    fine_grid = GridSpec(1, 2 * grid.n, grid.half_extent)
    Df = build_decomposition(fine_grid)
    fine = max(besov_norm0(refine_field(e.field, 2), 2.0, Df)
               / sobolev_norm(refine_field(e.field, 2), 0.0, 2.0) for e in entries)
    assert coarse <= np.sqrt(2.0) + 1e-9
    assert abs(fine - coarse) <= 0.05 * coarse


def test_block_energy_table(grid):
    D = build_decomposition(grid)
    f = bandlimited(grid, 18)
    rows = block_energy_table(f, 2.0, D)
    assert [j for j, _ in rows] == list(D.j_range)
    assert all(v >= 0.0 for _, v in rows)


# --- exponent-2 norms of a real field by Parseval -----------------------------

PARSEVAL_GRIDS = [GridSpec(1, 256, 16.0), GridSpec(2, 48, 8.0), GridSpec(3, 16, 4.0)]


def _sample_route(f, q, D):
    """besov_norm0(f, q, D), sobolev_norm(f, 1.5, q) and block_energy_table(f,
    q, D) from the samples of every synthesized block."""
    parts = _low_and_blocks(f, D, max(1, D.j_min))
    low = lp_norm(next(parts), q)
    besov = low + sum(lp_norm(g, q) ** q for g in parts) ** (1.0 / q)
    sobolev = lp_norm(_multiply(f, _radial(f.grid, lambda rho: (1.0 + rho**2) ** 0.75)), q)
    return besov, sobolev, [(j, lp_norm(block(f, j, D), q)) for j in D.j_range]


def _real_fields(grid):
    """A real field with content at every frequency, and one whose content
    sits only on the self-paired last-axis columns 0 and n/2 of the half
    spectrum: constant along the last axis, plus a last-axis Nyquist wave."""
    rng = np.random.default_rng(grid.dim)
    lines = grid.shape[:-1] + (1,)
    nyquist_wave = np.cos(grid.nyquist * grid.x_axis())
    return [Field(grid, rng.standard_normal(grid.shape)),
            Field(grid, rng.standard_normal(lines) + rng.standard_normal(lines) * nyquist_wave)]


@pytest.mark.parametrize("grid", PARSEVAL_GRIDS, ids=str)
def test_exponent_2_norms_of_a_real_field_agree_with_the_sample_route(grid):
    D = build_decomposition(grid)
    for f in _real_fields(grid):
        besov, sobolev, table = _sample_route(f, 2.0, D)
        rows = block_energy_table(f, 2.0, D)
        assert [j for j, _ in rows] == list(D.j_range)
        pairs = [(besov_norm0(f, 2.0, D), besov), (sobolev_norm(f, 1.5, 2.0), sobolev)]
        pairs += [(got, want) for (_, got), (_, want) in zip(rows, table)]
        assert any(want > 0.0 for _, want in pairs[2:])
        for got, want in pairs:
            assert abs(got - want) <= 1e-14 * want


def test_exponent_2_norms_of_a_real_field_run_no_inverse_transform(monkeypatch):
    grid = PARSEVAL_GRIDS[-1]
    D = build_decomposition(grid)
    f = _real_fields(grid)[0]
    calls = {}

    def spy(name, step):
        def counted(*args, **kwargs):
            calls[name] += 1
            return step(*args, **kwargs)
        return counted

    monkeypatch.setattr(spectral, "_fft", spy("forward", spectral._fft))
    monkeypatch.setattr(spectral, "_ifft", spy("inverse", spectral._ifft))
    blocks = len(D.j_range)
    for norm, inverse in ((lambda: besov_norm0(f, 2.0, D), 0),
                          (lambda: sobolev_norm(f, 1.5, 2.0), 0),
                          (lambda: block_energy_table(f, 2.0, D), 0),
                          (lambda: block_energy_table(f, 3.0, D), blocks),
                          (lambda: block_energy_table(Field(grid, 1j * f.values), 2.0, D), blocks)):
        calls.update(forward=0, inverse=0)
        norm()
        assert calls == {"forward": 1, "inverse": inverse}


@pytest.mark.parametrize("grid", PARSEVAL_GRIDS, ids=str)
def test_other_exponents_and_complex_fields_keep_the_sample_route(grid):
    # byte for byte: block_energy_table's rows are lp_norm(block(f, j, D), q)
    D = build_decomposition(grid)
    f = _real_fields(grid)[0]
    z = Field(grid, f.values + 1j * np.random.default_rng(5).standard_normal(grid.shape))
    for g, q in ((f, 3.0), (z, 2.0), (z, 3.0)):
        besov, sobolev, table = _sample_route(g, q, D)
        assert repr(besov_norm0(g, q, D)) == repr(besov)
        assert repr(sobolev_norm(g, 1.5, q)) == repr(sobolev)
        assert repr(block_energy_table(g, q, D)) == repr(table)
