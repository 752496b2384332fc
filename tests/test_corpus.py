import numpy as np
import pytest

from speclp import ConfigError, GridSpec, forward_transform, generate_corpus, lp_norm
from speclp.corpus import annulus_energy_fraction


@pytest.fixture
def grid():
    return GridSpec(1, 1024, 32.0)


def test_determinism_bit_identical(grid):
    a = generate_corpus(7, grid, "GAUSSIAN_MIX", 4)
    b = generate_corpus(7, grid, "GAUSSIAN_MIX", 4)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.field.values, eb.field.values)
        assert ea.band == eb.band


def test_seed_changes_fields(grid):
    a = generate_corpus(7, grid, "GAUSSIAN_MIX", 1)[0]
    b = generate_corpus(8, grid, "GAUSSIAN_MIX", 1)[0]
    assert not np.array_equal(a.field.values, b.field.values)


def test_single_entry_nontrivial(grid):
    e = generate_corpus(3, grid, "GAUSSIAN_MIX", 1)[0]
    assert lp_norm(e.field, 2) > 0.0
    assert e.mean_removed


def test_mean_removed_zero_mode(grid):
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM", "ANNULUS"):
        e = generate_corpus(4, grid, kind, 1, mean_removed=True)[0]
        F = forward_transform(e.field)
        assert abs(F.coeffs[0]) <= 1e-12 * np.abs(F.coeffs).max()


def test_boundary_decay_of_raw_bumps(grid):
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM", "ANNULUS"):
        e = generate_corpus(5, grid, kind, 2, mean_removed=False)[0]
        v = np.abs(e.field.values)
        mask = np.abs(grid.x_axis()) > 0.9 * grid.half_extent
        assert v[mask].max() <= 1e-14 * v.max()


def test_band_within_half_nyquist(grid):
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM", "ANNULUS"):
        for e in generate_corpus(6, grid, kind, 2):
            lo, hi = e.band
            assert 0.0 < lo < hi <= grid.nyquist / 2.0


def test_annulus_energy_concentration():
    # Nyquist/2 = 8 pi: the largest dyadic shell under it is 2^4
    g = GridSpec(1, 2048, 64.0)
    e = generate_corpus(9, g, "ANNULUS", 1)[0]
    assert e.band == (16.0 * 2.0**-0.1, 16.0 * 2.0**0.1)
    assert annulus_energy_fraction(e) >= 1.0 - 1e-15


def test_annulus_default_shell(grid):
    e = generate_corpus(9, grid, "ANNULUS", 1)[0]
    assert annulus_energy_fraction(e) >= 0.999


def test_annulus_band_overflow_rejected():
    # Nyquist/2 = 8 pi puts the shell at 2^3, too narrow for the envelope a
    # half extent of 32 allows to concentrate its energy
    with pytest.raises(ConfigError, match="increase L or n"):
        generate_corpus(9, GridSpec(1, 512, 32.0), "ANNULUS", 1)


def test_argument_errors(grid):
    with pytest.raises(ValueError):
        generate_corpus(0, grid, "GAUSSIAN_MIX", 0)
    with pytest.raises(ConfigError):
        generate_corpus(0, grid, "NOISE", 1)


def test_2d_corpus():
    g = GridSpec(2, 192, 16.0)
    entries = generate_corpus(10, g, "GAUSSIAN_MIX", 2)
    for e in entries:
        assert e.field.values.shape == g.shape
        assert lp_norm(e.field, 2) > 0.0


def test_gaussian_mix_rejects_hopeless_grid():
    with pytest.raises(ConfigError):
        generate_corpus(10, GridSpec(1, 64, 16.0), "GAUSSIAN_MIX", 1)
