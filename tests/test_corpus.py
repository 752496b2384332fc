import numpy as np
import pytest

from speclp import ConfigError, GridSpec, forward_transform, generate_corpus, lp_norm


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
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM"):
        e = generate_corpus(4, grid, kind, 1, mean_removed=True)[0]
        F = forward_transform(e.field)
        assert abs(F.coeffs[0]) <= 1e-12 * np.abs(F.coeffs).max()


def test_boundary_decay_of_raw_bumps(grid):
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM"):
        e = generate_corpus(5, grid, kind, 2, mean_removed=False)[0]
        v = np.abs(e.field.values)
        mask = np.abs(grid.x_axis()) > 0.9 * grid.half_extent
        assert v[mask].max() <= 1e-14 * v.max()


def test_band_within_half_nyquist(grid):
    for kind in ("GAUSSIAN_MIX", "BANDLIMITED_RANDOM"):
        for e in generate_corpus(6, grid, kind, 2):
            lo, hi = e.band
            assert 0.0 < lo < hi <= grid.nyquist / 2.0


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
