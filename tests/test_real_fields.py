"""Real fields by construction: Field stores real samples as float64, and every
operator maps real input to real output under its documented rule."""

import numpy as np
import pytest

from speclp import (BANDLIMITED_RANDOM, Field, GridSpec, SymbolSpec, apply_evolution, block,
                    build_decomposition, build_multiplier, build_time_window,
                    forward_transform, fractional_laplacian_pv, g_function, generate_corpus,
                    get_symbol, gradient_kernel, inverse_transform, kernel_field, low_part,
                    lp_norm, mean_remove, refine_field, spectral_shift)
from speclp.evolution import EvolutionMultiplier
from speclp.spectral import SpectralField
from test_lattice_radius import x_stack

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")
# exp(-(1 + i) t |xi|^2) has an even imaginary part, so its kernel is complex
SKEW = SymbolSpec(name="skew-heat", eval_fn=lambda t, xi: -(1.0 + 1j) * (xi**2).sum(axis=0),
                  kappa=1.0, mu=2.0, gamma=2.0, n_cert=2, time_constant=True)

G1 = GridSpec(1, 256, 16.0)


def _bump(grid, sigma=1.0, center=0.0):
    x = x_stack(grid)
    return np.exp(-((x - center) ** 2).sum(axis=0) / (2.0 * sigma**2))


def _pair(grid=G1):
    """A real field and a complex field with a nonzero imaginary part."""
    re = _bump(grid) - _bump(grid, 0.7, 1.5)
    return Field(grid, re), Field(grid, re + 1j * _bump(grid, 1.3, -2.0))


def _assert_real(f):
    assert f.values.dtype == np.float64 and f.values.flags.c_contiguous


def _assert_dtypes(op):
    real, cplx = _pair()
    _assert_real(op(real))
    assert op(cplx).values.dtype == np.complex128


@pytest.mark.parametrize("values", [
    _bump(G1),
    _bump(G1).astype(np.float32),
    _bump(G1).astype(np.complex128),
    _bump(G1).astype(np.complex64),
    np.arange(256),
    np.repeat(_bump(G1), 2)[::2],  # strided view
], ids=["float64", "float32", "complex128-zero-imag", "complex64-zero-imag", "int", "strided"])
def test_real_samples_stored_as_contiguous_float64(values):
    f = Field(G1, values)
    _assert_real(f)
    assert f.values.nbytes * 2 == np.asarray(values, dtype=np.complex128).nbytes
    assert np.array_equal(f.values, np.asarray(values).real)


def test_real_samples_in_2d_transposed_view():
    g = GridSpec(2, 16, 4.0)
    f = Field(g, _bump(g, center=np.array([[[0.5]], [[0.0]]])).T)
    _assert_real(f)


@pytest.mark.parametrize("dtype, imag", [(np.complex64, 0.5), (np.complex128, 0.5),
                                         (np.complex128, 1e-300)])
def test_complex_samples_stay_complex128(dtype, imag):
    g = GridSpec(2, 16, 4.0)
    vals = (_bump(g) + 0j).astype(dtype).T  # a transposed view, not C-contiguous
    vals[3, 7] += imag * 1j
    f = Field(g, vals)
    assert f.values.dtype == np.complex128 and f.values.flags.c_contiguous
    assert np.array_equal(f.values, vals.astype(np.complex128))


def test_apply_evolution_dtypes():
    mult = build_multiplier(HEAT, 0.0, 0.5, G1, pre=(POISSON, 0.25))
    _assert_dtypes(lambda f: apply_evolution(f, mult))


def test_kernel_field_dtypes():
    _assert_real(kernel_field((POISSON, 0.5), HEAT, 0.0, 1.0, G1))
    assert kernel_field(None, SKEW, 0.0, 1.0, G1).values.dtype == np.complex128


def test_block_and_low_part_dtypes():
    D = build_decomposition(G1)
    _assert_dtypes(lambda f: low_part(f, D))
    for j in D.j_range:
        _assert_dtypes(lambda f: block(f, j, D))


def test_blocks_above_the_band_stay_real():
    # a block with no content is round-off through and through; it must stay
    # real so a reconstruction can accumulate in place on real arrays
    grid = GridSpec(1, 1024, 32.0)
    D = build_decomposition(grid)
    f = generate_corpus(105, grid, BANDLIMITED_RANDOM, 1, mean_removed=False)[0].field
    top = block(f, D.j_max, D)
    _assert_real(top)
    assert np.abs(top.values).max() < 1e-15 * np.abs(f.values).max()
    rec = low_part(f, D).values.copy()
    for j in range(1, D.j_max + 1):
        rec += block(f, j, D).values
    assert np.abs(rec - f.values).max() <= 1e-10 * np.abs(f.values).max()


def test_spectral_shift_and_refine_dtypes():
    _assert_dtypes(lambda f: spectral_shift(f, [0.3]))
    _assert_dtypes(lambda f: spectral_shift(f, [2.0 * G1.spacing]))
    _assert_dtypes(lambda f: refine_field(f, 2))


def test_fractional_laplacian_pv_dtypes():
    grid = GridSpec(1, 1024, 64.0)
    real, cplx = _pair(grid)
    _assert_real(fractional_laplacian_pv(real, 1.0))
    assert fractional_laplacian_pv(cplx, 1.0).values.dtype == np.complex128


def test_mean_remove_dtypes():
    _assert_dtypes(mean_remove)


def test_g_function_is_real_for_real_and_complex_input():
    w = build_time_window(0.0, 1.0, 2.0, HEAT.gamma, HEAT.gamma, n_nodes=4, xi_max=G1.nyquist)
    for f in _pair():
        _assert_real(g_function(f, HEAT, 0.0, HEAT, w, 2.0))


def test_gradient_kernel_magnitude_is_real():
    comps, mag = gradient_kernel(POISSON, 0.5, HEAT, 0.0, 1.0, G1)
    _assert_real(mag)
    assert len(comps) == 1


def test_generate_corpus_is_real():
    for e in generate_corpus(3, G1, BANDLIMITED_RANDOM, 2):
        _assert_real(e.field)


def test_residue_rule_of_multipliers():
    # i xi is conjugate-symmetric except on the Nyquist plane: a wide bump
    # has nothing there and comes out real; a bump one spacing wide keeps a
    # residue far above 1e-10 of the result and comes out complex
    grid = GridSpec(1, 64, 8.0)
    mult = EvolutionMultiplier(grid, 1j * grid.xi_stack()[0])
    _assert_real(apply_evolution(Field(grid, _bump(grid, 1.0)), mult))
    narrow = Field(grid, _bump(grid, grid.spacing))
    out = apply_evolution(narrow, mult)
    assert out.values.dtype == np.complex128
    exact = inverse_transform(SpectralField(grid, forward_transform(narrow).coeffs * mult.values))
    assert np.array_equal(out.values, exact.values)
    assert np.abs(out.values.imag).max() > 1e-4 * np.abs(out.values).max()


def test_round_off_result_of_evolution_stays_complex():
    # heat at t = 0.5 damps the band below 1e-30, so the result is the
    # forward transform's round-off, which is not conjugate-symmetric; kept
    # complex, its norm still matches Plancherel on the multiplied spectrum
    g = GridSpec(1, 4096, 64.0)
    f = generate_corpus(3, g, BANDLIMITED_RANDOM, 1, mean_removed=False)[0].field
    mult = build_multiplier(HEAT, 0.0, 0.5, g)
    out = apply_evolution(f, mult)
    assert out.values.dtype == np.complex128
    spec = forward_transform(f).coeffs * mult.values
    plancherel = np.sqrt((np.abs(spec) ** 2).sum() * g.freq_measure)
    assert plancherel < 1e-10 * lp_norm(f, 2)
    assert abs(lp_norm(out, 2) - plancherel) <= 1e-10 * plancherel
