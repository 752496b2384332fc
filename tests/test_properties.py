"""Identities that must hold on every grid, checked over dimension, grid size
and seed with hypothesis.

Examples are derandomized and few, and no example database is kept, so the
suite runs the same examples on every run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speclp import (Field, GridSpec, SpectralField, block, build_decomposition,
                    build_time_window, bump_profile, chi_profile, explicit_q2_constant,
                    forward_transform, fractional_laplacian_pv, get_symbol, inverse_transform,
                    low_part, lp_norm, refine_field, sobolev_norm, spectral_shift,
                    verify_composition)
from speclp import kernel_audit, spectral
from speclp.acceptance import _scaling_identity_error
from speclp.gfunction import _grid_window, _node_fields
from speclp.lp_decomp import _partition_defect

FEW = settings(derandomize=True, database=None, deadline=None, max_examples=10)

dims = st.integers(1, 3)
sizes = st.sampled_from([8, 16, 32])
extents = st.sampled_from([4.0, 16.0, 64.0])
seeds = st.integers(0, 2**32 - 1)


@FEW
@given(dims, sizes, extents, seeds)
def test_plancherel(d, n, L, seed):
    grid = GridSpec(d, n, L)
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    F = forward_transform(f)
    physical = (np.abs(f.values) ** 2).sum() * grid.cell_measure
    spectral = (np.abs(F.coeffs) ** 2).sum() * grid.freq_measure
    assert abs(physical - spectral) <= 1e-12 * physical


@FEW
@given(dims, sizes, extents, st.sampled_from(["heat", "poisson", "power:1.5", "frac-lap:0.5"]),
       st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_composition_law_time_constant(d, n, L, name, r, t):
    # M(s + r + t, s) = M(s + r + t, s + r) M(s + r, s) with s = 0.25
    s = 0.25
    assert verify_composition(get_symbol(name), s, s + r, s + r + t, GridSpec(d, n, L)) <= 1e-12


@FEW
@given(dims, sizes, extents)
def test_partition_of_unity(d, n, L):
    assert _partition_defect(build_decomposition(GridSpec(d, n, L))) <= 1e-14


@FEW
@given(dims, sizes, extents, seeds, st.sampled_from(["heat", "poisson"]), st.floats(1.5, 4.0))
def test_dilation_identity(d, n, L, seed, name, b):
    # criterion 9's identity, which holds sample for sample on any field
    grid = GridSpec(d, n, L)
    f = Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    sym = get_symbol(name)
    assert _scaling_identity_error(f, sym, sym, b, s=0.3, t=0.7) <= 1e-6


@FEW
@given(dims, st.integers(4, 16).map(lambda k: 2 * k), st.floats(4.0, 64.0),
       st.sampled_from([("heat", "heat"), ("poisson", "poisson"), ("power:2", "poisson")]))
def test_q2_window_identity_per_mode_on_any_grid(d, n, L, names):
    # sum_i w_i |psi1 e^(t_i psi2)|^2 on the pair's infinite q = 2 window is the
    # closed-form constant at every nonzero mode of any grid
    grid = GridSpec(d, n, L)
    psi1, psi2 = (get_symbol(name) for name in names)
    w = _grid_window(grid, psi1, psi2)
    xi = grid.xi_stack()
    nonzero = grid.xi_norm() > 0.0
    pre, psi = psi1(0.0, xi)[nonzero], psi2(0.0, xi)[nonzero]
    per_mode = w.weights @ np.abs(pre * np.exp(np.multiply.outer(w.nodes - w.s, psi))) ** 2
    c = explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma)
    assert np.abs(per_mode - c).max() <= 1e-14 * c


builtins = st.sampled_from(["heat", "poisson", "power:1.5", "power-t:2", "power-t:0.5",
                            "frac-lap:0.5"])


@FEW
@given(dims, sizes, extents, seeds, builtins, builtins)
def test_real_input_takes_the_real_path(d, n, L, seed, name1, name2):
    # every built-in symbol is real and Hermitian on the lattice: a real field
    # gives float64 node fields, and the same field made complex complex128
    grid = GridSpec(d, n, L)
    psi1, psi2 = get_symbol(name1), get_symbol(name2)
    w = build_time_window(0.0, 1.0, 2.0, psi1.gamma, psi2.gamma, 2,
                          xi_max=math.sqrt(d) * grid.nyquist)
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape))
    g = Field(grid, f.values + 1j * rng.standard_normal(grid.shape))
    for field, dtype in ((f, np.float64), (g, np.complex128)):
        dtypes = {K.dtype for _, K in _node_fields(psi1, 0.0, psi2, w, grid, field)}
        assert dtypes == {np.dtype(dtype)}


def _complex_route(grid, coeffs):
    """ifftn of fft-order coefficients on the complex route, as a Field."""
    return inverse_transform(SpectralField(grid, coeffs))


def _agrees_with_oracle(f, got, ref, sup=1.0):
    """A real f: float64 within 1e-14 * max|f| * max(1, sup) of Re(ref), with
    sup the multiplier's largest magnitude.  A complex f: byte for byte."""
    got, ref = got.values, ref.values
    if np.isrealobj(f.values):
        tol = 1e-14 * np.abs(f.values).max() * max(1.0, sup)
        return got.dtype == np.float64 and np.abs(got - ref.real).max() <= tol
    return got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def _full_band_pair(grid, seed):
    """A real field of white noise, so every mode, the Nyquist planes
    included, carries content, and the same field made complex."""
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape))
    return f, Field(grid, f.values + 1j * rng.standard_normal(grid.shape))


@FEW
@given(dims, sizes, extents, seeds, st.sampled_from([-1.0, 0.5, 1.5]), st.integers(2, 3))
def test_real_part_rule_sites_match_the_complex_oracle(d, n, L, seed, alpha, factor):
    # Re(ifftn(fftn(f) m)) for real f, the complex route itself for complex f
    grid = GridSpec(d, n, L)
    D = build_decomposition(grid)
    xi = grid.xi_norm()
    y = np.random.default_rng(seed + 1).uniform(-L, L, size=d)
    phase = spectral._shift_phase(grid, y, False)  # the phase itself: test_lattice_radius.py
    fine = GridSpec(d, n * factor, L)
    sobolev = (1.0 + xi**2) ** (alpha / 2.0)
    for f in _full_band_pair(grid, seed):
        F = forward_transform(f).coeffs
        for j in D.j_range:
            assert _agrees_with_oracle(f, block(f, j, D),
                                       _complex_route(grid, F * bump_profile(xi * 2.0 ** -j)))
        assert _agrees_with_oracle(f, low_part(f, D), _complex_route(grid, F * chi_profile(xi)))
        assert _agrees_with_oracle(f, spectral_shift(f, y), _complex_route(grid, F * phase))
        centred = np.pad(np.fft.fftshift(F), (fine.n - n) // 2)
        assert _agrees_with_oracle(f, refine_field(f, factor),
                                   _complex_route(fine, np.fft.ifftshift(centred)))
        oracle = _complex_route(grid, F * sobolev).values
        ref = lp_norm(Field(grid, oracle.real if np.isrealobj(f.values) else oracle), 2.0)
        got = sobolev_norm(f, alpha, 2.0)
        assert abs(got - ref) <= 1e-14 * ref if np.isrealobj(f.values) else repr(got) == repr(ref)


def _band_limited_pair(grid, seed):
    """A complex field with content below Nyquist/2 on every axis, so no
    self-paired plane carries any, and its real part."""
    rng = np.random.default_rng(seed)
    axis = np.abs(grid.freq_axis()) < grid.nyquist / 2
    band = np.ones(grid.shape, bool)
    for k in range(grid.dim):
        band &= axis.reshape((-1,) + (1,) * (grid.dim - 1 - k))
    coeffs = np.where(band, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape),
                      0.0)
    f = inverse_transform(SpectralField(grid, coeffs))
    return Field(grid, f.values.real), f


@FEW
@given(dims, sizes, extents, seeds)
def test_shifts_compose(d, n, L, seed):
    # shifting by y, then by z, is shifting by y + z, real and complex fields
    grid = GridSpec(d, n, L)
    rng = np.random.default_rng(seed + 1)
    y, z = rng.uniform(-L, L, size=d), rng.uniform(-L, L, size=d)
    for f in _band_limited_pair(grid, seed):
        twice, once = spectral_shift(spectral_shift(f, y), z), spectral_shift(f, y + z)
        assert twice.values.dtype == once.values.dtype == f.values.dtype
        assert np.abs(twice.values - once.values).max() <= 1e-12 * np.abs(f.values).max()


@FEW
@given(st.sampled_from([16, 32, 64]), st.sampled_from([4.0, 8.0]), seeds, st.floats(0.1, 1.9))
def test_principal_value_route_matches_the_complex_oracle(n, L, seed, eta):
    grid = GridSpec(1, n, L)
    seen = []
    multiply = kernel_audit._multiply

    def spy(f, mult):
        seen.append(mult(False))  # the whole-lattice multiplier
        return multiply(f, mult)

    kernel_audit._multiply = spy
    try:
        for f in _full_band_pair(grid, seed):
            got = fractional_laplacian_pv(f, eta)
            m = seen[-1]
            ref = _complex_route(grid, forward_transform(f).coeffs * m)
            assert _agrees_with_oracle(f, got, ref, np.abs(m).max())
    finally:
        kernel_audit._multiply = multiply
