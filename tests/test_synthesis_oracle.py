"""Every multiplier, kernel and refinement against the compositions it replaced.

Each operator now reaches its samples through one synthesis step
(``spectral._synthesize``) and one realness rule.  The reference keeps the
older spelling of each step: the coefficients wrapped in a ``SpectralField``
and sent through :func:`inverse_transform`, then the real-part or residue
tail applied to the resulting ``Field``, and kernels as
``inverse_transform(SpectralField(grid, m * KERNEL_SCALE(d)))``.  Given the
same multiplier, both must agree byte for byte and in dtype, on d = 1, 2, 3,
for complex input, for every residue-rule site and for an evolution damped
to round-off.

Real input at the real-part-rule sites (blocks, low part, Sobolev
multiplier, shift, refinement, principal-value route) runs on the ``rfftn``
half spectrum, which moves round-off: there the result must be float64 and
within 1e-14 * max|f| of the complex oracle Re(ifftn(fftn(f) m)), content
on the self-paired Nyquist planes included; the bound scales with max|m|
where the multiplier exceeds 1, and is relative for a norm.

Refinement, real and complex, is byte for byte the full-lattice placement
followed by numpy's ``irfftn`` or ``ifftn``, which it replaced with
transforms of the filled lines only; ``spectral._ifft`` is byte for byte
``irfftn`` and ``ifftn`` on stacks of spectra.

Kernels of an exactly Hermitian multiplier (kernels, gradient components,
envelope blocks) are synthesized on the half lattice too: there the result
must be float64, within 1e-14 of Re(complex oracle) relative to its largest
magnitude, and byte for byte the in-test ``irfftn`` oracle
:func:`_half_kernel`.  The non-Hermitian ``SKEW`` keeps the complex oracle
byte for byte.
"""

import math

import numpy as np
import pytest

from speclp import (Field, GridSpec, SpectralField, SymbolSpec, apply_evolution,
                    block, build_decomposition, build_multiplier, bump_profile, chi_profile,
                    dyadic_l1_envelope, forward_transform, fractional_laplacian_pv, get_symbol,
                    gradient_kernel, inverse_transform, kernel_field, low_part, lp_norm,
                    multiplier_values, refine_field, sobolev_norm, spectral_shift)
from speclp import kernel_audit, spectral
from speclp.evolution import KERNEL_SCALE
from test_lattice_radius import x_stack

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")
# exp(-(1 + i) t |xi|^2): its kernel and evolutions of real input are complex
SKEW = SymbolSpec(name="skew-heat", eval_fn=lambda t, xi: -(1.0 + 1j) * (xi**2).sum(axis=0),
                  kappa=1.0, mu=2.0, gamma=2.0, n_cert=2, time_constant=True)

GRIDS = {1: GridSpec(1, 256, 16.0), 2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 16, 4.0)}


def _ref_multiply(f, mult):
    """The old spelling: transform, SpectralField, inverse_transform."""
    return inverse_transform(SpectralField(f.grid, forward_transform(f).coeffs * mult))


def _ref_real_part(f, out):
    return Field(out.grid, out.values.real) if np.isrealobj(f.values) else out


def _same_real_part(f, got, ref, scale=None):
    """Complex f: byte for byte.  Real f: float64 within 1e-14 * scale of
    Re(ref); the scale defaults to max|f|, right for multipliers |m| <= 1."""
    if not np.isrealobj(f.values):
        return _same(got, ref)
    got, ref = getattr(got, "values", got), getattr(ref, "values", ref)
    tol = 1e-14 * (np.abs(f.values).max() if scale is None else scale)
    if isinstance(ref, np.ndarray):
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert np.abs(got - ref.real).max() <= tol
    else:
        assert isinstance(got, float) and abs(got - ref) <= tol


def _ref_residue(out):
    scale = np.abs(out.values).max()
    if scale == 0.0 or np.abs(out.values.imag).max() <= 1e-10 * scale:
        return Field(out.grid, out.values.real)
    return out


def _ref_kernel(grid, mult):
    return inverse_transform(SpectralField(grid, mult * KERNEL_SCALE(grid.dim)))


def _half(grid, a):
    """a (fft order) on the rfftn half lattice: last axis 0..n/2."""
    return a[..., :grid.n // 2 + 1]


def _half_kernel(grid, mult_half):
    """Kernel of a Hermitian multiplier given on the half lattice: irfftn,
    the synthesis factor (2 pi)^(d/2) / spacing^d, then natural order."""
    d = grid.dim
    samples = np.fft.irfftn(mult_half * KERNEL_SCALE(d), s=grid.shape, axes=range(d))
    return Field(grid, np.fft.fftshift(samples * ((2.0 * np.pi) ** (d / 2.0) / grid.cell_measure)))


def _same_real_kernel(got, ref, half_ref):
    """Byte for byte the irfftn oracle, float64, and within 1e-14 of Re(ref)
    relative to max|ref| (to |ref| for a norm)."""
    _same(got, half_ref)
    got, ref = getattr(got, "values", got), getattr(ref, "values", ref)
    if isinstance(ref, np.ndarray):
        assert got.dtype == np.float64
        assert np.abs(got - ref.real).max() <= 1e-14 * np.abs(ref).max()
    else:
        assert abs(got - ref) <= 1e-14 * abs(ref)


def _same(got, ref):
    got, ref = getattr(got, "values", got), getattr(ref, "values", ref)
    if isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    else:
        assert type(got) is type(ref) and repr(got) == repr(ref)


def _fields(grid):
    """A real field with content at every frequency and a complex one."""
    x = x_stack(grid)
    rng = np.random.default_rng(grid.dim)
    re = (np.exp(-(x**2).sum(axis=0) / 2.0) * (1.0 + 0.3 * np.cos(2.0 * x[0]))
          + 0.01 * rng.standard_normal(grid.shape))
    return Field(grid, re), Field(grid, re + 1j * np.exp(-((x - 0.5) ** 2).sum(axis=0)))


@pytest.fixture(params=sorted(GRIDS), ids=lambda d: f"d{d}")
def grid(request):
    return GRIDS[request.param]


def test_blocks_low_part_and_sobolev(grid):
    D = build_decomposition(grid)
    for f in _fields(grid):
        for j in D.j_range:
            mult = bump_profile(grid.xi_norm() * 2.0 ** (-j))
            _same_real_part(f, block(f, j, D), _ref_real_part(f, _ref_multiply(f, mult)))
        _same_real_part(f, low_part(f, D),
                        _ref_real_part(f, _ref_multiply(f, chi_profile(grid.xi_norm()))))
        mult = (1.0 + grid.xi_norm() ** 2) ** (1.5 / 2.0)
        ref = lp_norm(_ref_real_part(f, _ref_multiply(f, mult)), 3.0)
        _same_real_part(f, sobolev_norm(f, 1.5, 3.0), ref, ref)


def test_shift_and_refinement(grid):
    y = np.full(grid.dim, 0.37)
    phase = spectral._shift_phase(grid, y, False)  # the phase itself: test_lattice_radius.py
    for f in _fields(grid):
        _same_real_part(f, spectral_shift(f, y), _ref_real_part(f, _ref_multiply(f, phase)))
        for factor in (2, 3):
            fine = GridSpec(grid.dim, grid.n * factor, grid.half_extent)
            centred = np.pad(np.fft.fftshift(forward_transform(f).coeffs),
                             (fine.n - grid.n) // 2)
            ref = inverse_transform(SpectralField(fine, np.fft.ifftshift(centred)))
            _same_real_part(f, refine_field(f, factor), _ref_real_part(f, ref))


def _full_lattice_refinement(f, factor):
    """refine_field as it was: the placements on the whole fine lattice (the
    half one for real f), then numpy's irfftn or ifftn of every line."""
    g = f.grid
    fine = GridSpec(g.dim, g.n * factor, g.half_extent)
    real = np.isrealobj(f.values)
    tops = (g.n // 2, g.n // 2 + 1) if real else (g.n // 2,)
    F = (0.5 if real else 1.0) * spectral._spectrum(f, real)
    X = np.zeros(fine.shape[:-1] + (fine.n // 2 + 1 if real else fine.n,), dtype=complex)
    for top in tops:
        rows = np.r_[0:top, fine.n - g.n + top:fine.n]
        cols = rows[rows < X.shape[-1]]
        X[np.ix_(*[rows] * (g.dim - 1), cols)] += F[..., :cols.size]
    axes = tuple(range(g.dim))
    samples = np.fft.irfftn(X, s=fine.shape, axes=axes) if real else np.fft.ifftn(X, axes=axes)
    samples *= (2.0 * np.pi) ** (g.dim / 2.0) / fine.cell_measure
    return Field(fine, np.fft.fftshift(samples))


@pytest.mark.parametrize("d, n", [(1, 2), (1, 6), (1, 8), (1, 64), (1, 4096),
                                  (2, 2), (2, 6), (2, 8), (2, 32),
                                  (3, 2), (3, 6), (3, 8), (3, 16)])
def test_refinement_bytes_match_full_lattice_inverse(d, n):
    grid = GridSpec(d, n, 4.0)
    rng = np.random.default_rng(n + d)
    re = rng.standard_normal(grid.shape)
    for f in (Field(grid, re), Field(grid, re + 1j * rng.standard_normal(grid.shape))):
        for factor in (1, 2, 3):
            _same(refine_field(f, factor), _full_lattice_refinement(f, factor))


@pytest.mark.parametrize("half", [True, False], ids=["half", "whole"])
def test_ifft_bytes_match_numpy_on_node_stacks(grid, half):
    # a stack of three spectra, as the node engine hands over; on the half
    # path also a band narrower than n/2 + 1, and a real spectrum (a kernel)
    rng = np.random.default_rng(grid.dim)
    axes = tuple(range(1, grid.dim + 1))
    widths = (grid.n // 2 + 1, grid.n // 4) if half else (grid.n,)
    for width in widths:
        shape = (3,) + grid.shape[:-1] + (width,)
        for spec in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                     rng.standard_normal(shape)):
            kept = spec.copy()
            want = (np.fft.irfftn(spec, s=grid.shape, axes=axes) if half
                    else np.fft.ifftn(spec, axes=axes))
            _same(spectral._ifft(grid, spec, half), want)
            assert spec.tobytes() == kept.tobytes()  # the input is not written


def _compact(grid, rng, half, rows):
    """Coefficients on ``rows`` of each whole axis (the half axis keeps its
    leading columns), as refine_field hands them to _ifft."""
    width = np.count_nonzero(rows < grid.n // 2 + 1) if half else rows.size
    shape = (rows.size,) * (grid.dim - 1) + (width,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("half", [True, False], ids=["half", "whole"])
def test_ifft_out_bytes_match_ifft_without_out(grid, half):
    # with out, the spectrum is scratch and the last stage writes into out:
    # stacks and single spectra, bands narrower than n/2 + 1, and rows
    rng = np.random.default_rng(10 + grid.dim)
    widths = (grid.n // 2 + 1, grid.n // 4, 1) if half else (grid.n,)
    cases = [(rng.standard_normal(lead + grid.shape[:-1] + (w,))
              + 1j * rng.standard_normal(lead + grid.shape[:-1] + (w,)), None)
             for lead in ((3,), ()) for w in widths]
    rows = np.r_[0:grid.n // 4, grid.n - grid.n // 4:grid.n]
    cases.append((_compact(grid, rng, half, rows), rows))
    for spec, at in cases:
        want = spectral._ifft(grid, spec, half, at)
        out = np.full(want.shape, np.nan, dtype=want.dtype)
        got = spectral._ifft(grid, spec.copy(), half, at, out=out)
        assert got is out
        _same(got, want)


@pytest.mark.parametrize("per_block", [1, 3, 7, None], ids=lambda k: f"block{k}")
def test_ifft_blocks_bytes_match_irfftn(monkeypatch, per_block):
    # d = 3 half spectra on `rows`: the stages after the first run over
    # blocks of first-axis indices, the budget patched so that blocks end
    # inside the axis (None: one block per spectrum); stacks and single
    # spectra, with and without out, bands of width n/2 + 1, n/4 and 1
    grid = GridSpec(3, 16, 4.0)
    n = grid.n
    line = 16 * n * (n // 2 + 1)  # bytes of one first-axis index's full-width buffer
    monkeypatch.setattr(spectral, "_CHUNK_BYTES", 1 << 30 if per_block is None
                        else per_block * line + line // 2)
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: calls.append(1) or irfft(*a, **k))
    rows = np.r_[0:n // 4 + 1, n - n // 4:n]
    rng = np.random.default_rng(32)
    for lead in ((), (3,)):
        for width in (n // 2 + 1, n // 4, 1):
            shape = lead + (rows.size,) * 2 + (width,)
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            full = np.zeros(lead + (n, n, n // 2 + 1), dtype=complex)
            full[(Ellipsis,) + np.ix_(rows, rows, np.arange(width))] = spec
            want = np.fft.irfftn(full, s=grid.shape, axes=range(len(lead), len(lead) + 3))
            blocks = math.prod(lead) * (1 if per_block is None else -(-n // per_block))
            kept = spec.copy()
            del calls[:]
            _same(spectral._ifft(grid, spec, True, rows), want)
            assert len(calls) == blocks
            assert spec.tobytes() == kept.tobytes()  # the input is not written
            out = np.full(want.shape, np.nan)
            assert spectral._ifft(grid, spec, True, rows, out=out) is out
            _same(out, want)


@pytest.mark.parametrize("d, n", [(1, 2), (1, 4), (1, 256), (2, 2), (2, 6), (2, 32),
                                  (3, 2), (3, 4), (3, 16)])
def test_centre_bytes_match_fftshift(d, n):
    # the in-place swap of opposite orthants, scaled as it moves, against
    # numpy's shifted copy of the scaled array, zeros of both signs and
    # subnormals included
    rng = np.random.default_rng(n + d)
    re = rng.standard_normal((n,) * d)
    re.flat[::3] = 0.0
    re.flat[1::5] = -0.0
    re.flat[2::7] = 5e-324
    for a in (re, re - 1j * re[::-1]):
        for factor in (None, 1.0 / 3.0, 2.5e-300):
            want = np.fft.fftshift(a if factor is None else a * factor)
            b = a.copy()
            assert spectral._centre(b, factor) is b
            _same(b, want)


@pytest.mark.parametrize("psi", [HEAT, POISSON, SKEW], ids=lambda p: p.name)
def test_evolutions(grid, psi):
    for f in _fields(grid):
        for t in (0.05, 0.5, 3.0):
            m = build_multiplier(psi, 0.0, t, grid)
            ref = _ref_multiply(f, m.values)
            _same(apply_evolution(f, m), _ref_residue(ref) if np.isrealobj(f.values) else ref)


def test_evolution_damped_to_round_off(grid):
    # two lattice plane waves near 0.6 Nyquist under heat until e^-80: what
    # is left is the transform's round-off at the frequencies heat passes,
    # which is not conjugate-symmetric, so the residue rule keeps it complex
    x = x_stack(grid)
    k = round(0.3 * grid.n) * grid.min_freq
    f = Field(grid, np.cos(k * x[0]) + 0.5 * np.sin(k * x[-1] + 0.3))
    m = build_multiplier(HEAT, 0.0, 80.0 / k**2, grid)
    got = apply_evolution(f, m)
    _same(got, _ref_residue(_ref_multiply(f, m.values)))
    assert got.values.dtype == np.complex128
    assert np.abs(got.values).max() < 1e-14


@pytest.mark.parametrize("psi", [HEAT, POISSON, SKEW], ids=lambda p: p.name)
@pytest.mark.parametrize("pre", [None, (POISSON, 0.5), (HEAT, 1.0)],
                         ids=["none", "poisson", "heat"])
def test_kernels(grid, psi, pre):
    for t in (0.1, 1.0):
        mult = multiplier_values(psi, 0.0, t, grid, pre=pre)
        got, ref = kernel_field(pre, psi, 0.0, t, grid), _ref_kernel(grid, mult)
        if psi is SKEW:
            _same(got, _ref_residue(ref))
        else:
            _same_real_kernel(got, ref, _half_kernel(grid, _half(grid, mult)))


@pytest.mark.parametrize("psi1, l, psi2", [(POISSON, 0.5, HEAT), (HEAT, 1.0, SKEW)],
                         ids=["poisson-heat", "heat-skew"])
def test_gradient_kernels(grid, psi1, l, psi2):
    for t in (0.1, 1.0):
        mult = multiplier_values(psi2, 0.0, t, grid, pre=(psi1, l))
        xi = grid.xi_stack()
        ref = [_ref_kernel(grid, 1j * xi[k] * mult) for k in range(grid.dim)]
        comps, mag = gradient_kernel(psi1, l, psi2, 0.0, t, grid)
        if psi2 is SKEW:
            for c, r in zip(comps, ref):
                _same(c, r)
            _same(mag, Field(grid, np.sqrt(sum(np.abs(r.values) ** 2 for r in ref))))
            continue
        # the Hermitian part of i xi_k m: 0 on axis k's self-paired Nyquist plane
        xi_h, nyquist = _half(grid, xi), grid.freq_axis()[grid.n // 2]
        half_ref = [_half_kernel(grid, np.where(xi_h[k] == nyquist, 0.0, 1j * xi_h[k])
                                 * _half(grid, mult)) for k in range(grid.dim)]
        for c, r, h in zip(comps, ref, half_ref):
            _same_real_kernel(c, r, h)
        _same_real_kernel(mag, Field(grid, np.sqrt(sum(r.values.real ** 2 for r in ref))),
                          Field(grid, np.sqrt(sum(np.abs(h.values) ** 2 for h in half_ref))))


def _envelope_rows(grid, psi2, t):
    """(row, multiplier, bump profile, L1 norm of the complex-oracle block
    kernel) for each row of dyadic_l1_envelope(HEAT, 1.0, psi2, 0.0, t)."""
    D = build_decomposition(grid)
    rep = dyadic_l1_envelope(HEAT, 1.0, psi2, 0.0, t, D.j_range, grid, D)
    mult = multiplier_values(psi2, 0.0, t, grid, pre=(HEAT, 1.0))
    for row in rep.rows:
        bump = bump_profile(grid.xi_norm() * 2.0 ** (-row.j))
        yield row, mult, bump, lp_norm(_ref_kernel(grid, mult * bump), 1.0)


def test_envelope_l1_norms(grid):
    for t in (0.1, 1.0):
        for row, mult, bump, ref in _envelope_rows(grid, HEAT, t):
            half_ref = lp_norm(_half_kernel(grid, _half(grid, mult) * _half(grid, bump)), 1.0)
            _same_real_kernel(row.l1_norm, ref, half_ref)


def test_envelope_l1_norms_of_a_complex_kernel(grid):
    for t in (0.1, 1.0):
        for row, _, _, ref in _envelope_rows(grid, SKEW, t):
            _same(row.l1_norm, ref)


@pytest.mark.parametrize("eta", [0.3, 1.0, 1.7])
def test_principal_value_route(monkeypatch, eta):
    grid = GridSpec(1, 512, 32.0)
    x = grid.x_axis()
    seen = []

    def spy(f, mult):
        seen.append(mult)
        return multiply(f, mult)

    multiply = kernel_audit._multiply
    monkeypatch.setattr(kernel_audit, "_multiply", spy)
    for vals in (np.exp(-(x**2) / 2.0), np.exp(-(x**2) / 2.0) * (1.0 + 1j * x)):
        f = Field(grid, vals)
        got = fractional_laplacian_pv(f, eta)
        mult = seen[-1](False)  # the whole-lattice multiplier
        _same_real_part(f, got, _ref_real_part(f, _ref_multiply(f, mult)),
                        np.abs(vals).max() * np.abs(mult).max())
