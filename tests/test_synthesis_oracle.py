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
"""

import numpy as np
import pytest

from speclp import (Field, GridSpec, SpectralField, SymbolSpec, apply_evolution,
                    block, build_decomposition, build_multiplier, bump_profile, chi_profile,
                    dyadic_l1_envelope, forward_transform, fractional_laplacian_pv, get_symbol,
                    gradient_kernel, inverse_transform, kernel_field, low_part, lp_norm,
                    multiplier_values, refine_field, sobolev_norm, spectral_shift)
from speclp import kernel_audit
from speclp.evolution import KERNEL_SCALE

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


def _same(got, ref):
    got, ref = getattr(got, "values", got), getattr(ref, "values", ref)
    if isinstance(ref, np.ndarray):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    else:
        assert type(got) is type(ref) and repr(got) == repr(ref)


def _fields(grid):
    """A real field with content at every frequency and a complex one."""
    x = grid.x_stack()
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
    phase = np.exp(-1j * np.tensordot(y, grid.xi_stack(), axes=(0, 0)))
    for f in _fields(grid):
        _same_real_part(f, spectral_shift(f, y), _ref_real_part(f, _ref_multiply(f, phase)))
        for factor in (2, 3):
            fine = GridSpec(grid.dim, grid.n * factor, grid.half_extent)
            centred = np.pad(np.fft.fftshift(forward_transform(f).coeffs),
                             (fine.n - grid.n) // 2)
            ref = inverse_transform(SpectralField(fine, np.fft.ifftshift(centred)))
            _same_real_part(f, refine_field(f, factor), _ref_real_part(f, ref))


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
    x = grid.x_stack()
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
        _same(kernel_field(pre, psi, 0.0, t, grid), _ref_residue(_ref_kernel(grid, mult)))


@pytest.mark.parametrize("psi1, l, psi2", [(POISSON, 0.5, HEAT), (HEAT, 1.0, SKEW)],
                         ids=["poisson-heat", "heat-skew"])
def test_gradient_kernels(grid, psi1, l, psi2):
    for t in (0.1, 1.0):
        mult = multiplier_values(psi2, 0.0, t, grid, pre=(psi1, l))
        xi = grid.xi_stack()
        ref = [_ref_kernel(grid, 1j * xi[k] * mult) for k in range(grid.dim)]
        comps, mag = gradient_kernel(psi1, l, psi2, 0.0, t, grid)
        for c, r in zip(comps, ref):
            _same(c, r)
        _same(mag, Field(grid, np.sqrt(sum(np.abs(r.values) ** 2 for r in ref))))


def test_envelope_l1_norms(grid):
    D = build_decomposition(grid)
    for t in (0.1, 1.0):
        rep = dyadic_l1_envelope(HEAT, 1.0, HEAT, 0.0, t, D.j_range, grid, D)
        mult = multiplier_values(HEAT, 0.0, t, grid, pre=(HEAT, 1.0))
        for row in rep.rows:
            block_mult = mult * bump_profile(grid.xi_norm() * 2.0 ** (-row.j))
            _same(row.l1_norm, lp_norm(_ref_kernel(grid, block_mult), 1.0))


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
