"""Frequency lattices without cached coordinate stacks.

``GridSpec`` caches |x| and |xi| only, built by broadcasting the 1-D axes;
the (d, ...) frequency stack is built per call, and in the package only for
symbols that are not built-ins (no x stack is built; tests that need one
take :func:`x_stack`).  A built-in symbol declares its radial
profile and is evaluated on the cached |xi| (``symbols._on_lattice``); every
other symbol keeps the stack contract.  The shift phase is a product of
per-axis phases and the gradient kernel's factors are 1-D axes.  Each
replacement is checked against the stack formula it replaced (byte for byte,
or for the shift phase at d >= 2 against an extended-precision reference),
and the memory it saves is guarded with tracemalloc (no timing).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from speclp import (Field, GridSpec, SymbolEvalError, SymbolSpec, build_decomposition,
                    bump_profile, chi_profile, eval_symbol, g_function, generate_corpus,
                    get_symbol, gradient_kernel, kernel_field, multiplier_values, spectral_shift)
from speclp import corpus, lp_decomp, spectral
from speclp.errors import MultiplierError
from speclp.evolution import _kernel, _kernel_multiplier
from speclp.gfunction import _grid_window
from speclp.kernel_audit import dyadic_l1_envelope
from speclp.symbols import _on_lattice, _Radial

GRIDS = [GridSpec(1, 256, 16.0), GridSpec(2, 160, 16.0), GridSpec(2, 32, 8.0),
         GridSpec(3, 12, 6.0), GridSpec(3, 16, 4.0)]
BUILTINS = ["heat", "poisson", "power:1.5", "power:0.5", "power-t:2", "power-t:1.5",
            "frac-lap:1.5", "frac-lap:0.7"]
HEAT = get_symbol("heat")


def _old_stack(axis, d):
    """The (d,) + shape coordinate stack GridSpec used to cache."""
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=0)


def x_stack(grid):
    """The sample coordinates as a (d,) + shape stack, natural order, for
    tests that build fields from them (the package builds no x stack)."""
    return _old_stack(grid.x_axis(), grid.dim)


def _half(grid):
    return (Ellipsis, slice(0, grid.n // 2 + 1))


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# --- the cached norms and the per-call stacks ---------------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_norms_are_the_stack_formula(grid):
    for norm, axis in ((grid.x_norm(), grid.x_axis()), (grid.xi_norm(), grid.freq_axis())):
        _same(norm, np.sqrt((_old_stack(axis, grid.dim) ** 2).sum(axis=0)))
        assert not norm.flags.writeable


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_stacks_are_built_per_call(grid):
    _same(grid.xi_stack(), _old_stack(grid.freq_axis(), grid.dim))
    assert grid.xi_stack() is not grid.xi_stack() and grid.xi_stack().flags.writeable


# --- the shift phase as a product of per-axis phases --------------------------

def _tensordot_phase(grid, y, half):
    """The shift phase as it was: exp(-i y.xi) by tensordot on the stack, and
    on the half lattice the self-paired components S moved into a cosine."""
    xi = _old_stack(grid.freq_axis(), grid.dim)
    if not half:
        return np.exp(-1j * np.tensordot(y, xi, axes=(0, 0)))
    xi = xi[_half(grid)]
    nyquist = xi == grid.freq_axis()[grid.n // 2]
    want = np.exp(-1j * np.tensordot(y, np.where(nyquist, 0.0, xi), axes=(0, 0)))
    planes = nyquist.any(axis=0)
    want[planes] *= np.cos(np.tensordot(y, np.where(nyquist, xi, 0.0), axes=(0, 0))[planes])
    return want


def _shifts(grid):
    return [np.linspace(0.3, -1.7, grid.dim) * grid.spacing * 3.3, np.full(grid.dim, 0.37),
            np.linspace(-40.0, 77.7, grid.dim), np.array([1e3, -2e3, 3.3e3])[:grid.dim],
            np.zeros(grid.dim)]


def _reference_phase(grid, y):
    """exp(-i y.xi) in extended precision on the whole lattice, and the scale
    1 + sum_k |y_k xi_k| of the round-off bound."""
    axis = grid.freq_axis().astype(np.longdouble)
    arg = np.zeros(grid.shape, np.longdouble)
    scale = np.ones(grid.shape, np.longdouble)
    for k in range(grid.dim):
        term = np.longdouble(y[k]) * axis.reshape((-1,) + (1,) * (grid.dim - 1 - k))
        arg, scale = arg + term, scale + np.abs(term)
    return np.exp(np.clongdouble(-1j) * arg), scale


def _self_paired(grid):
    """The half-lattice points with some component at index n/2."""
    paired = np.zeros(grid.shape, bool)
    for k in range(grid.dim):
        paired[(slice(None),) * k + (grid.n // 2,)] = True
    return paired[_half(grid)]


@pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
@pytest.mark.parametrize("n", [16, 256, 4096])
def test_shift_phase_1d_is_the_tensordot_phase(n, half):
    grid = GridSpec(1, n, 16.0)
    for y in _shifts(grid) + [np.array([-0.0]), np.array([-3.3])]:
        _same(spectral._shift_phase(grid, y, half), _tensordot_phase(grid, y, half))


@pytest.mark.parametrize("grid", [g for g in GRIDS if g.dim > 1], ids=str)
def test_shift_phase_within_round_off_of_the_exact_phase(grid):
    # the product moves round-off only: within 0.75 eps (1 + sum_k |y_k xi_k|)
    # of exp(-i y.xi) in extended precision, everywhere on the whole lattice;
    # on the half lattice the same bytes off the self-paired points, and on
    # them the same bound from the exact Hermitian part (m(xi) + conj m(-xi))/2
    eps = np.finfo(float).eps
    paired = _self_paired(grid)
    for y in _shifts(grid):
        exact, scale = _reference_phase(grid, y)
        whole = spectral._shift_phase(grid, y, False)
        assert whole.dtype == np.complex128 and whole.shape == grid.shape
        assert (np.abs(whole - exact) / scale).max() <= 0.75 * eps
        half = spectral._shift_phase(grid, y, True)
        assert half.flags.c_contiguous and half.shape == whole[_half(grid)].shape
        assert half[~paired].tobytes() == whole[_half(grid)][~paired].tobytes()
        mirror = np.roll(np.flip(exact), 1, axis=tuple(range(grid.dim)))
        hermitian = ((exact + np.conj(mirror)) / 2)[_half(grid)]
        err = np.abs(half - hermitian) / scale[_half(grid)]
        assert err[paired].max() <= 0.75 * eps


# --- the gradient kernel's factors on the 1-D axes -----------------------------

def _stack_gradient(psi1, l, psi2, s, t, grid):
    """gradient_kernel as it was: i xi_k on the (half) coordinate stack, 0 on
    axis k's self-paired plane of the half lattice."""
    mult, half = _kernel_multiplier(psi2, s, t, grid, (psi1, l))
    xi = _old_stack(grid.freq_axis(), grid.dim)
    xi = np.ascontiguousarray(xi[_half(grid)]) if half else xi
    nyquist = grid.freq_axis()[grid.n // 2]
    derivs = (np.where(half and xk == nyquist, 0.0, 1j * xk) for xk in xi)
    comps = [_kernel(grid, deriv * mult, half) for deriv in derivs]
    return comps, np.sqrt(sum(np.abs(c) ** 2 for c in comps))


@pytest.mark.parametrize("pair", [("heat", "heat"), ("poisson", "poisson"), ("poisson", "heat")])
@pytest.mark.parametrize("grid", [GridSpec(1, 256, 16.0), GridSpec(2, 32, 8.0),
                                  GridSpec(3, 16, 4.0)], ids=str)
def test_gradient_kernel_is_the_stack_formula(grid, pair):
    psi1, psi2 = get_symbol(pair[0]), get_symbol(pair[1])
    comps, mag = gradient_kernel(psi1, 0.0, psi2, 0.0, 0.4, grid)
    want, want_mag = _stack_gradient(psi1, 0.0, psi2, 0.0, 0.4, grid)
    assert len(comps) == grid.dim
    for got, ref in zip(comps, want):
        _same(got.values, ref)
    _same(mag.values, want_mag)


def _old_gaussian_mix(rng, grid):
    """corpus._gaussian_mix's draw as it was, on the coordinate stack."""
    L = grid.half_extent
    sigma_min = 16.06 / grid.nyquist
    sigma_max = min(3.0 * sigma_min, 0.078 * L)
    x = x_stack(grid)
    vals = np.zeros(grid.shape)
    smallest = np.inf
    for _ in range(int(rng.integers(2, 5))):
        c = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
        sig = rng.uniform(sigma_min, sigma_max)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        smallest = min(smallest, sig)
        r2 = ((x - c.reshape((-1,) + (1,) * grid.dim)) ** 2).sum(axis=0)
        vals = vals + amp * np.exp(-r2 / (2.0 * sig**2))
    return vals, (grid.min_freq, min(np.sqrt(2.0 * np.log(1e14)) / smallest, grid.nyquist / 2.0))


@pytest.mark.parametrize("grid", [GridSpec(1, 1024, 32.0), GridSpec(2, 160, 16.0),
                                  GridSpec(2, 256, 32.0)], ids=str)
def test_gaussian_mix_is_the_stack_formula(grid):
    # (a 3-D draw needs n >= 132 per axis, too large for a stack reference here;
    # _sum_squares's third axis is pinned by the norms above)
    for seed in range(4):
        got, band = corpus._gaussian_mix(np.random.default_rng(seed), grid)
        want, want_band = _old_gaussian_mix(np.random.default_rng(seed), grid)
        _same(got, want)
        assert band == want_band


# --- symbols on the lattice ---------------------------------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_on_the_lattice_are_eval_symbol_on_the_stack(name, grid):
    spec = get_symbol(name)
    xi = _old_stack(grid.freq_axis(), grid.dim)
    sampled = _on_lattice(spec, grid)
    for t in (0.0, 0.7):
        want = eval_symbol(spec, t, xi)
        _same(sampled(t), want)
        _same(sampled(t)[_half(grid)], want[_half(grid)])  # the real path's cut
    if spec.spatial is not None:
        _same(sampled.phi, spec.spatial(xi))
        assert sampled.factor(0.7) == spec.time_factor(0.7)
    # the profile on the strided half of |xi| is its value on the half stack
    radial = spec.eval_fn if spec.spatial is None else spec.spatial
    _same(radial.profile(grid.xi_norm()[_half(grid)]),
          radial(0.7, np.ascontiguousarray(xi[_half(grid)])))


def test_only_the_builtin_factories_declare_a_profile():
    for name in BUILTINS:
        spec = get_symbol(name)
        assert isinstance(spec.spatial if spec.time_factor else spec.eval_fn, _Radial)
    # replacing a part drops its profile: the new part is evaluated on stacks
    grid = GridSpec(2, 32, 8.0)
    hot = dataclasses.replace(HEAT, eval_fn=lambda t, xi: 2.0 * HEAT.eval_fn(t, xi))
    _same(_on_lattice(hot, grid)(0.0), 2.0 * _on_lattice(HEAT, grid)(0.0))
    pt = get_symbol("power-t:2")
    cubed = dataclasses.replace(pt, spatial=lambda xi: (xi**2).sum(axis=0) ** 1.5)
    _same(_on_lattice(cubed, grid).phi, (grid.xi_stack() ** 2).sum(axis=0) ** 1.5)


def test_user_symbols_get_a_real_stack():
    seen = []

    def fn(t, xi):
        seen.append((type(xi), xi.shape, xi.dtype, xi.flags.c_contiguous))
        return -(xi**2).sum(axis=0)

    user = SymbolSpec(name="user-heat", eval_fn=fn, kappa=1.0, mu=4.0, gamma=2.0, n_cert=2,
                      time_constant=True)
    grid = GridSpec(2, 32, 8.0)
    got = multiplier_values(user, 0.0, 0.5, grid, pre=(user, 0.0))
    assert seen == [(np.ndarray, (2, 32, 32), np.float64, True)] * 2
    # the same multiplier as heat's, whose |xi|^2 squares the norm
    assert np.abs(got - multiplier_values(HEAT, 0.0, 0.5, grid, pre=(HEAT, 0.0))).max() \
        <= 1e-15 * np.abs(got).max()


def test_builtins_build_no_coordinate_stack(monkeypatch):
    def refuse(self):
        raise AssertionError("a coordinate stack was built")

    grid = GridSpec(2, 32, 8.0)
    f = generate_corpus(3, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
    monkeypatch.setattr(GridSpec, "xi_stack", refuse)
    for name in BUILTINS:
        spec = get_symbol(name)
        multiplier_values(spec, 0.1, 0.5, grid, pre=(HEAT, 0.3))
        kernel_field((spec, 0.2), HEAT, 0.0, 0.4, grid)
        g_function(f, spec, 0.0, HEAT, _grid_window(grid, spec, HEAT, a=1.0), 2.0)
    # the components come from the 1-D axes
    gradient_kernel(HEAT, 0.0, HEAT, 0.0, 0.4, grid)
    for g in (f, Field(grid, f.values + 1j)):
        spectral_shift(g, [0.3, -1.2])
    user = dataclasses.replace(HEAT, eval_fn=lambda t, xi: HEAT.eval_fn(t, xi))
    with pytest.raises(AssertionError, match="coordinate stack"):
        multiplier_values(user, 0.1, 0.5, grid)  # a user symbol needs the stack


def test_lattice_errors_name_the_sample_as_the_stack_does():
    grid = GridSpec(2, 32, 8.0)
    # inf from |xi| > 5 on: the first such sample in row-major order is named
    spec = SymbolSpec(name="wall", eval_fn=_Radial(lambda rho: np.where(rho > 5.0, np.inf, -rho)),
                      kappa=1.0, mu=1.0, gamma=1.0, n_cert=1, time_constant=True)
    with pytest.raises(SymbolEvalError) as lattice:
        _on_lattice(spec, grid)(0.3)
    with pytest.raises(SymbolEvalError) as stack:
        eval_symbol(spec, 0.3, grid.xi_stack())
    assert str(lattice.value) == str(stack.value)
    xi = grid.xi_stack()
    first = tuple(np.argwhere(grid.xi_norm() > 5.0)[0])
    assert str(lattice.value).endswith(f"xi={tuple(xi[(slice(None),) + first])}")
    # exp overflowing from 30 |xi|^2 > 709.78 on: the multiplier names the
    # same sample as the stack
    growth = SymbolSpec(name="growth", eval_fn=_Radial(lambda rho: rho**2), kappa=1.0, mu=1.0,
                        gamma=2.0, n_cert=1, time_constant=True)
    with np.errstate(over="ignore"):
        with pytest.raises(MultiplierError) as grown:
            multiplier_values(growth, 0.0, 30.0, grid)
        first = tuple(np.argwhere(np.isinf(np.exp(30.0 * grid.xi_norm() ** 2)))[0])
    assert str(grown.value).endswith(f"xi={tuple(xi[(slice(None),) + first])}")


# --- dyadic cutoffs, once per scale -------------------------------------------

@pytest.mark.parametrize("half", [False, True], ids=["whole", "half"])
@pytest.mark.parametrize("grid", [GridSpec(1, 4096, 64.0), GridSpec(2, 64, 16.0),
                                  GridSpec(3, 16, 4.0)], ids=str)
def test_each_bump_is_bump_profile(grid, half):
    D = build_decomposition(grid)
    rho = grid.xi_norm()[(Ellipsis, slice(0, grid.n // 2 + 1) if half else slice(None))]
    js = list(D.j_range)
    got = [b.copy() for b in lp_decomp._dyadic(rho, js, low=True)]
    _same(got[0], chi_profile(rho))
    for j, bump in zip(js, got[1:]):
        _same(bump, bump_profile(rho * 2.0 ** (-j)))
    gaps = js[::3]  # scales that share no cutoff with the previous one
    for j, bump in zip(gaps, lp_decomp._dyadic(rho, gaps)):
        _same(bump, bump_profile(rho * 2.0 ** (-j)))


def test_each_cutoff_once_per_scale_in_two_buffers(monkeypatch):
    calls = []
    chi = lp_decomp._chi
    monkeypatch.setattr(lp_decomp, "_chi", lambda *a: calls.append(a[2:]) or chi(*a))
    rho = GridSpec(1, 1024, 32.0).xi_norm()
    buffers = {id(b) for b in lp_decomp._dyadic(rho, range(1, 6), low=True)}
    assert len(calls) == 6 and len(buffers) == 2  # chi(2^-j rho) for j = 0..5
    calls.clear()
    list(lp_decomp._dyadic(rho, range(-3, 6)))
    assert len(calls) == 10  # j = -4..5
    calls.clear()
    list(lp_decomp._dyadic(rho, [-3, 0, 1]))
    assert calls == [(2.0**4,), (2.0**3,), (2.0,), (1.0,), (0.5,)]


# --- memory guards (tracemalloc, no timing) -----------------------------------

def _peak(fn):
    """tracemalloc peak of fn(), run once before the trace for caches."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_xi_norm_builds_no_coordinate_stack():
    # the 2 MiB norm and its (64, 64) partial sums; a (3, 64, 64, 64) stack
    # alone would be 6 MiB
    grid = GridSpec(3, 64, 16.0)
    assert _peak(lambda: GridSpec.xi_norm.__wrapped__(grid)) < 1.25 * 64**3 * 8


def test_shift_phase_peak():
    # the 2.06 MiB half-lattice phase and its (64, 64) partial product: 1.15
    # times the output measured, against 4.81 times on the coordinate stack
    grid = GridSpec(3, 64, 16.0)
    y = np.array([0.3, -1.1, 2.7])
    out = spectral._shift_phase(grid, y, True)
    assert _peak(lambda: spectral._shift_phase(grid, y, True)) < 1.25 * out.nbytes


def test_multiplier_values_peak():
    # the 2 MiB result and one bool lattice of finiteness tests: 2.25 MiB
    # measured, against 8.0 MiB on the cached stack
    grid = GridSpec(3, 64, 16.0)
    assert _peak(lambda: multiplier_values(HEAT, 0.0, 0.3, grid)) < 2.5 * 2**20


def test_dyadic_envelope_peak_does_not_grow_with_blocks():
    # criterion 8's grid: every block's lattice arrays are held for the call,
    # so 12 blocks peak as the two costliest of them do (the widest chi bands)
    grid = GridSpec(1, 131072, 2048.0)
    D = build_decomposition(grid)

    def envelope(js):
        return lambda: dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, js, grid, D)

    twelve, two = _peak(envelope(range(-6, 6))), _peak(envelope(range(4, 6)))
    assert abs(twelve - two) < 16 * 2**10
