"""Frequency lattices without cached coordinate stacks.

``GridSpec`` caches |x| and |xi| only, built by broadcasting the 1-D axes;
the (d, ...) coordinate stacks are built per call, where components are
needed (the shift phase, the gradient kernel, symbols that are not
built-ins).  A built-in symbol declares its radial profile and is evaluated
on the cached |xi| (``symbols._on_lattice``); every other symbol keeps the
stack contract.  Each replacement is checked byte for byte against the stack
formula it replaced, and the memory it saves is guarded with tracemalloc
(no timing).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from speclp import (GridSpec, SymbolEvalError, SymbolSpec, build_decomposition, bump_profile,
                    chi_profile, eval_symbol, g_function, generate_corpus, get_symbol,
                    gradient_kernel, kernel_field, multiplier_values)
from speclp import corpus, lp_decomp, spectral
from speclp.errors import MultiplierError
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
    _same(grid.x_stack(), _old_stack(grid.x_axis(), grid.dim))
    whole = _old_stack(grid.freq_axis(), grid.dim)
    _same(grid.xi_stack(), whole)
    half = grid.xi_stack(half=True)
    assert half.flags.c_contiguous
    _same(half, whole[_half(grid)])
    assert grid.xi_stack() is not grid.xi_stack() and grid.xi_stack().flags.writeable


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_shift_phase_from_the_half_stack(grid):
    # the tensordot phase, and its Hermitian part on the half lattice, from the
    # contiguous half stack against the sliced whole stack it replaced
    y = np.linspace(0.3, -1.7, grid.dim) * grid.spacing * 3.3
    xi = _old_stack(grid.freq_axis(), grid.dim)
    _same(spectral._shift_phase(grid, y, False), np.exp(-1j * np.tensordot(y, xi, axes=(0, 0))))
    xi = xi[_half(grid)]
    nyquist = xi == grid.freq_axis()[grid.n // 2]
    want = np.exp(-1j * np.tensordot(y, np.where(nyquist, 0.0, xi), axes=(0, 0)))
    planes = nyquist.any(axis=0)
    want[planes] *= np.cos(np.tensordot(y, np.where(nyquist, xi, 0.0), axes=(0, 0))[planes])
    _same(spectral._shift_phase(grid, y, True), want)


def _old_gaussian_mix(rng, grid):
    """corpus._gaussian_mix's draw as it was, on the coordinate stack."""
    L = grid.half_extent
    sigma_min = 16.06 / grid.nyquist
    sigma_max = min(3.0 * sigma_min, 0.078 * L)
    x = grid.x_stack()
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
    _same(radial.profile(grid.xi_norm()[_half(grid)]), radial(0.7, grid.xi_stack(half=True)))


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
    def refuse(self, half=False):
        raise AssertionError("a built-in symbol built a coordinate stack")

    grid = GridSpec(2, 32, 8.0)
    f = generate_corpus(3, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
    monkeypatch.setattr(GridSpec, "xi_stack", refuse)
    for name in BUILTINS:
        spec = get_symbol(name)
        multiplier_values(spec, 0.1, 0.5, grid, pre=(HEAT, 0.3))
        kernel_field((spec, 0.2), HEAT, 0.0, 0.4, grid)
        g_function(f, spec, 0.0, HEAT, _grid_window(grid, spec, HEAT, a=1.0), 2.0)
    with pytest.raises(AssertionError, match="coordinate stack"):
        gradient_kernel(HEAT, 0.0, HEAT, 0.0, 0.4, grid)  # needs the components


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
