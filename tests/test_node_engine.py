"""The batched time-node engine against the per-node loop it replaced.

The first oracles are the one-node-at-a-time loops: one full complex
``ifftn`` per window node.  The engine must reproduce them to round-off on
the real path (half spectrum, ``irfftn``) and on the complex fallback, for
every chunk size.

The second set runs the engine's own node fields through the reductions it
used before its passes were cut: K(x - y) - K(x) from ``np.roll`` copies, and
|.|^q as ``np.abs`` then ``**``.  The arithmetic is the same, so the results
must be equal bit for bit.

The third keeps the chunk loop as it was before the underflow band: every
chunk exponentiates, multiplies and transforms the whole half lattice.  The
band only drops columns whose exponential is exactly 0.0, so g_function and
H(y) must be equal to it bit for bit.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from speclp import (INF, Field, GridSpec, SymbolSpec, TimeIntegralRule, build_time_window,
                    forward_transform, g_function, get_symbol, hormander_report, mean_remove)
from speclp import gfunction, kernel_audit, spectral
from speclp.corpus import generate_corpus
from speclp.evolution import KERNEL_SCALE, integrate_symbol
from speclp.kernel_audit import _roll_blocks, _shift_stencil
from test_lattice_radius import x_stack

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")
POWER_T = get_symbol("power-t:2")
# Hermitian everywhere except the Nyquist index, where i xi is not real
DRIFT = SymbolSpec(name="drift", eval_fn=lambda t, xi: -(xi**2).sum(axis=0) + 1j * xi[0],
                   kappa=1.0, mu=10.0, gamma=2.0, n_cert=2, time_constant=True)
DRIFT_T = SymbolSpec(name="drift-t",
                     eval_fn=lambda t, xi: -(1.0 + t) * (xi**2).sum(axis=0) + 1j * xi[0],
                     kappa=1.0, mu=30.0, gamma=2.0, n_cert=2)
# power-t:2 given as a plain eval_fn: Hermitian at every node, but not separable
PLAIN_T = SymbolSpec(name="plain-t", eval_fn=lambda t, xi: -(1.0 + t) * (xi**2).sum(axis=0),
                     kappa=1.0, mu=30.0, gamma=2.0, n_cert=2)

GRIDS = {1: GridSpec(1, 256, 16.0), 2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 16, 8.0)}


# --- oracles: the per-node loops ---------------------------------------------

def _oracle_node_multipliers(psi1, l, psi2, window, grid):
    xi = grid.xi_stack()
    pre = np.asarray(psi1(l, xi), dtype=np.complex128)
    if psi2.time_constant:
        base = np.asarray(psi2(0.0, xi), dtype=np.complex128)
        for t, w in zip(window.nodes, window.weights):
            yield w, pre * np.exp((t - window.s) * base)
    else:
        rule = TimeIntegralRule.gauss_legendre(16, adaptive=False)
        rs = np.concatenate([[window.s], window.nodes])
        Q = np.zeros(grid.shape, dtype=np.complex128)
        for lo, hi, w in zip(rs[:-1], rs[1:], window.weights):
            Q = Q + integrate_symbol(psi2, lo, hi, xi, rule)
            yield w, pre * np.exp(Q)


def oracle_g(f, psi1, l, psi2, window, q):
    grid = f.grid
    F = forward_transform(f)
    acc = np.zeros(grid.shape)
    for w, mult in _oracle_node_multipliers(psi1, l, psi2, window, grid):
        g = np.fft.ifftn(F.coeffs * mult)
        acc += w * np.abs(g) ** q
    scale = ((2.0 * np.pi) ** (grid.dim / 2.0) / grid.cell_measure) ** q
    return np.fft.fftshift((scale * acc) ** (1.0 / q))


def oracle_shift(K, y, grid):
    """K(x - y) as the rolls to the 2^d lattice corners around y, each
    weighted by the product of 1 - |distance| in cells over the axes."""
    steps = y / grid.spacing
    Ky = np.zeros_like(K)
    for corner in itertools.product((0, 1), repeat=grid.dim):
        shift = np.floor(steps) + corner
        weight = np.prod(1.0 - np.abs(steps - shift))
        if weight > 0.0:
            Ky += weight * np.roll(K, tuple(int(m) for m in shift), axis=tuple(range(grid.dim)))
    return Ky


def oracle_hormander(psi1, l, psi2, window, q, ys, grid):
    scale = KERNEL_SCALE(grid.dim) * (2.0 * np.pi) ** (grid.dim / 2.0) / grid.cell_measure
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    acc = [np.zeros(grid.shape) for _ in ys]
    for w, mult in _oracle_node_multipliers(psi1, l, psi2, window, grid):
        K = np.fft.fftshift(np.fft.ifftn(mult)) * scale
        for i, y in enumerate(ys):
            acc[i] += w * np.abs(oracle_shift(K, y, grid) - K) ** q
    r = grid.x_norm()
    return [float((a ** (1.0 / q) * (r >= 2.0 * np.linalg.norm(y))).sum() * grid.cell_measure)
            for y, a in zip(ys, acc)]


# --- oracles: the roll and pow reductions ------------------------------------

def pow_accumulate(acc, stack, w, q):
    """acc += sum_k w_k |stack_k|^q by abs then ** for every stack and q."""
    a = np.abs(stack)
    a **= q
    a *= w.reshape((-1,) + (1,) * acc.ndim)
    acc += a[0] if len(a) == 1 else a.sum(axis=0)


def pow_g(f, psi1, l, psi2, window, q):
    grid = f.grid
    acc = np.zeros(grid.shape)
    for w, g in gfunction._node_fields(psi1, l, psi2, window, grid, f=f):
        pow_accumulate(acc, g, w, q)
    scale = ((2.0 * np.pi) ** (grid.dim / 2.0) / grid.cell_measure) ** q
    return np.fft.fftshift((scale * acc) ** (1.0 / q))


def roll_hormander(psi1, l, psi2, window, q, ys, grid):
    """hormander_report's integrals with K(x - y) as np.roll copies (and the
    library's reduction, which the pow oracle checks on g_function)."""
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in ys]
    stencils = [_shift_stencil(grid, y) for y in ys]
    scale = KERNEL_SCALE(grid.dim) * (2.0 * np.pi) ** (grid.dim / 2.0) / grid.cell_measure
    axes = tuple(range(1, grid.dim + 1))
    acc = [np.zeros(grid.shape) for _ in ys]
    for w, K in gfunction._node_fields(psi1, l, psi2, window, grid):
        K *= scale
        for a, ((w0, sh0), *blend) in zip(acc, stencils):
            Ky = np.roll(K, sh0, axis=axes)
            if blend:
                Ky *= w0
                for wt, sh in blend:
                    Ky += wt * np.roll(K, sh, axis=axes)
            Ky -= K
            gfunction._accumulate(a, Ky, w, q)
    r = grid.x_norm()
    return [float((np.fft.fftshift(a) ** (1.0 / q) * (r >= 2.0 * float(np.linalg.norm(y)))).sum()
                  * grid.cell_measure) for y, a in zip(ys, acc)]


# --- oracle: the full-lattice chunk loop -------------------------------------

def full_lattice_node_fields(psi1, l, psi2, window, grid, f=None):
    """_node_fields on the real path for a time-constant psi2, without the
    underflow band."""
    xi = grid.xi_stack()
    pre, first = psi1(l, xi), psi2(0.0, xi)
    assert psi2.time_constant and (f is None or np.isrealobj(f.values))
    assert spectral._hermitian(pre) and spectral._hermitian(first)
    half = (Ellipsis, slice(0, grid.n // 2 + 1))
    pre, first = pre[half].copy(), first[half].copy()
    if f is not None:
        pre = pre * gfunction._input_spectrum(f, True, window.is_infinite)
    axes = tuple(range(1, grid.dim + 1))
    k = gfunction._chunk_nodes(grid, True)
    dt = window.nodes - window.s
    for lo in range(0, window.nodes.size, k):
        sl = slice(lo, lo + k)
        E = np.multiply.outer(dt[sl], first)
        np.exp(E, out=E)
        spec = np.multiply(pre, E, out=np.empty(E.shape, dtype=complex))
        yield window.weights[sl], np.fft.irfftn(spec, s=grid.shape, axes=axes)


def spy_inverse(monkeypatch):
    """Record (numpy routine whose bytes the call gives, last-axis length of
    the spectrum) per inverse FFT of the node engine: ``irfftn`` for a half
    spectrum, ``ifftn`` for a whole one."""
    calls = []
    inner = gfunction._ifft

    def spy(grid, coeffs, half=False, *args, **kw):
        calls.append(("irfftn" if half else "ifftn", coeffs.shape[-1]))
        return inner(grid, coeffs, half, *args, **kw)
    monkeypatch.setattr(gfunction, "_ifft", spy)
    return calls


# --- helpers -----------------------------------------------------------------

def field(d, complex_input=False):
    grid = GRIDS[d]
    f = generate_corpus(40 + d, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
    if complex_input:
        g = generate_corpus(50 + d, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
        f = Field(grid, f.values + 0.5j * g.values)
    return f


def finite_window(grid, q, n_nodes=4, a=1.0):
    return build_time_window(0.0, a, q, 2.0, 2.0, n_nodes=n_nodes, kappa2=1.0,
                             xi_min=grid.min_freq, xi_max=math.sqrt(grid.dim) * grid.nyquist)


def rel_err(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def chunk_sizes(psi1, psi2, window, grid, f=None):
    return [w.size for w, _ in gfunction._node_fields(psi1, 0.0, psi2, window, grid, f=f)]


def set_chunk(monkeypatch, grid, real, k):
    """Budget for k nodes per chunk (per-node bytes as in _chunk_nodes)."""
    per_node = (24 if real else 48) * math.prod(grid.shape)
    monkeypatch.setattr(gfunction, "_CHUNK_BYTES", k * per_node)


# --- g_function --------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("psi2", [HEAT, POWER_T], ids=["heat", "power-t"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_g_function_matches_per_node_loop(d, q, psi2, complex_input):
    f = field(d, complex_input)
    w = finite_window(f.grid, q)
    G = g_function(f, HEAT, 0.0, psi2, w, q)
    assert rel_err(G.values, oracle_g(f, HEAT, 0.0, psi2, w, q)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2])
def test_infinite_window_matches_per_node_loop(d):
    f = field(d)
    grid = f.grid
    w = build_time_window(0.0, INF, 2.0, 2.0, 2.0, n_nodes=4, kappa2=1.0,
                          xi_min=grid.min_freq, xi_max=math.sqrt(d) * grid.nyquist)
    G = g_function(f, HEAT, 0.0, HEAT, w, 2.0)
    assert rel_err(G.values, oracle_g(f, HEAT, 0.0, HEAT, w, 2.0)) <= 1e-13


@pytest.mark.parametrize("d", [1, 3])
def test_non_hermitian_multiplier_takes_the_complex_path(d):
    f = field(d)
    w = finite_window(f.grid, 2.0)
    for drift in (DRIFT, DRIFT_T):
        _, stack = next(gfunction._node_fields(HEAT, 0.0, drift, w, f.grid, f=f))
        assert stack.dtype == np.complex128
        G = g_function(f, HEAT, 0.0, drift, w, 2.0)
        assert rel_err(G.values, oracle_g(f, HEAT, 0.0, drift, w, 2.0)) <= 1e-13


def late_switch(t1):
    """-|xi|^2 + 5i max(0, t - t1) |xi|^2: Hermitian up to t1, not after."""
    return SymbolSpec(name="late-switch", kappa=1.0, mu=30.0, gamma=2.0, n_cert=2,
                      eval_fn=lambda t, xi: (-1.0 + 5j * max(0.0, t - t1)) * (xi**2).sum(axis=0))


def test_symbol_that_turns_non_hermitian_late_takes_the_complex_path():
    # the switch sits on node 42, past the first node: a realness test on the
    # exponent's first interval alone would pass and take the half lattice
    grid = GridSpec(1, 256, 16.0)
    w = gfunction._grid_window(grid, HEAT, HEAT, a=1.0)
    psi2 = late_switch(float(w.nodes[42]))
    f = generate_corpus(3, grid, "GAUSSIAN_MIX", 1)[0].field
    assert np.isrealobj(f.values)
    G = g_function(f, HEAT, 0.0, psi2, w, 2.0)
    assert rel_err(G.values, oracle_g(f, HEAT, 0.0, psi2, w, 2.0)) <= 1e-13
    assert {K.dtype for _, K in gfunction._node_fields(HEAT, 0.0, psi2, w, grid, f)} == \
        {np.dtype(np.complex128)}
    grid = GridSpec(1, 2048, 16.0)
    w = gfunction._grid_window(grid, HEAT, HEAT, a=1.0)
    psi2 = late_switch(float(w.nodes[42]))
    ys = [np.array([0.25]), np.array([0.5])]
    rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, 2.0, ys, grid)
    for got, want in zip(rep.integrals, oracle_hormander(HEAT, 0.0, psi2, w, 2.0, ys, grid)):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_path_choice_follows_the_input(complex_input):
    f = field(1, complex_input)
    w = finite_window(f.grid, 2.0)
    for psi2 in (HEAT, POWER_T):
        _, stack = next(gfunction._node_fields(HEAT, 0.0, psi2, w, f.grid, f=f))
        assert stack.dtype == (np.complex128 if complex_input else np.float64)
        assert stack.shape[1:] == f.grid.shape
    _, kernels = next(gfunction._node_fields(HEAT, 0.0, HEAT, w, f.grid))
    assert kernels.dtype == np.float64


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("psi2", [HEAT, POWER_T], ids=["heat", "power-t"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_chunk_edge_cases(monkeypatch, k, psi2, complex_input):
    f = field(1, complex_input)
    # a = 2: 16 panels of 4 nodes (a = 1 has 15 panels, a multiple of 5 nodes
    # at every order)
    w = finite_window(f.grid, 2.0, a=2.0)
    assert w.nodes.size % 5 != 0
    set_chunk(monkeypatch, f.grid, not complex_input, k)
    sizes = chunk_sizes(HEAT, psi2, w, f.grid, f)
    assert sum(sizes) == w.nodes.size and set(sizes[:-1]) == {k} and sizes[-1] <= k
    G = g_function(f, HEAT, 0.0, psi2, w, 2.0)
    assert rel_err(G.values, oracle_g(f, HEAT, 0.0, psi2, w, 2.0)) <= 1e-13


def test_default_chunks_share_the_budget():
    grid = GridSpec(1, 1024, 32.0)
    w = finite_window(grid, 2.0, n_nodes=16)
    sizes = chunk_sizes(HEAT, HEAT, w, grid)
    assert 1 < sizes[0] < w.nodes.size
    assert sizes[0] * 24 * grid.n <= gfunction._CHUNK_BYTES


def test_g_function_peak_memory():
    grid = GridSpec(2, 256, 32.0)
    f = mean_remove(Field(grid, np.cos(x_stack(grid)[0] * grid.min_freq * 3.0)
                          * np.exp(-(grid.x_norm() ** 2) / 8.0)))
    w = finite_window(grid, 2.0, n_nodes=2)
    g_function(f, HEAT, 0.0, HEAT, w, 2.0)  # frequency-lattice caches
    tracemalloc.start()
    try:
        g_function(f, HEAT, 0.0, HEAT, w, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.64 MiB: the engine's stacks are held for the call and the result is
    # centred in place (3.52 MiB with fresh stacks per chunk and fftshift)
    assert peak <= 2.75 * 2**20


# --- hormander_report --------------------------------------------------------

def _hormander_case(d, psi2, phase):
    if d == 1:
        grid = GridSpec(1, 4096, 16.0)
        ys = [np.array([2.0**k]) for k in range(-4, 3)]
    else:
        grid = GridSpec(2, 64, 4.0)
        ys = [np.array([1.0, 0.0])]
    if phase:
        ys = [y * (1.0 + 3e-8) for y in ys]
    a = INF if psi2.time_constant else 1.0
    w = build_time_window(0.0, a, 2.0, 2.0, 2.0, n_nodes=2, kappa2=1.0,
                          xi_min=grid.min_freq, xi_max=math.sqrt(d) * grid.nyquist)
    return grid, w, ys


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("psi2", [HEAT, POWER_T], ids=["heat", "power-t"])
@pytest.mark.parametrize("phase", [False, True], ids=["roll", "phase"])
def test_hormander_matches_per_node_loop(d, psi2, phase):
    grid, w, ys = _hormander_case(d, psi2, phase)
    # "phase" shifts sit 3e-8 relative off the lattice: a blend of two rolls
    assert all(len(_shift_stencil(grid, y)) == (2 if phase else 1) for y in ys)
    rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, 2.0, ys, grid)
    ref = oracle_hormander(HEAT, 0.0, psi2, w, 2.0, ys, grid)
    for got, want in zip(rep.integrals, ref):
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("psi2", [HEAT, POWER_T], ids=["heat", "power-t"])
def test_hormander_blend_on_both_axes_matches_per_node_loop(psi2):
    grid, w, _ = _hormander_case(2, psi2, False)
    ys = [np.array([1.0375, 0.825])]  # 8.3 and 6.6 cells: a stencil of 4 rolls
    assert len(_shift_stencil(grid, ys[0])) == 4
    rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, 2.0, ys, grid)
    ref = oracle_hormander(HEAT, 0.0, psi2, w, 2.0, ys, grid)
    assert abs(rep.integrals[0] - ref[0]) <= 1e-13 * abs(ref[0])


def test_hormander_single_node_chunks(monkeypatch):
    grid, w, ys = _hormander_case(1, HEAT, False)
    set_chunk(monkeypatch, grid, True, 1)
    rep = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, ys, grid)
    ref = oracle_hormander(HEAT, 0.0, HEAT, w, 2.0, ys, grid)
    for got, want in zip(rep.integrals, ref):
        assert abs(got - want) <= 1e-13 * abs(want)


# --- bit-exact against the roll and pow reductions ----------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [2.0, 4.0])
@pytest.mark.parametrize("psi2", [HEAT, POWER_T, DRIFT, DRIFT_T, PLAIN_T],
                         ids=["heat", "power-t", "drift", "drift-t", "plain-t"])
def test_g_function_bits_match_pow_reduction(d, q, psi2):
    f = field(d)
    w = finite_window(f.grid, q)
    _, stack = next(gfunction._node_fields(HEAT, 0.0, psi2, w, f.grid, f=f))
    assert stack.dtype == (np.complex128 if psi2 in (DRIFT, DRIFT_T, PLAIN_T) else np.float64)
    G = g_function(f, HEAT, 0.0, psi2, w, q)
    if psi2 is PLAIN_T:  # the complex route, to round-off of the separable real one
        assert rel_err(G.values, g_function(f, HEAT, 0.0, POWER_T, w, q).values) <= 1e-14
    ref = pow_g(f, HEAT, 0.0, psi2, w, q)
    if q == 2.0:
        assert G.values.tobytes() == ref.tobytes()
    else:  # squared twice in place: G (nonnegative) within 1 ulp of the pow route
        assert np.abs(G.values.view(np.int64) - ref.view(np.int64)).max() <= 1


@pytest.mark.parametrize("q", [2.0, 4.0])
@pytest.mark.parametrize("psi2", [HEAT, POWER_T, DRIFT], ids=["heat", "power-t", "drift"])
@pytest.mark.parametrize("phase", [False, True], ids=["roll", "blend"])
def test_hormander_bits_match_roll_loop_1d(q, psi2, phase):
    grid, w, ys = _hormander_case(1, psi2, phase)
    # an infinite window at q != 2 needs a homogeneous pair, which DRIFT is not
    a = 1.0 if psi2 is DRIFT and q != 2.0 else w.a
    w = build_time_window(0.0, a, q, 2.0, 2.0, n_nodes=2, kappa2=1.0,
                          xi_min=grid.min_freq, xi_max=grid.nyquist)
    assert all(len(_shift_stencil(grid, y)) == (2 if phase else 1) for y in ys)
    rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, q, ys, grid)
    assert rep.integrals == roll_hormander(HEAT, 0.0, psi2, w, q, ys, grid)


@pytest.mark.parametrize("psi2", [HEAT, POWER_T], ids=["heat", "power-t"])
def test_hormander_bits_match_roll_loop_2d_four_rolls(psi2):
    grid, w, _ = _hormander_case(2, psi2, False)
    ys = [np.array([1.0375, 0.825]), np.array([1.0, 0.0]), np.array([-1.0, 0.75])]
    assert [len(_shift_stencil(grid, y)) for y in ys] == [4, 1, 1]
    rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, 2.0, ys[:1], grid)
    assert rep.integrals == roll_hormander(HEAT, 0.0, psi2, w, 2.0, ys[:1], grid)
    for y in ys[1:]:  # lattice shifts on one axis and on both, one signed negative
        rep = hormander_report(HEAT, 0.0, psi2, 0.0, w, 2.0, [y], grid)
        assert rep.integrals == roll_hormander(HEAT, 0.0, psi2, w, 2.0, [y], grid)


@pytest.mark.parametrize("phase", [False, True], ids=["roll", "blend"])
def test_hormander_bits_match_roll_loop_single_node_chunks(monkeypatch, phase):
    grid, w, ys = _hormander_case(1, HEAT, phase)
    set_chunk(monkeypatch, grid, True, 1)
    assert set(chunk_sizes(HEAT, HEAT, w, grid)) == {1}
    rep = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, ys, grid)
    assert rep.integrals == roll_hormander(HEAT, 0.0, HEAT, w, 2.0, ys, grid)


@pytest.mark.parametrize("shape", [(6,), (4, 6), (3, 4, 5)])
def test_roll_blocks_reproduce_np_roll(shape):
    stack = np.arange(2 * math.prod(shape), dtype=float).reshape((2,) + shape)
    axes = tuple(range(1, len(shape) + 1))
    n0 = shape[0]
    for step in (-n0 - 1, -1, 0, 1, n0, n0 + 1, 3 * n0 + 2):
        steps = tuple(step + k for k in range(len(shape)))  # mixed steps across axes
        for s in (steps, (step,) * len(shape)):
            blocks = _roll_blocks(shape, s)
            assert len(blocks) == 2 ** sum(m % n != 0 for m, n in zip(s, shape))
            out = np.full_like(stack, np.nan)
            for dst, src in blocks:
                out[dst] = stack[src]
            assert np.array_equal(out, np.roll(stack, s, axis=axes)), s


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_stacks_bits_match_real_spectrum_inverse(d):
    # the engine hands irfftn a complex spectrum; irfftn of the real one gives the same bits
    grid = GRIDS[d]
    w = finite_window(grid, 2.0)
    half = (Ellipsis, slice(0, grid.n // 2 + 1))
    m = HEAT(0.0, grid.xi_stack())[half]
    want = np.fft.irfftn(m * np.exp(np.multiply.outer(w.nodes - w.s, m)), s=grid.shape,
                         axes=tuple(range(1, d + 1)))
    # each stack is valid until the next chunk, so each is copied
    got = np.concatenate([K.copy() for _, K in gfunction._node_fields(HEAT, 0.0, HEAT, w, grid)])
    assert m.dtype == np.float64 and got.tobytes() == want.tobytes()


# --- the underflow band -------------------------------------------------------

# a chunk of each grid's windows is narrower than n/2 + 1 for heat and poisson alike
BAND_GRIDS = {1: GridSpec(1, 8192, 16.0), 2: GridSpec(2, 128, 8.0), 3: GridSpec(3, 64, 8.0)}
BAND_SHIFTS = {1: [np.array([2.0])], 2: [np.array([2.5, 0.0])], 3: [np.array([3.0, 0.0, 0.0])]}
# zero on every column with |xi_d| >= 3, the half spectrum's last ones among them
FLAT_TAIL = SymbolSpec(name="flat-tail", kappa=1.0, mu=10.0, gamma=2.0, n_cert=2,
                       time_constant=True,
                       eval_fn=lambda t, xi: np.where(np.abs(xi[-1]) >= 3.0, 0.0,
                                                      -(xi**2).sum(axis=0)))


def band_case(d, psi):
    grid = BAND_GRIDS[d]
    f = generate_corpus(60 + d, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
    w = build_time_window(0.0, INF, 2.0, psi.gamma, psi.gamma, n_nodes=2, kappa2=1.0,
                          xi_min=grid.min_freq, xi_max=math.sqrt(d) * grid.nyquist)
    return grid, f, w


def test_exp_floor_underflows_to_zero():
    # the band drops exponents below _EXP_FLOOR, so np.exp must give exactly
    # 0.0 there, on the array (SIMD) path and on the scalar path
    assert gfunction._EXP_FLOOR < -745.1332 and np.exp(-745.1332) > 0.0
    x = np.linspace(gfunction._EXP_FLOOR - 1000.0, gfunction._EXP_FLOOR, 10001)
    assert not np.exp(x).any()
    assert all(np.exp(float(v)) == 0.0 for v in x)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("psi", [HEAT, POISSON], ids=["heat", "poisson"])
def test_band_bits_match_full_lattice_loop(monkeypatch, d, psi):
    grid, f, w = band_case(d, psi)
    ys = BAND_SHIFTS[d]
    calls = spy_inverse(monkeypatch)
    G = g_function(f, psi, 0.0, psi, w, 2.0)
    widths = [m for name, m in calls if name == "irfftn"]
    assert len(widths) == len(calls) > 1
    assert widths[0] == grid.n // 2 + 1 and min(widths) < grid.n // 2 + 1
    H = hormander_report(psi, 0.0, psi, 0.0, w, 2.0, ys, grid).integrals
    monkeypatch.undo()
    monkeypatch.setattr(gfunction, "_node_fields", full_lattice_node_fields)
    monkeypatch.setattr(kernel_audit, "_node_fields", full_lattice_node_fields)
    assert G.values.tobytes() == g_function(f, psi, 0.0, psi, w, 2.0).values.tobytes()
    assert H == hormander_report(psi, 0.0, psi, 0.0, w, 2.0, ys, grid).integrals


@pytest.mark.parametrize("d", [1, 2, 3])
def test_separable_band_bits_match_whole_lattice(monkeypatch, d):
    # power-t's node exponents A_i |xi|^2 have A_i < 0: the band applies, and
    # with the floor at -inf every chunk keeps the whole half lattice
    grid, f, w = band_case(d, POWER_T)
    ys = BAND_SHIFTS[d]
    calls = spy_inverse(monkeypatch)
    G = g_function(f, HEAT, 0.0, POWER_T, w, 2.0)
    H = hormander_report(HEAT, 0.0, POWER_T, 0.0, w, 2.0, ys, grid).integrals
    widths = [m for name, m in calls if name == "irfftn"]
    assert len(widths) == len(calls) > 1 and min(widths) < grid.n // 2 + 1
    calls.clear()
    monkeypatch.setattr(gfunction, "_EXP_FLOOR", -math.inf)
    assert G.values.tobytes() == g_function(f, HEAT, 0.0, POWER_T, w, 2.0).values.tobytes()
    assert H == hormander_report(HEAT, 0.0, POWER_T, 0.0, w, 2.0, ys, grid).integrals
    assert set(calls) == {("irfftn", grid.n // 2 + 1)}


# separable with node integrals of both signs: A(t) = 0.001 t - t^2 / 2 > 0 below t = 0.002
SIGN_CHANGE = SymbolSpec(name="sign-change", kappa=1.0, mu=30.0, gamma=2.0, n_cert=2,
                         eval_fn=lambda t, xi: (0.001 - t) * (xi**2).sum(axis=0),
                         time_factor=lambda t: 0.001 - t, spatial=lambda xi: (xi**2).sum(axis=0))


@pytest.mark.parametrize("case", ["complex", "drift", "sign-change", "flat-tail"])
def test_band_leaves_other_paths_whole(monkeypatch, case):
    grid, f, w = band_case(2, HEAT)
    psi2 = {"drift": DRIFT, "sign-change": SIGN_CHANGE, "flat-tail": FLAT_TAIL}.get(case, HEAT)
    if case == "complex":
        f = Field(grid, f.values * (1.0 + 0.5j))
    if case == "sign-change":
        w = finite_window(grid, 2.0, n_nodes=2)
        assert (w.nodes < 0.002).any() and (w.nodes > 0.002).any()
    calls = spy_inverse(monkeypatch)
    G = g_function(f, HEAT, 0.0, psi2, w, 2.0)
    full = ("irfftn", grid.n // 2 + 1)
    assert set(calls) == ({full} if case in ("sign-change", "flat-tail") else {("ifftn", grid.n)})
    if case == "flat-tail":  # the band test's oracle runs this real path too
        monkeypatch.undo()
        monkeypatch.setattr(gfunction, "_node_fields", full_lattice_node_fields)
        assert G.values.tobytes() == g_function(f, HEAT, 0.0, psi2, w, 2.0).values.tobytes()
