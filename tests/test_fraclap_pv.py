"""The one-multiplier principal-value route against the per-node loop it replaced.

The oracle below is the former ``fractional_laplacian_pv``: one full inverse
FFT per near-range quadrature node, and the far range as a circular
convolution with the cell masses.  The multiplier route must reproduce it to
round-off for real and complex input.
"""

import numpy as np
import pytest
from scipy.special import roots_legendre

from speclp import Field, GridSpec, forward_transform, fractional_laplacian_pv, pv_normalization
from speclp.evolution import _dyadic_panels
from speclp.spectral import _lattice, _multiply


def tail_diff_sum(u, v, s):
    """sum_{j>=0} (u+j)^(-s) - (v+j)^(-s), elementwise, via Euler-Maclaurin
    after 64 direct terms, each cell on its own (the former per-cell route)."""
    terms = 64
    j = np.arange(terms, dtype=float).reshape((-1,) + (1,) * u.ndim)
    direct = ((u + j) ** -s - (v + j) ** -s).sum(axis=0)
    a, b = u + terms, v + terms
    if abs(s - 1.0) < 1e-12:
        integral = np.log(b / a)
    else:
        integral = (a ** (1.0 - s) - b ** (1.0 - s)) / (s - 1.0)
    g = a**-s - b**-s
    gp = -s * (a ** (-s - 1.0) - b ** (-s - 1.0))
    return direct + integral + 0.5 * g - gp / 12.0


def cell_masses(lo_edge, hi_edge, period, eta):
    """Masses of the 2L-periodized kernel |y|^(-1-eta) over [lo, hi] cells,
    every cell evaluating the terms at both of its edges."""
    base = (lo_edge**-eta - hi_edge**-eta) / eta
    a, b = lo_edge / period, hi_edge / period
    plus = tail_diff_sum(1.0 + a, 1.0 + b, eta)
    minus = tail_diff_sum(1.0 - b, 1.0 - a, eta)
    return base + period**-eta * (plus + minus) / eta


def oracle_pv(f, eta, quad=48, nodes_per_panel=8, y_split=1.0):
    grid = f.grid
    h = grid.spacing
    F = forward_transform(f)
    xi = grid.freq_axis()
    back = (2.0 * np.pi) ** 0.5 / grid.cell_measure
    m0 = max(1, round(y_split / h))
    edge0 = (m0 - 0.5) * h
    z, w = roots_legendre(nodes_per_panel)
    edges = [edge0 * 2.0 ** (-k) for k in range(quad, -1, -1)]
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for zz, ww in zip(z, w):
            y = mid + half * zz
            sym = -4.0 * np.sin(0.5 * y * xi) ** 2 * F.coeffs
            S = np.fft.fftshift(np.fft.ifft(sym)) * back
            acc += (half * ww) * (y ** (-1.0 - eta)) * S
    x = grid.x_axis()
    r = np.abs(x)
    active = r >= m0 * h - 0.25 * h
    lo_edge = np.where(active, np.maximum(r - 0.5 * h, edge0), 1.0)
    hi_edge = np.where(active, np.minimum(r + 0.5 * h, grid.half_extent), 2.0)
    cell = np.where(active, cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta), 0.0)
    conv = np.fft.ifft(np.fft.fft(np.fft.ifftshift(f.values)) * np.fft.fft(np.fft.ifftshift(cell)))
    smooth = np.fft.fftshift(conv) - cell.sum() * f.values
    out = pv_normalization(1, eta) * (acc + smooth)
    return out.real if np.isrealobj(f.values) else out


def pv_input(n, complex_input):
    grid = GridSpec(1, n, 64.0)
    x = grid.x_axis()
    values = np.exp(-((x - 0.3) ** 2) / 2.0)
    if complex_input:
        values = values + 0.5j * x * np.exp(-((x + 1.0) ** 2) / 3.0)
    return Field(grid, values)


@pytest.mark.parametrize("n", [1024, 4096, 1000])  # 1000: |x| is m h only to round-off
@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_pv_multiplier_matches_per_node_loop(n, eta, complex_input):
    f = pv_input(n, complex_input)
    got = fractional_laplacian_pv(f, eta).values
    ref = oracle_pv(f, eta)
    assert np.isrealobj(got) == (not complex_input)
    assert float(np.abs(got - ref).max() / np.abs(ref).max()) <= 1e-13


def spelled_out_pv(f, eta):
    """The one-multiplier route with each step spelled out: every near-range
    node calls np.sin on the whole (half) lattice, and every sample's cell
    [(m - 1/2) h, (m + 1/2) h], m = |k - n/2|, computes its own mass."""
    grid = f.grid
    h = grid.spacing
    m0 = round(1.0 / h)
    edge0 = (m0 - 0.5) * h
    ys, ws = _dyadic_panels([edge0 * 2.0 ** (-k) for k in range(48, -1, -1)], 8)
    cs = ws * ys ** (-1.0 - eta)
    m = np.abs(np.arange(grid.n) - grid.n // 2).astype(float)
    active = m >= m0
    lo_edge = np.where(active, (m - 0.5) * h, 1.0)
    hi_edge = np.where(active, np.minimum((m + 0.5) * h, grid.half_extent), 2.0)
    cell = np.where(active, cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta), 0.0)

    def mult(half):
        at = _lattice(grid, half)
        xi = grid.freq_axis()[at]
        near = np.zeros(xi.size)
        for y, c in zip(ys, cs):
            near += c * np.sin(0.5 * y * xi) ** 2
        far = (np.fft.fft(np.fft.ifftshift(cell)) - cell.sum())[at]
        return pv_normalization(1, eta) * ((far.real if half else far) - 4.0 * near)

    return _multiply(f, mult)


@pytest.mark.parametrize("n, L", [(512, 32.0), (2048, 64.0), (16384, 256.0), (1000, 40.0)],
                         ids=["512", "2048", "16384", "1000"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_shared_sines_and_masses_keep_every_bit(n, L, complex_input):
    # n = 1000 is no power of two: its panels still double exactly
    grid = GridSpec(1, n, L)
    x = grid.x_axis()
    values = np.exp(-((x - 0.3) ** 2) / 2.0)
    if complex_input:
        values = values * (1.0 + 0.5j * x)
    f = Field(grid, values)
    for eta in (0.3, 1.0, 1.7):
        got = fractional_laplacian_pv(f, eta).values
        ref = spelled_out_pv(f, eta).values
        assert got.dtype == ref.dtype == (np.complex128 if complex_input else np.float64)
        assert got.tobytes() == ref.tobytes()
