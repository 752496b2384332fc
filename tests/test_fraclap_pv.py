"""The one-multiplier principal-value route against the per-node loop it
replaced, against its own steps spelled out, and its image sums against the
Hurwitz zeta function.

The oracle below is the former ``fractional_laplacian_pv``: one full inverse
FFT per near-range quadrature node, and the far range as a circular
convolution with the cell masses, whose image sums take 2048 direct terms.
The multiplier route must reproduce it to round-off for real and complex
input.
"""

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from speclp import Field, GridSpec, forward_transform, fractional_laplacian_pv, pv_normalization
from speclp import kernel_audit
from speclp.evolution import _dyadic_panels
from speclp.kernel_audit import _pv_geometry, _tail_diff_sums
from speclp.spectral import _lattice, _multiply


def tail_diff_sum(u, v, s, terms):
    """sum_{j>=0} (u+j)^(-s) - (v+j)^(-s), elementwise, each cell on its own:
    ``terms`` direct terms, in blocks of at most 256, then Euler-Maclaurin
    through B6."""
    direct = 0.0
    for start in range(0, terms, 256):
        j = np.arange(start, min(start + 256, terms), dtype=float).reshape((-1,) + (1,) * u.ndim)
        direct = direct + ((u + j) ** -s - (v + j) ** -s).sum(axis=0)
    a, b = u + terms, v + terms
    if abs(s - 1.0) < 1e-12:
        integral = np.log(b / a)
    else:
        integral = (a ** (1.0 - s) - b ** (1.0 - s)) / (s - 1.0)
    c1 = s / 12.0
    c3 = -s * (s + 1.0) * (s + 2.0) / 720.0
    c5 = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / 30240.0

    def ends(z):
        inv2 = 1.0 / (z * z)
        return z**-s * (0.5 + (c1 + (c3 + c5 * inv2) * inv2) / z)

    return direct + integral + (ends(a) - ends(b))


def cell_masses(lo_edge, hi_edge, period, eta, terms):
    """Masses of the 2L-periodized kernel |y|^(-1-eta) over [lo, hi] cells,
    every cell evaluating the terms at both of its edges."""
    base = (lo_edge**-eta - hi_edge**-eta) / eta
    a, b = lo_edge / period, hi_edge / period
    plus = tail_diff_sum(1.0 + a, 1.0 + b, eta, terms)
    minus = tail_diff_sum(1.0 - b, 1.0 - a, eta, terms)
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
    cell = np.where(active, cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta, 2048),
                    0.0)
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
    """The one-multiplier route with each step spelled out: the bottom panels
    whose top node has y xi_max / 2 <= 3e-3 by the moments of the first three
    terms of the series of sin^2, every other near-range node calling np.sin
    on the whole (half) lattice, and every sample's cell
    [(m - 1/2) h, (m + 1/2) h], m = |k - n/2|, computing its own mass with 16
    direct image terms."""
    grid = f.grid
    h = grid.spacing
    m0 = round(1.0 / h)
    edge0 = (m0 - 0.5) * h
    ys, ws = _dyadic_panels([edge0 * 2.0 ** (-k) for k in range(48, -1, -1)], 8)
    cs = ws * ys ** (-1.0 - eta)
    xi_max = np.abs(grid.freq_axis()).max()
    deep = 0
    while deep < ys.size and 0.5 * xi_max * ys[deep + 7] <= 3e-3:
        deep += 8
    m = np.abs(np.arange(grid.n) - grid.n // 2).astype(float)
    active = m >= m0
    lo_edge = np.where(active, (m - 0.5) * h, 1.0)
    hi_edge = np.where(active, np.minimum((m + 0.5) * h, grid.half_extent), 2.0)
    cell = np.where(active, cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta, 16), 0.0)

    def mult(half):
        at = _lattice(grid, half)
        xi = grid.freq_axis()[at]
        # sum_j (-1)^(j+1) M_2j xi^(2j) / (2 (2j)!) by Horner in xi^2, j = 3, 2, 1
        moments = [float(cs[:deep] @ (ys[:deep] ** 2) ** j) for j in (1, 2, 3)]
        near = np.zeros(xi.size)
        for j, sign, fact in ((3, 1, 720), (2, -1, 24), (1, 1, 2)):
            near = (near + sign * moments[j - 1] / (2.0 * fact)) * (xi * xi)
        for y, c in zip(ys[deep:], cs[deep:]):
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


def pv_multiplier(f, eta, monkeypatch):
    """The half-lattice multiplier that fractional_laplacian_pv applies to f."""
    taken = []
    with monkeypatch.context() as m:
        m.setattr(kernel_audit, "_multiply", lambda f, mult: taken.append(mult(True)))
        fractional_laplacian_pv(f, eta)
    return taken[0]


@pytest.mark.parametrize("n, L", [(512, 32.0), (1000, 40.0), (2048, 16.0), (16384, 256.0)],
                         ids=["512", "1000", "2048", "16384"])
@pytest.mark.parametrize("eta", [0.3, 1.0, 1.7])
def test_moment_panels_match_direct_sines(n, L, eta, monkeypatch):
    # every other term of the multiplier keeps its bits; only the deep
    # panels' sum moves from np.sin node by node to the moment series
    f = Field(GridSpec(1, n, L), np.ones(n))  # the multiplier does not read f's values
    assert _pv_geometry(f.grid)["moment_panels"] >= 30
    split = pv_multiplier(f, eta, monkeypatch)
    monkeypatch.setattr(kernel_audit, "_MOMENT_ARG", 0.0)
    assert _pv_geometry(f.grid)["moment_panels"] == 0
    direct = pv_multiplier(f, eta, monkeypatch)
    assert float(np.abs(split - direct).max() / np.abs(direct).max()) <= 1e-15


@pytest.mark.parametrize("n, L", [(16384, 256.0), (512, 32.0)], ids=["16384", "512"])
@pytest.mark.parametrize("eta", [0.3, 0.5, 1.0, 1.5, 1.7])
def test_tail_diff_sums_match_hurwitz_zeta(n, L, eta):
    # the image sums of _folded_cell_masses at 40 cells spread over the far
    # range: sum_j (x+j)^(-s) - (x'+j)^(-s) = zeta(s, x) - zeta(s, x')
    # (DLMF 25.11.1), psi(x') - psi(x) at s = 1
    grid = GridSpec(1, n, L)
    h = grid.spacing
    edges = np.append((np.arange(round(1.0 / h), n // 2 + 1) - 0.5) * h, L)
    a = edges / (2.0 * L)
    at = np.linspace(0, edges.size - 2, 40).round().astype(int)
    worst = 0.0
    with mpmath.workdps(30):
        def exact(u, v):
            u, v = mpmath.mpf(float(u)), mpmath.mpf(float(v))
            if eta == 1.0:
                return mpmath.digamma(v) - mpmath.digamma(u)
            return mpmath.zeta(eta, u) - mpmath.zeta(eta, v)

        for x in (1.0 + a, (1.0 - a)[::-1]):
            got = _tail_diff_sums(x, eta)
            for i in at:
                ref = exact(x[i], x[i + 1])
                worst = max(worst, abs(float((got[i] - ref) / ref)))
    assert worst <= 5e-11
