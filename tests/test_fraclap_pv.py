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
from speclp.kernel_audit import _folded_cell_masses


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
    cell = np.where(active, _folded_cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta), 0.0)
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


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("eta", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_pv_multiplier_matches_per_node_loop(n, eta, complex_input):
    f = pv_input(n, complex_input)
    got = fractional_laplacian_pv(f, eta).values
    ref = oracle_pv(f, eta)
    assert np.isrealobj(got) == (not complex_input)
    assert float(np.abs(got - ref).max() / np.abs(ref).max()) <= 1e-13
