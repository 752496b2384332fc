"""The one-multiplier principal-value route against the per-node loop it
replaced, against its own steps spelled out, its near-range sums against
long-double sines, and its image sums and cell masses against mpmath.

The oracle below is the former ``fractional_laplacian_pv``: one full inverse
FFT per near-range quadrature node, and the far range as a circular
convolution with the cell masses, whose image sums take 2048 direct terms.
Its per-node loop runs once per (eta, n), on the real and the complex input
together.
The multiplier route must reproduce it to round-off for real and complex
input.
"""

import functools
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from speclp import Field, GridSpec, forward_transform, fractional_laplacian_pv, pv_normalization
from speclp import kernel_audit
from speclp.evolution import _dyadic_panels, _legendre
from speclp.kernel_audit import (_TAIL_TERMS, _folded_cell_masses, _moment_sums, _pv_geometry,
                                 _pv_plan, _sin2_sums, _tail_diff_sums)
from speclp.spectral import _multiply


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


def oracle_pv(fields, eta, quad=48, nodes_per_panel=8, y_split=1.0):
    """The former fractional_laplacian_pv of each field of ``fields`` (one
    grid): the per-node loop runs once, on the stack of their spectra, and
    the cell masses are built once."""
    grid = fields[0].grid
    h = grid.spacing
    F = np.stack([forward_transform(f).coeffs for f in fields])
    xi = grid.freq_axis()
    back = (2.0 * np.pi) ** 0.5 / grid.cell_measure
    m0 = max(1, round(y_split / h))
    edge0 = (m0 - 0.5) * h
    z, w = _legendre(nodes_per_panel)
    edges = [edge0 * 2.0 ** (-k) for k in range(quad, -1, -1)]
    acc = np.zeros(F.shape, dtype=np.complex128)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for zz, ww in zip(z, w):
            y = mid + half * zz
            sym = -4.0 * np.sin(0.5 * y * xi) ** 2 * F
            S = np.fft.fftshift(np.fft.ifft(sym, axis=-1), axes=-1) * back
            acc += (half * ww) * (y ** (-1.0 - eta)) * S
    x = grid.x_axis()
    r = np.abs(x)
    active = r >= m0 * h - 0.25 * h
    lo_edge = np.where(active, np.maximum(r - 0.5 * h, edge0), 1.0)
    hi_edge = np.where(active, np.minimum(r + 0.5 * h, grid.half_extent), 2.0)
    cell = np.where(active, cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta, 2048),
                    0.0)
    outs = []
    for f, near in zip(fields, acc):
        conv = np.fft.ifft(np.fft.fft(np.fft.ifftshift(f.values))
                           * np.fft.fft(np.fft.ifftshift(cell)))
        smooth = np.fft.fftshift(conv) - cell.sum() * f.values
        out = pv_normalization(1, eta) * (near + smooth)
        outs.append(out.real if np.isrealobj(f.values) else out)
    return outs


@functools.lru_cache(maxsize=None)
def pv_oracles(n, eta):
    """oracle_pv of the real and the complex pv_input, from one loop."""
    return oracle_pv([pv_input(n, False), pv_input(n, True)], eta)


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
    ref = pv_oracles(n, eta)[complex_input]
    assert np.isrealobj(got) == (not complex_input)
    assert float(np.abs(got - ref).max() / np.abs(ref).max()) <= 1e-13


def image_sum(u, d, s):
    """sum_{j>=0} (u+j)^(-s) - (u+d+j)^(-s), elementwise, each cell on its own:
    8 direct terms, the integral and Euler-Maclaurin through B12, every term
    written as z^(-p) (-expm1(-p log1p(d / z)))."""
    def diff(z, p, lg):
        return z**-p * -np.expm1(-p * lg)

    direct = 0.0
    for j in range(8):
        z = u + j
        direct = direct + diff(z, s, np.log1p(d / z))
    a = u + 8
    lg = np.log1p(d / a)
    integral = lg if s == 1.0 else diff(a, s - 1.0, lg) / (s - 1.0)
    ends = 0.5 * diff(a, s, lg)
    bernoulli = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)
    rising = s  # s (s+1) ... (s+2k-2)
    for k, b in enumerate(bernoulli, start=1):
        ends += b * rising * diff(a, s + 2 * k - 1, lg)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return direct + integral + ends


def spelled_out_pv(f, eta):
    """The one-multiplier route with each step spelled out on m = 0..n/2,
    mirrored to the whole lattice as |m|: the bottom panels whose top node has
    y xi_max / 2 <= 3e-3 by the moments of the first three terms of the
    series of sin^2; every other near-range node's sines by angle addition
    from its own tables at m = B a + b, B = ceil(sqrt(n/2 + 1)), contracted
    row by row in stacking order; every sample's cell
    [(m - 1/2) h, (m + 1/2) h], m = |k - n/2|, computing its own mass; and
    the far range as the real part of an rfft."""
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
    lo = np.where(active, (m - 0.5) * h, 1.0)
    hi = np.where(active, np.minimum((m + 0.5) * h, grid.half_extent), 2.0)
    period = 2.0 * grid.half_extent
    base = lo**-eta * -np.expm1(-eta * np.log1p((hi - lo) / lo)) / eta
    d = (hi - lo) / period
    images = image_sum(1.0 + lo / period, d, eta) + image_sum(1.0 - hi / period, d, eta)
    cell = np.where(active, base + period**-eta * images / eta, 0.0)

    size = grid.n // 2 + 1
    xi = grid.freq_axis()[:size]
    # sum_j (-1)^(j+1) M_2j xi^(2j) / (2 (2j)!) by Horner in xi^2, j = 3, 2, 1
    moments = [float(cs[:deep] @ (ys[:deep] ** 2) ** j) for j in (1, 2, 3)]
    near = np.zeros(size)
    for j, sign, fact in ((3, 1, 720), (2, -1, 24), (1, 1, 2)):
        near = (near + sign * moments[j - 1] / (2.0 * fact)) * (xi * xi)
    B = math.ceil(math.sqrt(size))
    A = -(-size // B)
    left, right = [], []
    for theta, c in zip(0.5 * grid.min_freq * ys[deep:], cs[deep:]):
        sa, ca = np.sin(theta * (B * np.arange(A))), np.cos(theta * (B * np.arange(A)))
        sb, cb = np.sin(theta * np.arange(B)), np.cos(theta * np.arange(B))
        left.append((c * sa * sa, 2.0 * c * sa * ca, c * ca * ca))
        right.append((cb * cb, sb * cb, sb * sb))
    table = np.zeros((A, B))
    for term in range(3):  # term by term, node by node within each
        for lk, rk in zip(left, right):
            table += lk[term][:, None] * rk[term]
    near = near + table.reshape(-1)[:size]
    far = np.fft.rfft(np.fft.ifftshift(cell)).real - cell.sum()
    on_m = pv_normalization(1, eta) * (far - 4.0 * near)
    k = np.arange(grid.n)
    return _multiply(f, lambda half: on_m if half else on_m[np.minimum(k, grid.n - k)])


@pytest.mark.parametrize("n, L", [(512, 32.0), (2048, 64.0), (16384, 256.0), (1000, 40.0)],
                         ids=["512", "2048", "16384", "1000"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_shared_sines_and_masses_keep_every_bit(n, L, complex_input):
    # n = 1000: the spacing 0.08 is not binary, so the cell edges round
    grid = GridSpec(1, n, L)
    x = grid.x_axis()
    values = np.exp(-((x - 0.3) ** 2) / 2.0)
    if complex_input:
        values = values * (1.0 + 0.5j * x)
    f = Field(grid, values)
    etas = (0.3, 1.0, 1.7)
    refs = {eta: spelled_out_pv(f, eta).values for eta in etas}
    # the grid's plan built by the first call, then used warm in reverse order
    _pv_plan.cache_clear()
    for eta in etas + etas[::-1]:
        got = fractional_laplacian_pv(f, eta).values
        assert got.dtype == refs[eta].dtype == (np.complex128 if complex_input else np.float64)
        assert got.tobytes() == refs[eta].tobytes()
    for a in _pv_plan(grid).arrays():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_pv_plan_cache_stays_small():
    # criterion 11's grid holds at most 2 MiB, counted by the arrays and by
    # the allocations the plan keeps alive; the cache holds at most maxsize grids
    grid = GridSpec(1, 16384, 256.0)
    _pv_plan.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = _pv_plan(grid)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    counted = _pv_geometry(grid)["geometry_bytes"]
    assert counted == sum(a.nbytes for a in plan.arrays())
    assert held <= 2 * 2**20 and counted <= 2 * 2**20
    maxsize = _pv_plan.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4
    for k in range(maxsize + 2):
        _pv_plan(GridSpec(1, 64, 8.0 + k))
        assert _pv_plan.cache_info().currsize <= maxsize
    assert _pv_plan.cache_info().currsize == maxsize


def pv_multiplier(f, eta, monkeypatch):
    """The half-lattice multiplier that fractional_laplacian_pv applies to f."""
    taken = []
    with monkeypatch.context() as m:
        m.setattr(kernel_audit, "_multiply", lambda f, mult: taken.append(mult(True)))
        fractional_laplacian_pv(f, eta)
    return taken[0]


NEAR_GRIDS = pytest.mark.parametrize(
    "n, L", [(512, 32.0), (1000, 40.0), (2048, 16.0), (16384, 256.0)],
    ids=["512", "1000", "2048", "16384"])


def near_coefficients(grid, eta):
    """The near range's nodes y_k, their weights c_k = w_k y_k^(-1-eta), the
    number summed by moments, and the half lattice's frequencies."""
    plan = _pv_plan(grid)
    return plan.ys, plan.ws * plan.ys ** (-1.0 - eta), plan.deep, plan.xi


@NEAR_GRIDS
@pytest.mark.parametrize("eta", [0.3, 1.0, 1.7])
def test_moment_panels_match_direct_sines(n, L, eta, monkeypatch):
    # the deep panels' moment series against np.sin over their nodes alone,
    # node by node in node order, relative to the whole multiplier
    grid = GridSpec(1, n, L)
    assert _pv_geometry(grid)["moment_panels"] >= 30
    ys, cs, deep, xi = near_coefficients(grid, eta)
    direct = np.zeros(xi.size)
    for y, c in zip(ys[:deep], cs[:deep]):
        direct += c * np.sin(0.5 * y * xi) ** 2
    moment = _moment_sums(ys[:deep], cs[:deep], xi)
    # the multiplier does not read f's values
    mult = pv_multiplier(Field(grid, np.ones(n)), eta, monkeypatch)
    err = 4.0 * pv_normalization(1, eta) * np.abs(moment - direct).max()
    assert float(err / np.abs(mult).max()) <= 1e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than double on this platform")
@NEAR_GRIDS
@pytest.mark.parametrize("eta", [0.3, 1.0, 1.7])
def test_direct_near_sum_matches_longdouble_sines(n, L, eta):
    # the angle-addition sum over the direct panels against sin^2(y_k xi_m / 2)
    # with xi_m = m pi / L, each term and the sum in long double
    grid = GridSpec(1, n, L)
    ys, cs, deep, _ = near_coefficients(grid, eta)
    got = _sin2_sums(_pv_plan(grid), cs[deep:])
    xi = np.arange(n // 2 + 1, dtype=np.longdouble) * np.longdouble(np.pi) / np.longdouble(L)
    ref = np.zeros(xi.size, dtype=np.longdouble)
    for y, c in zip(ys[deep:].astype(np.longdouble), cs[deep:].astype(np.longdouble)):
        ref += c * np.sin(y * xi / 2) ** 2
    assert got[0] == 0.0
    assert float((np.abs(got[1:] - ref[1:]) / ref[1:]).max()) <= 5e-15


def test_pv_bytes_do_not_depend_on_blas_threads():
    # criterion 11's grid and input; the contraction of the near range must
    # not go through a threaded BLAS product
    script = ("import hashlib, numpy as np\n"
              "from speclp import Field, GridSpec, fractional_laplacian_pv\n"
              "grid = GridSpec(1, 16384, 256.0)\n"
              "f = Field(grid, np.exp(-grid.x_axis() ** 2 / 2.0))\n"
              "digest = hashlib.sha256()\n"
              "for eta in (0.5, 1.0, 1.5):\n"
              "    digest.update(fractional_laplacian_pv(f, eta).values.tobytes())\n"
              "print(digest.hexdigest())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def hurwitz_diff(u, v, s):
    """sum_j (u+j)^(-s) - (v+j)^(-s) = zeta(s, u) - zeta(s, v) (DLMF 25.11.1),
    psi(v) - psi(u) at s = 1, at the working precision of mpmath."""
    u, v = mpmath.mpf(u), mpmath.mpf(v)
    if s == 1.0:
        return mpmath.digamma(v) - mpmath.digamma(u)
    return mpmath.zeta(s, u) - mpmath.zeta(s, v)


def far_edges(n, L):
    """The far range's cell edges (m - 1/2) h, m = m0..n/2, and L."""
    h = 2.0 * L / n
    return np.append((np.arange(round(1.0 / h), n // 2 + 1) - 0.5) * h, L)


@pytest.mark.parametrize("n, L", [(16384, 256.0), (512, 32.0)], ids=["16384", "512"])
@pytest.mark.parametrize("eta", [0.3, 0.5, 1.0, 1.5, 1.7])
def test_tail_diff_sums_match_hurwitz_zeta(n, L, eta):
    # the image sums of _folded_cell_masses at 40 cells spread over the far
    # range, at the points x and widths delta it passes, with the grid plan's
    # logarithms: after the direct piece's row, _TAIL_TERMS + 1 rows per sum
    edges = far_edges(n, L)
    period = 2.0 * L
    delta = np.diff(edges) / period
    plan = _pv_plan(GridSpec(1, n, L))
    assert plan.edges.tobytes() == edges.tobytes()
    rows = _TAIL_TERMS + 1
    at = np.linspace(0, delta.size - 1, 40).round().astype(int)
    worst = 0.0
    with mpmath.workdps(30):
        for x, logs in ((1.0 + edges[:-1] / period, plan.logs[1:1 + rows]),
                        (1.0 - edges[1:] / period, plan.logs[1 + rows:])):
            got = _tail_diff_sums(x, logs, eta)
            for i in at:
                u = mpmath.mpf(x[i])
                ref = hurwitz_diff(u, u + mpmath.mpf(delta[i]), eta)
                worst = max(worst, abs(float((got[i] - ref) / ref)))
    assert worst <= 1e-14


@pytest.mark.parametrize("n, L", [(16384, 256.0), (512, 32.0), (1000, 40.0)],
                         ids=["16384", "512", "1000"])
@pytest.mark.parametrize("eta", [0.3, 1.0, 1.7])
def test_cell_masses_match_mpmath(n, L, eta):
    # each cell's mass, direct piece and both image sums, at 25 cells spread
    # over the far range.  Both pieces difference a cell's two edges; on
    # n = 1000, L = 40 the image points 1 +- edge / 2L are rounded, so a width
    # taken from them would be off by 1e-13 relative
    edges = far_edges(n, L)
    period = 2.0 * L
    plan = _pv_plan(GridSpec(1, n, L))
    assert plan.edges.tobytes() == edges.tobytes()
    got = _folded_cell_masses(plan, eta)
    worst = 0.0
    with mpmath.workdps(30):
        P = mpmath.mpf(period)
        for i in np.linspace(0, edges.size - 2, 25).round().astype(int):
            lo, hi = mpmath.mpf(edges[i]), mpmath.mpf(edges[i + 1])
            images = hurwitz_diff(1 + lo / P, 1 + hi / P, eta) \
                + hurwitz_diff(1 - hi / P, 1 - lo / P, eta)
            ref = (lo**-eta - hi**-eta + P**-eta * images) / eta
            worst = max(worst, abs(float((got[i] - ref) / ref)))
    assert worst <= 1e-14
