"""Numerical audits of kernel decay, regularity, and the singular-integral
smoothness hypothesis, plus a principal-value cross-check of the fractional
Laplacian.

All kernels here are convolution kernels of psi1(l,.) T_psi2(t, s) in the
normalization of :func:`speclp.evolution.kernel_field`; their gradients are
materialized spectrally as i xi_k * multiplier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import AuditError
from .evolution import KERNEL_SCALE, _dyadic_panels, _kernel, multiplier_values
from .gfunction import TimeWindow, _accumulate, _check_window, _node_fields
from .lp_decomp import DyadicDecomposition, block_multiplier
from .spectral import Field, GridSpec, _lattice, _multiply, _two_pi_pow
from .symbols import SymbolSpec

__all__ = [
    "DecayFitReport",
    "HormanderReport",
    "EnvelopeRow",
    "EnvelopeReport",
    "gradient_kernel",
    "decay_fit_space",
    "decay_fit_time",
    "hormander_report",
    "dyadic_l1_envelope",
    "fractional_laplacian_pv",
    "pv_normalization",
]

_UNDERFLOW = 1e-280


@dataclass(frozen=True)
class DecayFitReport:
    """Log-log fit of a kernel decay profile against its target power law."""

    fitted_exponent: float
    target_exponent: float
    fit_window: Tuple[float, float]
    fitted_constant: float
    max_pointwise_excess: float


@dataclass(frozen=True)
class HormanderReport:
    y_values: List[float]
    integrals: List[float]
    sup: float
    trend_slope: float


def gradient_kernel(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                    s: float, t: float, grid: GridSpec):
    """Gradient of the convolution kernel of psi1(l,.) T_psi2(t,s).

    Returns (components, magnitude): a list of d Fields with the partial
    derivatives (spectral multipliers i xi_k) and the pointwise Euclidean
    magnitude field.
    """
    mult = multiplier_values(psi2, s, t, grid, pre=(psi1, l))
    xi = grid.xi_stack()
    comps = [Field(grid, _kernel(grid, 1j * xi[k] * mult)) for k in range(grid.dim)]
    mag = np.sqrt(sum(np.abs(c.values) ** 2 for c in comps))
    return comps, Field(grid, mag)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _decay_fit(x: np.ndarray, v: np.ndarray, target: float, window) -> DecayFitReport:
    """Fit v ~ x^e and bound v by the smallest C x^target covering every sample."""
    const = float((v * x ** (-target)).max())
    excess = float((v / (const * x ** target)).max() - 1.0)
    return DecayFitReport(_loglog_fit(x, v), target, window, const, excess)


def decay_fit_space(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                    s: float, t: float, grid: GridSpec,
                    fit_window: Tuple[float, float]) -> DecayFitReport:
    """Fit |grad K| ~ |x|^e on the tail window r_lo <= |x| <= r_hi and bound
    it by C |x|^-(d+1+g1).

    fitted_constant is the smallest constant covering the window, so the
    pointwise excess against that envelope is zero by construction; the
    informative outputs are the fitted exponent and the constant itself
    (stable across t for self-similar kernels).
    """
    r_lo, r_hi = fit_window
    if r_hi / r_lo < 8.0:
        raise AuditError("fit window must span at least 3 octaves")
    _, mag = gradient_kernel(psi1, l, psi2, s, t, grid)
    r = grid.x_norm().reshape(-1)
    v = np.abs(mag.values).reshape(-1)
    sel = (r >= r_lo) & (r <= r_hi) & (v > _UNDERFLOW)
    if sel.sum() < 8:
        raise AuditError("too few usable points in the fit window; enlarge the grid")
    return _decay_fit(r[sel], v[sel], -(grid.dim + 1.0 + psi1.gamma), (r_lo, r_hi))


def decay_fit_time(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                   s: float, grid: GridSpec, t_list: Sequence[float]) -> DecayFitReport:
    """Fit sup_x |grad K(t, .)| ~ (t-s)^e against the target -(d+1+g1)/g2."""
    ts = np.asarray(sorted(t_list), dtype=float)
    if ts.size < 3 or (ts.max() - s) / (ts.min() - s) < 8.0:
        raise AuditError("t_list must span at least 3 octaves of t - s")
    sups = []
    for t in ts:
        _, mag = gradient_kernel(psi1, l, psi2, s, t, grid)
        sups.append(np.abs(mag.values).max())
    target = -(grid.dim + 1.0 + psi1.gamma) / psi2.gamma
    return _decay_fit(ts - s, np.asarray(sups), target, (float(ts.min() - s), float(ts.max() - s)))


def _shift_stencil(grid: GridSpec, y: np.ndarray) -> List[Tuple[float, Tuple[int, ...]]]:
    """K(x - y) as lattice rolls [(weight, steps)], multilinear in y: one roll
    on an axis within 1e-9 of a cell of the lattice, else the rolls by m and
    m + 1 for y = (m + theta) spacing, weighted 1 - theta and theta."""
    stencil = [(1.0, ())]
    for step in y / grid.spacing:
        m, theta = math.floor(step), step - math.floor(step)
        taps = (((1.0, round(step)),) if abs(step - round(step)) < 1e-9
                else ((1.0 - theta, m), (theta, m + 1)))
        stencil = [(wt * bw, sh + (k,)) for wt, sh in stencil for bw, k in taps]
    return stencil


def _roll_blocks(shape: Tuple[int, ...], steps: Tuple[int, ...]):
    """[(dst, src)] index pairs that write np.roll(a, steps) over the trailing
    len(shape) axes of a stack a as out[dst] = a[src]: one block per axis
    with no net step, else the two wrapped pieces, so 2^k blocks for k moved
    axes."""
    pieces = []
    for n, step in zip(shape, steps):
        m = step % n
        pieces.append([(slice(m, None), slice(0, n - m)), (slice(0, m), slice(n - m, None))]
                      if m else [(slice(None), slice(None))])
    return [((Ellipsis, *(dst for dst, _ in combo)), (Ellipsis, *(src for _, src in combo)))
            for combo in itertools.product(*pieces)]


def hormander_report(psi1: SymbolSpec, l: float, psi2: SymbolSpec, s: float,
                     window: TimeWindow, q: float, y_list, grid: GridSpec) -> HormanderReport:
    """H(y) = int_{|x| >= 2|y|} ||K(., x-y) - K(., x)||_V dx for each y.

    ||.||_V is the windowed q-norm with the singular weight.  The window
    must fit the pair at q as for :func:`speclp.gfunction.g_function`
    (:func:`speclp.gfunction._check_window`), and ``s`` must be the
    window's start.  K(x - y) is an
    index roll for lattice y, else a blend of the neighbouring rolls
    (:func:`_shift_stencil`), local where a spectral phase rings sub-cell
    kernels across the region.  Each chunk of node kernels is materialized
    once and reused across the y list, which may hold any number of shifts:
    each H(y) is the same as from a call with that y alone.  Every |y| must
    stay below L/2.  How many octaves a trend fit needs is the HORMANDER
    scenario's rule, not this function's.

    No roll allocates: each roll's index blocks (:func:`_roll_blocks`) are
    built once per call, and K(x - y) - K(x) is written block by block into
    one difference buffer (plus one for a blend's taps) allocated for the
    first chunk and reused for every node and shift; a blend keeps the
    order w0 K(x - y0), + wt K(x - yt), - K(x).  The q-th powers go through
    :func:`speclp.gfunction._accumulate`, which squares a real difference in
    place at q = 2.  The results equal the np.roll loop bit for bit.
    """
    _check_window(psi1, psi2, window, q)
    if s != window.s:
        raise ValueError(f"s={s} does not match window s={window.s}")
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_list]
    if not ys:
        raise ValueError("empty y list")
    mags = [float(np.linalg.norm(y)) for y in ys]
    for y, m in zip(ys, mags):
        if m <= 0.0:
            raise ValueError("y must be nonzero")
        if grid.spacing > m / 8.0:
            raise AuditError(f"grid cannot resolve |y|={m}: spacing {grid.spacing} > |y|/8")
        if 2.0 * m >= grid.half_extent:
            raise AuditError(f"no lattice region |x| >= 2|y| for |y|={m}: "
                             f"need |y| < L/2 = {grid.half_extent / 2.0}")
    stencils = [[(wt, _roll_blocks(grid.shape, sh)) for wt, sh in _shift_stencil(grid, y)]
                for y in ys]
    scale = KERNEL_SCALE(grid.dim) * _two_pi_pow(grid.dim) / grid.cell_measure
    acc = [np.zeros(grid.shape) for _ in ys]
    diff = None
    for w, K in _node_fields(psi1, l, psi2, window, grid):
        K *= scale  # kernels in fft order: origin at index 0
        if diff is None:  # the first chunk is the largest
            diff, tap = np.empty_like(K), np.empty_like(K)
        D, T = diff[:len(K)], tap[:len(K)]
        for a, ((w0, blocks0), *blend) in zip(acc, stencils):
            if blend:
                for dst, src in blocks0:
                    np.multiply(K[src], w0, out=D[dst])
                for wt, blocks in blend:
                    for dst, src in blocks:
                        np.multiply(K[src], wt, out=T[dst])
                    D += T
                D -= K
            else:
                for dst, src in blocks0:
                    np.subtract(K[src], K[dst], out=D[dst])
            _accumulate(a, D, w, q)
    r = grid.x_norm()
    integrals = []
    for y_mag, a in zip(mags, acc):
        V = np.fft.fftshift(a) ** (1.0 / q)
        integrals.append(float((V * (r >= 2.0 * y_mag)).sum() * grid.cell_measure))
    slope = _loglog_fit(np.asarray(mags), np.maximum(np.asarray(integrals), _UNDERFLOW)) \
        if len(ys) >= 2 else float("nan")
    return HormanderReport(mags, integrals, max(integrals), slope)


@dataclass(frozen=True)
class EnvelopeRow:
    j: int
    l1_norm: float
    envelope: float
    slack: float


@dataclass(frozen=True)
class EnvelopeReport:
    rows: List[EnvelopeRow]
    constant: float       # C
    rate: float           # c
    low_j_slope: Optional[float]


def dyadic_l1_envelope(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                       s: float, t: float, j_range: Sequence[int], grid: GridSpec,
                       D: DyadicDecomposition) -> EnvelopeReport:
    """L1 norms of the dyadic kernel blocks with fitted envelope C 2^(j g1) e^(-c (t-s) 2^(j g2)).

    The decay rate c is pinned by regressing log(measured / 2^(j g1)) against
    (t-s) 2^(j g2); C is then the smallest constant covering every block, so
    all rows sit under the envelope by construction.  The low-j growth slope
    (log2 measured per unit j, over blocks with (t-s) 2^((j+1) g2) at most
    1/32, where the decay factor is still near 1) estimates g1.
    """
    js = sorted(int(j) for j in j_range)
    if not js:
        raise ValueError("empty j range")
    if D.grid != grid:
        raise ValueError("decomposition and kernel grids do not match")
    if js[0] < D.j_min or js[-1] > D.j_max:
        raise ValueError(f"j range {js[0]}..{js[-1]} outside active range "
                         f"[{D.j_min}, {D.j_max}]")
    mult = multiplier_values(psi2, s, t, grid, pre=(psi1, l))
    g1, g2 = psi1.gamma, psi2.gamma
    # the Riemann-sum L1 norm of each block's kernel, as lp_norm(., 1) sums it
    measured = {j: float(np.abs(_kernel(grid, mult * block_multiplier(D, j))).sum()
                         * grid.cell_measure) for j in js}
    usable = [j for j in js if measured[j] > _UNDERFLOW]
    if len(usable) < 2:
        raise AuditError("fewer than two blocks above underflow; shrink j range")
    w = np.array([(t - s) * 2.0 ** (j * g2) for j in usable])
    z = np.array([math.log(measured[j]) - j * g1 * math.log(2.0) for j in usable])
    slope = np.polyfit(w, z, 1)[0]
    c = max(-float(slope), 0.0)
    logC = float((z + c * w).max())
    C = math.exp(logC)
    rows = []
    for j in js:
        env = C * 2.0 ** (j * g1) * math.exp(-c * (t - s) * 2.0 ** (j * g2))
        slack = env / measured[j] if measured[j] > 0 else float("inf")
        rows.append(EnvelopeRow(j, measured[j], env, slack))
    low = [j for j in usable if (t - s) * 2.0 ** ((j + 1) * g2) <= 1.0 / 32.0]
    low_slope = None
    if len(low) >= 2:
        low_slope = float(np.polyfit(low, [math.log2(measured[j]) for j in low], 1)[0])
    return EnvelopeReport(rows, C, c, low_slope)


def pv_normalization(d: int, eta: float) -> float:
    """Constant C(eta) making the principal-value form match the |xi|^eta multiplier."""
    return (2.0**eta * float(gamma_fn((d + eta) / 2.0))
            / (np.pi ** (d / 2.0) * abs(float(gamma_fn(-eta / 2.0)))))


def _tail_diff_sum(u, v, s):
    """sum_{j>=0} (u+j)^(-s) - (v+j)^(-s), elementwise, via Euler-Maclaurin
    after 64 direct terms.

    The individual sums diverge for s <= 1; the difference converges like
    j^(-1-s) and is what the periodized kernel masses need.
    """
    terms = 64
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
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


def _folded_cell_masses(lo_edge, hi_edge, period: float, eta: float):
    """Cell masses of the 2L-periodized kernel |y|^(-1-eta) over [lo, hi] cells.

    Direct piece plus the images y + 2Lj (j >= 1) and 2Lj - y (j >= 1), so
    the lattice convolution reproduces the whole-line integral against the
    periodic extension of the field.
    """
    base = (lo_edge**-eta - hi_edge**-eta) / eta
    a, b = lo_edge / period, hi_edge / period
    plus = _tail_diff_sum(1.0 + a, 1.0 + b, eta)
    minus = _tail_diff_sum(1.0 - b, 1.0 - a, eta)
    return base + period**-eta * (plus + minus) / eta


def fractional_laplacian_pv(f: Field, eta: float) -> Field:
    """Principal-value form of -(-Laplacian)^(eta/2) f in one dimension.

    Evaluates C(eta) * int_0^inf (f(x+y) + f(x-y) - 2 f(x)) y^(-1-eta) dy as
    one Fourier multiplier built from two pieces:

    * the near range (0, 1], by Gauss-Legendre with 8 nodes on each of 48
      dyadic panels, where the symmetric difference tames the singularity.
      The exact trigonometric interpolation of the shifted samples makes node y
      contribute -4 sin^2(y xi / 2), so the nodes add, in node order, into
      one real multiplier -4 sum_k c_k sin^2(y_k xi / 2);
    * the far range [1, L], by product integration over lattice shifts
      with cell-exact masses of the periodized kernel, which accounts for the
      whole-line tail exactly against the periodic extension of the input.
      That circular convolution minus the masses' total times f is the
      multiplier fft(cell masses) - sum(cell masses).

    The image-kernel contribution on the near range is omitted; it is bounded
    by sup|f''| * zeta(1+eta) * (2L)^(-1-eta), far below the quadrature
    tolerances for sane grids.  The split at y = 1 needs spacing <= 1 <= L/4.
    A real f gives the real part of the result.
    """
    if not (0.0 < eta < 2.0):
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    if f.grid.dim != 1:
        raise ValueError("principal-value route is implemented for d = 1")
    grid = f.grid
    h = grid.spacing
    if not (h <= 1.0 <= grid.half_extent / 4.0):
        raise ValueError(f"grid must have spacing <= 1 <= L/4 for the split at y = 1, "
                         f"got spacing {h} and L/4 = {grid.half_extent / 4.0}")

    # split point y = 1 aligned with a lattice cell edge (m0 - 1/2) h
    m0 = round(1.0 / h)
    edge0 = (m0 - 0.5) * h

    # near range (0, edge0]: symmetric difference on dyadic panels
    ys, ws = _dyadic_panels([edge0 * 2.0 ** (-k) for k in range(48, -1, -1)], 8)
    cs = ws * ys ** (-1.0 - eta)

    # far range [edge0, L]: cell-exact periodized kernel masses on lattice shifts
    r = np.abs(grid.x_axis())
    active = r >= m0 * h - 0.25 * h
    lo_edge = np.where(active, np.maximum(r - 0.5 * h, edge0), 1.0)
    hi_edge = np.where(active, np.minimum(r + 0.5 * h, grid.half_extent), 2.0)
    cell = np.where(active, _folded_cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta), 0.0)

    def mult(half):
        # both ranges are even in xi; the cell masses are real and even in x,
        # so the far range's exact transform is real, its own Hermitian part
        at = _lattice(grid, half)
        xi = grid.freq_axis()[at]
        near = np.zeros(xi.size)
        for y, c in zip(ys, cs):
            near += c * np.sin(0.5 * y * xi) ** 2
        far = (np.fft.fft(np.fft.ifftshift(cell)) - cell.sum())[at]
        return pv_normalization(1, eta) * ((far.real if half else far) - 4.0 * near)

    return _multiply(f, mult)
