"""Numerical audits of kernel decay, regularity, and the singular-integral
smoothness hypothesis, plus a principal-value cross-check of the fractional
Laplacian.

All kernels here are convolution kernels of psi1(l,.) T_psi2(t, s) in the
normalization of :func:`speclp.evolution.kernel_field`; their gradients are
materialized spectrally as i xi_k * multiplier.  A kernel, its blocks and
its gradient are real, and synthesized on the ``rfftn`` half lattice as
float64, exactly when the multiplier passes the Hermitian test of
:func:`speclp.evolution._kernel_multiplier`; any other multiplier keeps the
complex route on the whole lattice.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import AuditError
from .evolution import KERNEL_SCALE, _dyadic_panels, _kernel, _kernel_multiplier
from .gfunction import TimeWindow, _accumulate, _check_window, _node_fields
from .lp_decomp import DyadicDecomposition, _dyadic
from .spectral import Field, GridSpec, _centre, _fft, _frozen, _lattice, _multiply, _two_pi_pow
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
# the principal-value near range: dyadic panels and Gauss-Legendre nodes on each
_PV_PANELS, _PV_NODES = 48, 8
# near-range panels whose largest argument u = y xi_max / 2 is at most
# _MOMENT_ARG are summed by the first _MOMENT_TERMS terms of the series of
# sin^2(u); the first omitted term is then u^6 / 315 < 2.4e-18 of the first,
# below 2^-53
_MOMENT_ARG = 3e-3
_MOMENT_TERMS = 3
# direct terms of each image sum before its Euler-Maclaurin tail, and the
# tail's coefficients B_2k / (2k)!, k = 1..6 (DLMF 24.2.1)
_TAIL_TERMS = 8
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)


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

    A Hermitian multiplier m gives real components: the real part of each
    derivative, synthesized on the half lattice from the Hermitian part of
    i xi_k m.  That is i xi_k m except on axis k's self-paired Nyquist plane,
    where it is 0 (the rule of :func:`speclp.spectral._shift_phase`).  Any
    other m gives complex components on the whole lattice.
    """
    mult, half = _kernel_multiplier(psi2, s, t, grid, (psi1, l))
    comps = []
    for k, m in enumerate(mult.shape):
        deriv = 1j * grid.freq_axis()[:m]
        if half:
            deriv[grid.n // 2] = 0.0  # the self-paired index
        deriv = deriv.reshape((-1,) + (1,) * (grid.dim - 1 - k))
        comps.append(Field(grid, _kernel(grid, deriv * mult, half)))
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
    if r_lo <= 0.0:
        raise AuditError(f"fit window must start at a positive radius, got r_lo={r_lo}")
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
    index roll for lattice y, else the multilinear blend of the neighbouring
    rolls (:func:`_shift_stencil`).  Each chunk of node kernels is materialized
    once and reused across the y list, which may hold any number of shifts:
    each H(y) is the same as from a call with that y alone.  Every y must
    have ``grid.dim`` components and |y| below L/2.  How many octaves a
    trend fit needs is the HORMANDER scenario's rule, not this function's.

    No roll allocates: each roll's index blocks (:func:`_roll_blocks`) are
    built once per call, and K(x - y) - K(x) is written block by block into
    one difference buffer (plus one for a blend's taps) allocated for the
    first chunk and reused for every node and shift; a blend keeps the
    order w0 K(x - y0), + wt K(x - yt), - K(x).  The q-th powers go through
    :func:`speclp.gfunction._accumulate`, which squares a real difference in
    place at q = 2, and twice at q = 4.
    """
    _check_window(psi1, psi2, window, q)
    if s != window.s:
        raise ValueError(f"s={s} does not match window s={window.s}")
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_list]
    if not ys:
        raise ValueError("empty y list")
    mags = [float(np.linalg.norm(y)) for y in ys]
    for y, m in zip(ys, mags):
        if y.shape != (grid.dim,):
            raise ValueError(f"shift vector must have length {grid.dim}")
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
        a **= 1.0 / q
        V = _centre(a)
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
    (t-s) 2^(j g2); C is then the largest L1 norm over envelope factor
    among the blocks above underflow (L1 norm > 1e-280), raised past the
    round-off of the envelope's products (an ulp or two, so within an ulp of
    the smallest covering constant): each such row sits under its envelope
    as the rows report it, with slack >= 1.  A block above underflow whose
    factor 2^(j g1) e^(-c (t-s) 2^(j g2)) falls below the normal float range
    raises AuditError.  The low-j growth slope (log2 measured per unit j,
    over blocks with (t-s) 2^((j+1) g2) at most 1/32, where the decay factor
    is still near 1) estimates g1.

    The blocks' lattice arrays (two cutoffs, each evaluated once per scale,
    the product and the kernel samples) are buffers held for the call, so
    its peak memory does not grow with the number of blocks.
    """
    js = sorted(int(j) for j in j_range)
    if not js:
        raise ValueError("empty j range")
    if D.grid != grid:
        raise ValueError("decomposition and kernel grids do not match")
    if js[0] < D.j_min or js[-1] > D.j_max:
        raise ValueError(f"j range {js[0]}..{js[-1]} outside active range "
                         f"[{D.j_min}, {D.j_max}]")
    mult, half = _kernel_multiplier(psi2, s, t, grid, (psi1, l))
    mult = mult.copy()  # the lattice it was cut from is not held for the call
    g1, g2 = psi1.gamma, psi2.gamma
    # the Riemann-sum L1 norm of each block's kernel, as lp_norm(., 1) sums it;
    # the bumps (each cutoff evaluated once per scale), the product (complex:
    # the synthesis transforms it in place) and the kernel samples live in
    # buffers held for the call, and a real kernel takes abs in place
    product = np.empty(mult.shape, dtype=complex)
    samples = np.empty(grid.shape, dtype=float if half else complex)

    def l1_norm(bump):
        K = _kernel(grid, np.multiply(mult, bump, out=product), half, samples)
        return float(np.abs(K, out=K if half else None).sum() * grid.cell_measure)

    bumps = _dyadic(grid.xi_norm()[_lattice(grid, half)], js)
    measured = {j: l1_norm(bump) for j, bump in zip(js, bumps)}
    usable = [j for j in js if measured[j] > _UNDERFLOW]
    if len(usable) < 2:
        raise AuditError("fewer than two blocks above underflow; shrink j range")
    w = np.array([(t - s) * 2.0 ** (j * g2) for j in usable])
    z = np.array([math.log(measured[j]) - j * g1 * math.log(2.0) for j in usable])
    slope = np.polyfit(w, z, 1)[0]
    c = max(-float(slope), 0.0)

    def envelope(C, j):
        return C * 2.0 ** (j * g1) * math.exp(-c * (t - s) * 2.0 ** (j * g2))

    # C starts at the largest measured[j] / envelope(1, j) and rises an ulp at
    # a time until envelope's two rounded products cover every usable row; a
    # factor below the normal range would leave that quotient, and so the
    # number of steps, unbounded
    factor = {j: envelope(1.0, j) for j in usable}
    for j in usable:
        if factor[j] < sys.float_info.min:
            raise AuditError(f"envelope factor of block j={j} underflows at rate c = {c:g}")
    C = max(measured[j] / factor[j] for j in usable)
    while any(envelope(C, j) < measured[j] for j in usable):
        C = math.nextafter(C, math.inf)
    rows = []
    for j in js:
        env = envelope(C, j)
        slack = env / measured[j] if measured[j] > 0 else float("inf")
        rows.append(EnvelopeRow(j, measured[j], env, slack))
    low = [j for j in usable if (t - s) * 2.0 ** ((j + 1) * g2) <= 1.0 / 32.0]
    low_slope = None
    if len(low) >= 2:
        low_slope = float(np.polyfit(low, [math.log2(measured[j]) for j in low], 1)[0])
    return EnvelopeReport(rows, C, c, low_slope)


def pv_normalization(d: int, eta: float) -> float:
    """Constant C(eta) making the principal-value form match the |xi|^eta multiplier."""
    if not (0.0 < eta < 2.0):
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    return (2.0**eta * math.gamma((d + eta) / 2.0)
            / (np.pi ** (d / 2.0) * abs(math.gamma(-eta / 2.0))))


def _power_diff(u, lg, p):
    """u^(-p) - (u + delta)^(-p) from lg = log1p(delta / u), as
    u^(-p) (-expm1(-p lg)): no two powers that nearly cancel are subtracted,
    so the difference keeps the relative accuracy of its inputs however small
    delta / u is."""
    return u**-p * -np.expm1(-p * lg)


def _tail_diff_sums(x, logs, s):
    """sum_{j>=0} (x+j)^(-s) - (x+delta+j)^(-s), elementwise, by
    :data:`_TAIL_TERMS` direct terms and Euler-Maclaurin through B12
    (DLMF 2.10.1) for the rest, from the rows ``logs`` of :func:`_cell_logs`
    for x and delta.

    The sums are Hurwitz zeta differences zeta(s, x) - zeta(s, x + delta)
    (DLMF 25.11.1; digamma at s = 1).  The individual sums diverge for
    s <= 1; the difference converges like j^(-1-s) and is what the
    periodized kernel masses need.  Every term is a difference formed from
    delta by :func:`_power_diff`: the direct terms, the integral of the
    remainder and each Euler-Maclaurin correction.  On criterion 11's grids
    the result is within 5e-15 of the exact difference, relative.
    """
    direct = 0.0
    for j in range(_TAIL_TERMS):
        direct = direct + _power_diff(x + j, logs[j], s)
    a = x + _TAIL_TERMS
    lg = logs[_TAIL_TERMS]
    # int_a^(a + delta) y^(-s) dy
    integral = lg if abs(s - 1.0) < 1e-12 else _power_diff(a, lg, s - 1.0) / (s - 1.0)
    # f(a)/2 - sum_k B_2k/(2k)! f^(2k-1)(a) for f(y) = y^(-s), whose
    # derivative f^(2k-1) is -s (s+1) ... (s+2k-2) y^(-s-2k+1)
    ends = 0.5 * _power_diff(a, lg, s)
    rising = s
    for k, b in enumerate(_BERNOULLI):
        ends += b * rising * _power_diff(a, lg, s + 2 * k + 1)
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
    return direct + integral + ends


def _cell_logs(edges, period: float) -> np.ndarray:
    """The exponent-free logarithms of :func:`_folded_cell_masses` on the
    cells [edges[i], edges[i + 1]], one row each: log1p(width / lo) of the
    direct piece, then for the image sums at x = 1 + lo / period and
    x = 1 - hi / period in turn the rows log1p(delta / (x + j)),
    delta = width / period, of :func:`_tail_diff_sums`' direct terms
    j < :data:`_TAIL_TERMS` and of its Euler-Maclaurin point
    j = :data:`_TAIL_TERMS`."""
    lo, hi, width = edges[:-1], edges[1:], np.diff(edges)
    delta = width / period
    logs = np.empty((3 + 2 * _TAIL_TERMS, lo.size))  # filled in place: no list of rows beside it
    rows = iter(logs)
    np.log1p(width / lo, out=next(rows))
    for x in (1.0 + lo / period, 1.0 - hi / period):
        for j in range(_TAIL_TERMS + 1):
            np.log1p(delta / (x + j), out=next(rows))
    return logs


def _folded_cell_masses(plan: _PVPlan, eta: float):
    """Masses of the 2L-periodized kernel |y|^(-1-eta) over the far range's
    cells [edges[i], edges[i + 1]] of ``plan``.

    Direct piece plus the images y + 2Lj (j >= 1) and 2Lj - y (j >= 1), so
    the lattice convolution reproduces the whole-line integral against the
    periodic extension of the field.  Each piece is a difference between a
    cell's two edges, formed from the cell's width without cancellation
    (:func:`_power_diff`), so no rounding of an edge's image point
    1 +- edge / period enters it.  The logarithms come from the plan
    (:func:`_cell_logs`); the powers and ``expm1`` are computed here.
    """
    lo, hi, period, logs = plan.edges[:-1], plan.edges[1:], plan.period, plan.logs
    base = _power_diff(lo, logs[0], eta) / eta
    plus = _tail_diff_sums(1.0 + lo / period, logs[1:_TAIL_TERMS + 2], eta)
    minus = _tail_diff_sums(1.0 - hi / period, logs[_TAIL_TERMS + 2:], eta)
    return base + period**-eta * (plus + minus) / eta


def _near_nodes(grid: GridSpec):
    """The principal-value near range's Gauss-Legendre nodes y_k and weights,
    panel by panel from the bottom: :data:`_PV_NODES` on each of
    :data:`_PV_PANELS` dyadic panels of (0, (m0 - 1/2) h], m0 = round(1/h),
    the split at y = 1 aligned with a lattice cell edge.  Also the number of
    leading nodes whose panels the moment series sums: the panels whose
    largest argument y xi_max / 2 is at most :data:`_MOMENT_ARG`."""
    edge0 = (round(1.0 / grid.spacing) - 0.5) * grid.spacing
    ys, ws = _dyadic_panels([edge0 * 2.0 ** (-k) for k in range(_PV_PANELS, -1, -1)],
                            _PV_NODES)
    top = 0.5 * np.abs(grid.freq_axis()).max() * ys[_PV_NODES - 1::_PV_NODES]
    return ys, ws, _PV_NODES * int(np.searchsorted(top, _MOMENT_ARG, side="right"))


def _sin2_tables(theta, size: int):
    """The exponent-free factors of :func:`_sin2_sums` for the angles
    ``theta`` on m = 0..size - 1: the sines and cosines SA, CA of theta B a,
    and the right factor [CB^2, SB CB, SB^2] of the sines and cosines SB, CB
    of theta b, for m = B a + b and B = ceil(sqrt(size)).  Each node calls sin
    and cos on 2 (A + B) arguments instead of sin on ``size``."""
    B = math.isqrt(size - 1) + 1
    A = -(-size // B)
    ua = theta[:, None] * (B * np.arange(A))
    ub = theta[:, None] * np.arange(B)
    sa, ca, sb, cb = np.sin(ua), np.cos(ua), np.sin(ub), np.cos(ub)
    return sa, ca, np.concatenate([cb * cb, sb * cb, sb * sb])


class _PVPlan(NamedTuple):
    """The part of :func:`fractional_laplacian_pv` that depends on the grid
    only, built once per grid by :func:`_pv_plan`: every array is read-only,
    and nothing in it depends on eta or on the input."""

    ys: np.ndarray  # near-range nodes (:func:`_near_nodes`)
    ws: np.ndarray  # and their weights
    deep: int  # leading nodes summed by moments
    xi: np.ndarray  # the half lattice's frequencies m pi / L, m = 0..n/2
    sa: np.ndarray  # :func:`_sin2_tables` of the other nodes
    ca: np.ndarray
    right: np.ndarray
    edges: np.ndarray  # far-range cell edges (m - 1/2) h, m = m0..n/2, and L
    period: float  # 2L
    logs: np.ndarray  # :func:`_cell_logs` of the edges

    def arrays(self) -> list:
        return [a for a in self if isinstance(a, np.ndarray)]


@lru_cache(maxsize=4)
def _pv_plan(grid: GridSpec) -> _PVPlan:
    """The principal-value route's geometry of ``grid``, cached for the
    grid's later calls, the way FFTW splits a plan from its execution
    (Frigo & Johnson, Proc. IEEE 93(2), 2005); at most four grids are held.
    ValueError for a grid the route does not
    take: d != 1, or no split at y = 1 with spacing <= 1 <= L/4.
    """
    if grid.dim != 1:
        raise ValueError("principal-value route is implemented for d = 1")
    h = grid.spacing
    if not (h <= 1.0 <= grid.half_extent / 4.0):
        raise ValueError(f"grid must have spacing <= 1 <= L/4 for the split at y = 1, "
                         f"got spacing {h} and L/4 = {grid.half_extent / 4.0}")
    ys, ws, deep = _near_nodes(grid)
    xi = grid.freq_axis()[_lattice(grid, True)].copy()  # not a view of the whole axis
    # far range [(m0 - 1/2) h, L]: cells [(m - 1/2) h, (m + 1/2) h] around the
    # lattice shifts m h, m = m0..n/2, cut at L
    edges = np.append((np.arange(round(1.0 / h), grid.n // 2 + 1) - 0.5) * h, grid.half_extent)
    period = 2.0 * grid.half_extent
    plan = _PVPlan(ys, ws, deep, xi, *_sin2_tables(0.5 * grid.min_freq * ys[deep:], xi.size),
                   edges, period, _cell_logs(edges, period))
    for a in plan.arrays():
        _frozen(a)
    return plan


def _pv_geometry(grid: GridSpec) -> dict:
    """The quadrature :func:`fractional_laplacian_pv` runs on ``grid``, read
    from its cached plan: its near-range panels summed by moments and node
    by node, the nodes per panel and series terms, the image sums' direct
    terms and highest Euler-Maclaurin Bernoulli index, and the bytes the
    plan holds."""
    plan = _pv_plan(grid)
    moment = plan.deep // _PV_NODES
    return {"moment_panels": moment, "direct_panels": _PV_PANELS - moment,
            "nodes_per_panel": _PV_NODES, "series_terms": _MOMENT_TERMS,
            "tail_direct_terms": _TAIL_TERMS,
            "tail_euler_maclaurin": f"B{2 * len(_BERNOULLI)}",
            "geometry_bytes": sum(a.nbytes for a in plan.arrays())}


def _moment_sums(y, c, xi):
    """sum_k c_k sin^2(y_k xi / 2) for nodes whose arguments y_k xi / 2 stay
    at most :data:`_MOMENT_ARG`: the moments M_2j = sum_k c_k y_k^(2j) weight
    the first :data:`_MOMENT_TERMS` terms of the series
    sin^2(u) = sum_j (-1)^(j+1) (2u)^(2j) / (2 (2j)!), Horner in xi^2."""
    y2, xi2 = y * y, xi * xi
    out = np.zeros(xi.size)
    for j in range(_MOMENT_TERMS, 0, -1):
        coef = (-1) ** (j + 1) * float(c @ y2**j) / (2.0 * math.factorial(2 * j))
        out = (out + coef) * xi2
    return out


def _sin2_sums(plan: _PVPlan, c):
    """sum_k c_k sin^2(theta_k m) for the plan's direct nodes and m = 0..n/2,
    by angle addition: sin(theta m) is SA[a] CB[b] + CA[a] SB[b] for
    m = B a + b (:func:`_sin2_tables`).

    The sum is one contraction over k of the rows [c SA^2, 2 c SA CA, c CA^2]
    against [CB^2, SB CB, SB^2]; below theta m = pi/2 every term is
    non-negative, so small arguments lose nothing to cancellation, as the
    cos(2 theta m) form would.  The contraction is numpy's own einsum, whose
    reduction runs in a fixed order: a BLAS product would make the bits
    depend on its thread count.
    """
    sa, ca, c = plan.sa, plan.ca, c[:, None]
    left = np.concatenate([c * sa * sa, 2.0 * c * sa * ca, c * ca * ca])
    return np.einsum("ka,kb->ab", left, plan.right, optimize=False).reshape(-1)[:plan.xi.size]


def fractional_laplacian_pv(f: Field, eta: float) -> Field:
    """Principal-value form of -(-Laplacian)^(eta/2) f in one dimension.

    Evaluates C(eta) * int_0^inf (f(x+y) + f(x-y) - 2 f(x)) y^(-1-eta) dy as
    one Fourier multiplier built from two pieces, both real and even in xi,
    so both are computed on the half lattice xi_m = m pi / L, m = 0..n/2:

    * the near range (0, 1], by Gauss-Legendre with 8 nodes on each of 48
      dyadic panels, where the symmetric difference tames the singularity.
      The exact trigonometric interpolation of the shifted samples makes node y
      contribute -4 sin^2(y xi / 2), so the nodes add into one real
      multiplier -4 sum_k c_k sin^2(y_k xi / 2).  The deep panels, those whose
      largest argument y xi / 2 stays at most :data:`_MOMENT_ARG`, are
      summed in closed form from their moments (:func:`_moment_sums`), whose
      first omitted series term is below 2^-53 of the first there.  The
      other panels' sines come from small tables by angle addition on the
      lattice's index m = B a + b, and their sum is one fixed-order
      contraction (:func:`_sin2_sums`);
    * the far range [1, L], by product integration over lattice shifts
      with cell masses of the periodized kernel, which account for the
      whole-line tail against the periodic extension of the input: each
      image sum is a Hurwitz zeta difference, summed directly over its first
      terms and by Euler-Maclaurin through B12 beyond them
      (:func:`_tail_diff_sums`), and every difference between a cell's edges
      is formed without cancellation.  That circular convolution minus the
      masses' total times f is the multiplier fft(cell masses) - sum(cell
      masses).  The masses are real and even in x, so that transform is
      real: the half lattice's is the real part of one half-spectrum step
      :func:`speclp.spectral._fft`, an ``rfft`` in one dimension.  The masses
      depend on the shift's length m h only, and are computed once for each
      m.

    The whole lattice, for complex f, mirrors the half lattice.  The
    image-kernel contribution on the near range is omitted; it is bounded
    by sup|f''| * zeta(1+eta) * (2L)^(-1-eta), far below the quadrature
    tolerances for sane grids.  The split at y = 1 needs spacing <= 1 <= L/4.
    A real f gives the real part of the result.

    What depends on the grid only is built on a grid's first call and
    cached (:func:`_pv_plan`): the near-range nodes, weights and half-lattice
    frequencies, the sine and cosine tables with the contraction's right
    factor, and the far range's cell edges with every ``log1p`` of the cell
    masses.  Each call computes the rest for its eta: the weights' powers,
    the moments, the contraction's left factor and the contraction, the
    masses' powers and ``expm1``, their ``rfft``, and the multiply by f.
    Nothing that depends on eta or f outlives the call, and the output has
    the bits of a call on a cold cache.
    """
    norm = pv_normalization(1, eta)
    plan = _pv_plan(f.grid)
    cs = plan.ws * plan.ys ** (-1.0 - eta)
    near = _moment_sums(plan.ys[:plan.deep], cs[:plan.deep], plan.xi)
    near += _sin2_sums(plan, cs[plan.deep:])

    # far range: periodized kernel masses on the lattice shifts m h, m = m0..n/2
    half_n = f.grid.n // 2
    masses = np.zeros(half_n + 1)
    masses[round(1.0 / f.grid.spacing):] = _folded_cell_masses(plan, eta)
    cell = masses[np.abs(np.arange(f.grid.n) - half_n)]
    far = _fft(cell, half=True).real - cell.sum()
    half_mult = norm * (far - 4.0 * near)

    # the whole lattice in fft order mirrors the half lattice's 1..n/2 - 1
    return _multiply(f, lambda half: half_mult if half
                     else np.concatenate([half_mult, half_mult[-2:0:-1]]))
