"""Numerical audits of kernel decay, regularity, and the singular-integral
smoothness hypothesis, plus a principal-value cross-check of the fractional
Laplacian.

All kernels here are convolution kernels of psi1(l,.) T_psi2(t, s) in the
normalization of :func:`speclp.evolution.kernel_field`; their gradients are
materialized spectrally as i xi_k * multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from .errors import AuditError
from .evolution import KERNEL_SCALE, TimeIntegralRule, multiplier_values
from .gfunction import TimeWindow, _accumulate, _node_fields
from .lp_decomp import DyadicDecomposition, bump_profile
from .spectral import Field, GridSpec, SpectralField, forward_transform, inverse_transform, lp_norm
from .symbols import SymbolSpec

__all__ = [
    "DecayFitReport",
    "HormanderReport",
    "EnvelopeRow",
    "EnvelopeReport",
    "gradient_kernel",
    "decay_fit_space",
    "decay_fit_time",
    "hormander_integral",
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
                    s: float, t: float, grid: GridSpec,
                    rule: Optional[TimeIntegralRule] = None):
    """Gradient of the convolution kernel of psi1(l,.) T_psi2(t,s).

    Returns (components, magnitude): a list of d Fields with the partial
    derivatives (spectral multipliers i xi_k) and the pointwise Euclidean
    magnitude field.
    """
    mult = multiplier_values(psi2, s, t, grid, rule, pre=(psi1, l))
    xi = grid.xi_stack()
    scale = KERNEL_SCALE(grid.dim)
    comps = []
    for k in range(grid.dim):
        c = inverse_transform(SpectralField(grid, 1j * xi[k] * mult * scale))
        comps.append(c)
    mag = np.sqrt(sum(np.abs(c.values) ** 2 for c in comps))
    return comps, Field(grid, mag)


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def decay_fit_space(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                    s: float, t: float, grid: GridSpec,
                    fit_window: Optional[Tuple[float, float]] = None,
                    rule: Optional[TimeIntegralRule] = None) -> DecayFitReport:
    """Fit |grad K| ~ |x|^e on a tail window and bound it by C |x|^-(d+1+g1).

    fitted_constant is the smallest constant covering the window, so the
    pointwise excess against that envelope is zero by construction; the
    informative outputs are the fitted exponent and the constant itself
    (stable across t for self-similar kernels).
    """
    d = grid.dim
    r_lo, r_hi = fit_window if fit_window is not None else (1.0, grid.half_extent / 2.0)
    if r_hi / r_lo < 8.0:
        raise AuditError("fit window must span at least 3 octaves")
    _, mag = gradient_kernel(psi1, l, psi2, s, t, grid, rule)
    r = grid.x_norm().reshape(-1)
    v = np.abs(mag.values).reshape(-1)
    sel = (r >= r_lo) & (r <= r_hi) & (v > _UNDERFLOW)
    if sel.sum() < 8:
        raise AuditError("too few usable points in the fit window; enlarge the grid")
    target = -(d + 1.0 + psi1.gamma)
    fitted = _loglog_fit(r[sel], v[sel])
    const = float((v[sel] * r[sel] ** (d + 1.0 + psi1.gamma)).max())
    excess = float((v[sel] / (const * r[sel] ** target)).max() - 1.0)
    return DecayFitReport(fitted, target, (r_lo, r_hi), const, excess)


def decay_fit_time(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                   s: float, grid: GridSpec, t_list: Sequence[float],
                   rule: Optional[TimeIntegralRule] = None) -> DecayFitReport:
    """Fit sup_x |grad K(t, .)| ~ (t-s)^e against the target -(d+1+g1)/g2."""
    ts = np.asarray(sorted(t_list), dtype=float)
    if ts.size < 3 or (ts.max() - s) / (ts.min() - s) < 8.0:
        raise AuditError("t_list must span at least 3 octaves of t - s")
    sups = []
    for t in ts:
        _, mag = gradient_kernel(psi1, l, psi2, s, t, grid, rule)
        sups.append(np.abs(mag.values).max())
    sups = np.asarray(sups)
    d = grid.dim
    target = -(d + 1.0 + psi1.gamma) / psi2.gamma
    fitted = _loglog_fit(ts - s, sups)
    const = float((sups * (ts - s) ** (-target)).max())
    excess = float((sups / (const * (ts - s) ** target)).max() - 1.0)
    return DecayFitReport(fitted, target, (float(ts.min() - s), float(ts.max() - s)), const, excess)


def _lattice_shift(grid: GridSpec, y: np.ndarray) -> Optional[Tuple[int, ...]]:
    steps = y / grid.spacing
    rounded = np.rint(steps)
    if np.max(np.abs(steps - rounded)) < 1e-9:
        return tuple(int(m) for m in rounded)
    return None


def hormander_report(psi1: SymbolSpec, l: float, psi2: SymbolSpec, s: float,
                     window: TimeWindow, q: float, y_list, grid: GridSpec,
                     rule: Optional[TimeIntegralRule] = None) -> HormanderReport:
    """H(y) = int_{|x| >= 2|y|} ||K(., x-y) - K(., x)||_V dx for each y.

    ||.||_V is the windowed q-norm with the singular weight.  Shifts are
    exact: lattice-aligned y uses an index roll (the exact phase multiplier
    for lattice shifts), other y a spectral phase.  Each chunk of node
    kernels is materialized once and reused across the y list.
    """
    ys = [np.atleast_1d(np.asarray(y, dtype=float)) for y in y_list]
    if not ys:
        raise ValueError("empty y list")
    mags = [float(np.linalg.norm(y)) for y in ys]
    for y, m in zip(ys, mags):
        if m <= 0.0:
            raise ValueError("y must be nonzero")
        if grid.spacing > m / 8.0:
            raise AuditError(f"grid cannot resolve |y|={m}: spacing {grid.spacing} > |y|/8")
    if len(mags) >= 2 and max(mags) / min(mags) < 2.0**6:
        raise AuditError("y profile must span at least 6 octaves")
    shifts = [_lattice_shift(grid, y) for y in ys]
    xi = grid.xi_stack()
    phases = [None if sh is not None else np.exp(-1j * np.tensordot(y, xi, axes=(0, 0)))
              for y, sh in zip(ys, shifts)]
    scale = KERNEL_SCALE(grid.dim) * (2.0 * np.pi) ** (grid.dim / 2.0) / grid.cell_measure
    axes = tuple(range(1, grid.dim + 1))
    acc = [np.zeros(grid.shape) for _ in ys]
    off_lattice = any(sh is None for sh in shifts)
    for w, K in _node_fields(psi1, l, psi2, window, grid, rule):
        K *= scale  # kernels in fft order: origin at index 0
        spec = np.fft.fftn(K, axes=axes) if off_lattice else None
        for a, sh, phase in zip(acc, shifts, phases):
            if sh is not None:
                Ky = np.roll(K, sh, axis=axes)
            else:
                Ky = np.fft.ifftn(phase * spec, axes=axes)
            Ky -= K
            _accumulate(a, Ky, w, q)
    r = grid.x_norm()
    integrals = []
    for y_mag, a in zip(mags, acc):
        V = np.fft.fftshift(a) ** (1.0 / q)
        integrals.append(float((V * (r >= 2.0 * y_mag)).sum() * grid.cell_measure))
    slope = _loglog_fit(np.asarray(mags), np.maximum(np.asarray(integrals), _UNDERFLOW)) \
        if len(ys) >= 2 else float("nan")
    return HormanderReport(mags, integrals, max(integrals), slope)


def hormander_integral(psi1: SymbolSpec, l: float, psi2: SymbolSpec, s: float,
                       window: TimeWindow, q: float, y, grid: GridSpec,
                       rule: Optional[TimeIntegralRule] = None) -> float:
    return hormander_report(psi1, l, psi2, s, window, q, [y], grid, rule).integrals[0]


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
    gamma1: float


def dyadic_l1_envelope(psi1: SymbolSpec, l: float, psi2: SymbolSpec,
                       s: float, t: float, j_range: Sequence[int], grid: GridSpec,
                       D: DyadicDecomposition,
                       rule: Optional[TimeIntegralRule] = None,
                       low_j_threshold: float = 1.0 / 32.0) -> EnvelopeReport:
    """L1 norms of the dyadic kernel blocks with fitted envelope C 2^(j g1) e^(-c (t-s) 2^(j g2)).

    The decay rate c is pinned by regressing log(measured / 2^(j g1)) against
    (t-s) 2^(j g2); C is then the smallest constant covering every block, so
    all rows sit under the envelope by construction.  The low-j growth slope
    (log2 measured per unit j, over blocks with (t-s) 2^((j+1) g2) below
    ``low_j_threshold``) estimates g1.
    """
    js = sorted(int(j) for j in j_range)
    if not js:
        raise ValueError("empty j range")
    if js[0] < D.j_min or js[-1] > D.j_max:
        raise ValueError(f"j range {js[0]}..{js[-1]} outside active range "
                         f"[{D.j_min}, {D.j_max}]")
    mult = multiplier_values(psi2, s, t, grid, rule, pre=(psi1, l))
    xi_norm = grid.xi_norm()
    scale = KERNEL_SCALE(grid.dim)
    g1, g2 = psi1.gamma, psi2.gamma
    measured = {}
    for j in js:
        block = mult * bump_profile(xi_norm * 2.0 ** (-j)) * scale
        K = inverse_transform(SpectralField(grid, block))
        measured[j] = lp_norm(K, 1.0)
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
    low = [j for j in usable if (t - s) * 2.0 ** ((j + 1) * g2) <= low_j_threshold]
    low_slope = None
    if len(low) >= 2:
        low_slope = float(np.polyfit(low, [math.log2(measured[j]) for j in low], 1)[0])
    return EnvelopeReport(rows, C, c, low_slope, g1)


def pv_normalization(d: int, eta: float) -> float:
    """Constant C(eta) making the principal-value form match the |xi|^eta multiplier."""
    return (2.0**eta * float(gamma_fn((d + eta) / 2.0))
            / (np.pi ** (d / 2.0) * abs(float(gamma_fn(-eta / 2.0)))))


def _tail_diff_sum(u, v, s, terms: int = 64):
    """sum_{j>=0} (u+j)^(-s) - (v+j)^(-s), elementwise, via Euler-Maclaurin.

    The individual sums diverge for s <= 1; the difference converges like
    j^(-1-s) and is what the periodized kernel masses need.
    """
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


def fractional_laplacian_pv(f: Field, eta: float, quad: int = 48,
                            nodes_per_panel: int = 8, y_split: float = 1.0) -> Field:
    """Principal-value form of -(-Laplacian)^(eta/2) f in one dimension.

    Evaluates C(eta) * int_0^inf (f(x+y) + f(x-y) - 2 f(x)) y^(-1-eta) dy in
    three pieces: the near range (0, y_split] by Gauss-Legendre on ``quad``
    dyadic panels, where the symmetric difference tames the singularity and
    off-lattice shifts are evaluated by exact trigonometric interpolation;
    and the far range [y_split, L] by product integration over lattice
    shifts with cell-exact masses of the periodized kernel (one circular
    convolution), which accounts for the whole-line tail exactly against the
    periodic extension of the input.  The image-kernel contribution on the
    near range is omitted; it is bounded by sup|f''| * zeta(1+eta) *
    (2L)^(-1-eta), far below the quadrature tolerances for sane grids.  A
    real f gives the real part of the result.
    """
    if not (0.0 < eta < 2.0):
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    if f.grid.dim != 1:
        raise ValueError("principal-value route is implemented for d = 1")
    if quad < 8:
        raise ValueError("quad (panel count) must be at least 8")
    grid = f.grid
    h = grid.spacing
    if not (h <= y_split <= grid.half_extent / 4.0):
        raise ValueError("y_split must lie between one spacing and L/4")
    F = forward_transform(f)
    xi = grid.freq_axis()
    back = (2.0 * np.pi) ** 0.5 / grid.cell_measure

    # split point aligned with a lattice cell edge (m0 - 1/2) h
    m0 = max(1, round(y_split / h))
    edge0 = (m0 - 0.5) * h

    # near range (0, edge0]: symmetric difference on dyadic panels
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

    # far range [edge0, L]: cell-exact periodized kernel masses on lattice shifts
    x = grid.x_axis()
    r = np.abs(x)
    active = r >= m0 * h - 0.25 * h
    lo_edge = np.where(active, np.maximum(r - 0.5 * h, edge0), 1.0)
    hi_edge = np.where(active, np.minimum(r + 0.5 * h, grid.half_extent), 2.0)
    cell = np.where(active, _folded_cell_masses(lo_edge, hi_edge, 2.0 * grid.half_extent, eta), 0.0)
    conv = np.fft.ifft(np.fft.fft(np.fft.ifftshift(f.values)) * np.fft.fft(np.fft.ifftshift(cell)))
    smooth = np.fft.fftshift(conv) - cell.sum() * f.values

    out = pv_normalization(1, eta) * (acc + smooth)
    return Field(grid, out.real if np.isrealobj(f.values) else out)
