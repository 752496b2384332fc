"""End-to-end verification suite.

Each criterion is a standalone function returning a :class:`CriterionResult`
with the measured quantities frozen into ``details``.  The pytest suite and
the ``speclp reproduce`` command both run exactly these functions, so there
is a single source of truth for what "passing" means.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .corpus import generate_corpus
from .evolution import TimeIntegralRule, apply_evolution, build_multiplier, kernel_field, verify_composition
from .gfunction import INF, build_time_window, explicit_q2_constant, g_function
from .kernel_audit import (decay_fit_time, dyadic_l1_envelope, fractional_laplacian_pv,
                           hormander_report)
from .lp_decomp import block, build_decomposition, bump_profile, low_part
from .spectral import (Field, GridSpec, SpectralField, forward_transform, inverse_transform,
                       lp_norm, refine_field)
from .symbols import get_symbol

__all__ = ["CriterionResult", "CRITERIA", "run_all"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: Dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0


def _grid1(n: int, L: float) -> GridSpec:
    return GridSpec(1, n, L)


def _window_inf(grid: GridSpec, q: float, psi1, psi2, n_nodes: int = 16):
    return build_time_window(0.0, INF, q, psi1.gamma, psi2.gamma, n_nodes=n_nodes,
                             kappa2=psi2.kappa, xi_min=grid.min_freq, xi_max=grid.nyquist)


def _ratios(fields, psi1, psi2, window, q=2.0, ps=(2.0,), l=0.0):
    """Per-field ratios ||G(f)||_p / ||f||_p for each p in ps, one G per field."""
    out = {p: [] for p in ps}
    for f in fields:
        G = g_function(f, psi1, l, psi2, window, q)
        for p in ps:
            out[p].append(lp_norm(G, p) / lp_norm(f, p))
    return out


def criterion_1_exact_q2_constant() -> CriterionResult:
    """Heat pair, q=2, infinite window: every ratio 0.500 within 1e-3 and
    the squared norm under the closed-form bound; wall time below 30 s."""
    t0 = time.perf_counter()
    grid = _grid1(1024, 32.0)
    heat = get_symbol("heat")
    entries = generate_corpus(101, grid, "GAUSSIAN_MIX", 16, mean_removed=True)
    window = _window_inf(grid, 2.0, heat, heat)
    bound = explicit_q2_constant(1.0, 1.0, 2.0, 2.0)
    worst_ratio_err, worst_bound_excess = 0.0, -math.inf
    for e in entries:
        G = g_function(e.field, heat, 0.0, heat, window, 2.0)
        r = lp_norm(G, 2) / lp_norm(e.field, 2)
        worst_ratio_err = max(worst_ratio_err, abs(r - 0.5))
        worst_bound_excess = max(worst_bound_excess, r**2 - bound * (1.0 + 1e-3))
    dt = time.perf_counter() - t0
    passed = worst_ratio_err <= 1e-3 and worst_bound_excess <= 0.0 and dt < 30.0
    return CriterionResult(1, "exact q=2 square-function constant (heat pair)", passed,
                           {"worst_ratio_err": worst_ratio_err,
                            "explicit_constant": bound,
                            "worst_bound_excess": worst_bound_excess,
                            "runtime_s": dt}, dt)


def criterion_2_poisson_cases() -> CriterionResult:
    """Poisson semigroup cases: first derivative ratio 0.5, second
    derivative ratio sqrt(6)/4, both within 1e-3."""
    t0 = time.perf_counter()
    grid = _grid1(1024, 32.0)
    poisson = get_symbol("poisson")
    power2 = get_symbol("power:2")  # |psi^2| for the second-derivative case
    entries = generate_corpus(102, grid, "GAUSSIAN_MIX", 8, mean_removed=True)
    fields = [e.field for e in entries]
    w1 = _window_inf(grid, 2.0, poisson, poisson)
    err1 = max(abs(r - 0.5) for r in _ratios(fields, poisson, poisson, w1)[2.0])
    w2 = _window_inf(grid, 2.0, power2, poisson)
    target2 = math.sqrt(6.0) / 4.0
    err2 = max(abs(r - target2) for r in _ratios(fields, power2, poisson, w2)[2.0])
    dt = time.perf_counter() - t0
    passed = err1 <= 1e-3 and err2 <= 1e-3
    return CriterionResult(2, "Poisson classical ratios (k=1, k=2)", passed,
                           {"k1_worst_err": err1, "k2_worst_err": err2,
                            "k2_target": target2}, dt)


def criterion_3_composition() -> CriterionResult:
    """Two-parameter composition law at the multiplier level."""
    t0 = time.perf_counter()
    grid = _grid1(1024, 32.0)
    worst_const = 0.0
    for name in ("heat", "poisson", "power:1.5"):
        sym = get_symbol(name)
        for s, r, t in ((0.0, 0.3, 1.0), (0.2, 0.7, 1.5), (0.5, 0.5, 1.2)):
            worst_const = max(worst_const, verify_composition(sym, s, r, t, grid))
    pt = get_symbol("power-t:2")
    rule = TimeIntegralRule.gauss_legendre(8, adaptive=False)
    worst_t = max(verify_composition(pt, s, r, t, grid, rule)
                  for s, r, t in ((0.0, 0.3, 1.0), (0.1, 0.8, 1.6)))
    dt = time.perf_counter() - t0
    passed = worst_const <= 1e-12 and worst_t <= 1e-10
    return CriterionResult(3, "evolution composition law", passed,
                           {"worst_time_constant": worst_const,
                            "worst_time_dependent": worst_t}, dt)


def criterion_4_closed_form_kernels() -> CriterionResult:
    """Heat and Poisson kernels reproduced to 1e-6 sup norm on |x| <= L/2."""
    t0 = time.perf_counter()
    gh = _grid1(1024, 32.0)
    x = gh.x_axis()
    K = kernel_field(None, get_symbol("heat"), 0.0, 1.0, gh)
    heat_err = float(np.abs(K.values.real - (4.0 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0))
                     [np.abs(x) <= gh.half_extent / 2].max())
    gp = _grid1(65536, 1024.0)
    xp = gp.x_axis()
    Kp = kernel_field(None, get_symbol("poisson"), 0.0, 1.0, gp)
    pois_err = float(np.abs(Kp.values.real - 1.0 / (np.pi * (1.0 + xp**2)))
                     [np.abs(xp) <= gp.half_extent / 2].max())
    dt = time.perf_counter() - t0
    passed = heat_err <= 1e-6 and pois_err <= 1e-6
    return CriterionResult(4, "closed-form heat and Poisson kernels", passed,
                           {"heat_sup_err": heat_err, "poisson_sup_err": pois_err}, dt)


def criterion_5_partition_orthogonality() -> CriterionResult:
    """Partition of unity to 1e-14, block orthogonality to 1e-12,
    reconstruction to 1e-10."""
    t0 = time.perf_counter()
    grid = _grid1(1024, 32.0)
    D = build_decomposition(grid)
    xi = grid.xi_norm()
    total = np.zeros(grid.shape)
    for j in D.j_range:
        total += bump_profile(xi * 2.0 ** (-j))
    part = float(np.abs(total[xi > 0] - 1.0).max())
    entries = generate_corpus(105, grid, "BANDLIMITED_RANDOM", 6, mean_removed=False)
    worst_orth, worst_rec = 0.0, 0.0
    for e in entries:
        f = e.field
        l2 = lp_norm(f, 2)
        for i, j in ((D.j_min, D.j_min + 2), (0, 2), (D.j_max - 2, D.j_max), (1, 4)):
            worst_orth = max(worst_orth, lp_norm(block(block(f, j, D), i, D), 2) / l2)
        rec = low_part(f, D).values.copy()
        for j in range(1, D.j_max + 1):
            rec += block(f, j, D).values
        worst_rec = max(worst_rec, float(np.linalg.norm(rec - f.values)
                                         / np.linalg.norm(f.values)))
    dt = time.perf_counter() - t0
    passed = part <= 1e-14 and worst_orth <= 1e-12 and worst_rec <= 1e-10
    return CriterionResult(5, "partition of unity / almost orthogonality / reconstruction",
                           passed, {"partition_defect": part, "worst_orthogonality": worst_orth,
                                    "worst_reconstruction": worst_rec}, dt)


def criterion_6_time_decay() -> CriterionResult:
    """Gradient-kernel sup decays with the exact scaling exponent, 2%."""
    t0 = time.perf_counter()
    grid = _grid1(4096, 64.0)
    heat, poisson = get_symbol("heat"), get_symbol("poisson")
    details = {}
    passed = True
    for tag, p1, p2 in (("heat_heat", heat, heat),
                        ("poisson_poisson", poisson, poisson),
                        ("poisson_heat", poisson, heat)):
        rep = decay_fit_time(p1, 0.0, p2, 0.0, grid, [0.5, 1.0, 2.0, 4.0])
        rel = abs(rep.fitted_exponent - rep.target_exponent) / abs(rep.target_exponent)
        details[f"{tag}_fitted"] = rep.fitted_exponent
        details[f"{tag}_target"] = rep.target_exponent
        details[f"{tag}_rel_err"] = rel
        passed = passed and rel <= 0.02
    dt = time.perf_counter() - t0
    return CriterionResult(6, "time-decay exponent of the gradient kernel", passed,
                           details, dt)


def criterion_7_hormander() -> CriterionResult:
    """Smoothness integral H(y) finite with flat log-log trend over 8 octaves."""
    t0 = time.perf_counter()
    grid = _grid1(32768, 32.0)
    heat = get_symbol("heat")
    window = build_time_window(0.0, INF, 2.0, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                               xi_min=grid.min_freq, xi_max=grid.nyquist)
    ys = [np.array([2.0**k]) for k in range(-6, 3)]
    rep = hormander_report(heat, 0.0, heat, 0.0, window, 2.0, ys, grid)
    dt = time.perf_counter() - t0
    passed = math.isfinite(rep.sup) and abs(rep.trend_slope) <= 0.1
    return CriterionResult(7, "smoothness (Hormander-type) integral uniform in y", passed,
                           {"sup": rep.sup, "trend_slope": rep.trend_slope}, dt)


def criterion_8_dyadic_envelope() -> CriterionResult:
    """Dyadic block L1 envelope fits with positive rate; low-j slope is the
    outer symbol order within 5%."""
    t0 = time.perf_counter()
    grid = _grid1(131072, 2048.0)
    heat = get_symbol("heat")
    D = build_decomposition(grid)
    rep = dyadic_l1_envelope(heat, 0.0, heat, 0.0, 1.0, range(-6, 6), grid, D)
    slope_err = abs(rep.low_j_slope - 2.0) / 2.0 if rep.low_j_slope is not None else math.inf
    dt = time.perf_counter() - t0
    passed = rep.rate > 0.0 and slope_err <= 0.05
    return CriterionResult(8, "dyadic block L1 envelope", passed,
                           {"rate": rep.rate, "constant": rep.constant,
                            "low_j_slope": rep.low_j_slope or math.nan,
                            "low_j_slope_rel_err": slope_err}, dt)


def criterion_9_scaling_identity() -> CriterionResult:
    """Time-dilation identity for homogeneous pairs at the field level, 1e-6."""
    t0 = time.perf_counter()
    grid = _grid1(1024, 32.0)
    entries = generate_corpus(109, grid, "GAUSSIAN_MIX", 4, mean_removed=True)
    worst = 0.0
    for name in ("heat", "poisson"):
        sym = get_symbol(name)
        for b in (2.0, 4.0):
            for e in entries[:2]:
                worst = max(worst, _scaling_identity_error(e.field, sym, sym, b,
                                                           s=0.3, t=0.7))
    dt = time.perf_counter() - t0
    return CriterionResult(9, "homogeneous time-dilation identity", worst <= 1e-6,
                           {"worst_rel_err": worst}, dt)


def _scaling_identity_error(f: Field, psi1, psi2, b: float, s: float, t: float) -> float:
    """Relative defect of the dilation identity for a homogeneous pair.

    Left side: composed operator at time b*t + s applied to f, sampled on
    the grid.  Right side: b^(-g1/g2) times the operator at time t (from 0)
    applied to the compressed field f_b(x) = f(b^(1/g2) x), evaluated at
    b^(-1/g2) x.  The compressed field lives on the grid with half extent
    L / b^(1/g2), where it has exactly the same sample values, so both sides
    land on the same sample indices.
    """
    grid = f.grid
    beta = b ** (1.0 / psi2.gamma)
    lhs = apply_evolution(f, build_multiplier(psi2, s, b * t + s, grid, pre=(psi1, 0.0)))
    grid_b = GridSpec(grid.dim, grid.n, grid.half_extent / beta)
    f_b = Field(grid_b, f.values)
    rhs_field = apply_evolution(f_b, build_multiplier(psi2, 0.0, t, grid_b, pre=(psi1, 0.0)))
    rhs = b ** (-psi1.gamma / psi2.gamma) * rhs_field.values
    scale = np.abs(lhs.values).max()
    return float(np.abs(lhs.values - rhs).max() / scale)


def criterion_10_ratio_stability() -> CriterionResult:
    """Finite-window ratio maxima move < 5% under grid refinement."""
    t0 = time.perf_counter()
    heat = get_symbol("heat")
    grid = _grid1(1024, 32.0)
    entries = generate_corpus(110, grid, "GAUSSIAN_MIX", 12, mean_removed=True)
    coarse = [e.field for e in entries]
    fine = [refine_field(f, 2) for f in coarse]  # same functions, doubled n
    details = {}
    passed = True
    for q, ps in ((2.0, (1.5, 3.0)), (4.0, (4.0,))):  # (p, q) pairs sharing a window
        window = build_time_window(0.0, 1.0, q, 2.0, 2.0, kappa2=1.0,
                                   xi_min=grid.min_freq, xi_max=grid.nyquist)
        r1 = _ratios(coarse, heat, heat, window, q=q, ps=ps)
        r2 = _ratios(fine, heat, heat, window, q=q, ps=ps)
        for p in ps:
            m1, m2 = max(r1[p]), max(r2[p])
            drift = abs(m2 - m1) / m1
            details[f"p{p}_q{q}_max"] = m1
            details[f"p{p}_q{q}_drift"] = drift
            passed = passed and drift < 0.05
    dt = time.perf_counter() - t0
    return CriterionResult(10, "ratio stability under refinement", passed, details, dt)


def criterion_11_fraclap_dual_route() -> CriterionResult:
    """Principal-value and multiplier fractional Laplacians agree to 1e-3."""
    t0 = time.perf_counter()
    grid = _grid1(16384, 256.0)
    x = grid.x_axis()
    f = Field(grid, np.exp(-(x**2) / 2.0))
    F = forward_transform(f)
    xi = grid.freq_axis()
    details = {}
    passed = True
    for eta in (0.5, 1.0, 1.5):
        A = inverse_transform(SpectralField(grid, -np.abs(xi) ** eta * F.coeffs))
        B = fractional_laplacian_pv(f, eta)
        rel = (math.sqrt(float((np.abs(A.values - B.values) ** 2).sum()))
               / math.sqrt(float((np.abs(A.values) ** 2).sum())))
        details[f"eta_{eta}_rel_l2"] = rel
        passed = passed and rel < 1e-3
    dt = time.perf_counter() - t0
    return CriterionResult(11, "fractional Laplacian dual route", passed, details, dt)


CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1_exact_q2_constant,
    criterion_2_poisson_cases,
    criterion_3_composition,
    criterion_4_closed_form_kernels,
    criterion_5_partition_orthogonality,
    criterion_6_time_decay,
    criterion_7_hormander,
    criterion_8_dyadic_envelope,
    criterion_9_scaling_identity,
    criterion_10_ratio_stability,
    criterion_11_fraclap_dual_route,
]


def run_all(echo: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if echo is not None:
            status = "PASS" if res.passed else "FAIL"
            echo(f"[{status}] criterion {res.cid}: {res.name} ({res.runtime_s:.1f}s)")
    return results
