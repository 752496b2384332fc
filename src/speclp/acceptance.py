"""End-to-end verification suite.

Each criterion is a standalone function returning a :class:`CriterionResult`
with the measured quantities frozen into ``details``.  The pytest suite and
the ``speclp reproduce`` command both run exactly these functions, so there
is a single source of truth for what "passing" means.  A criterion is
written as a measure step ``() -> (passed, details)``; the :func:`_criterion`
decorator times it, builds the result and registers it in :data:`CRITERIA`.

A criterion with a scenario twin calls that scenario's measure step from
``harness._MEASURES`` on its config in :data:`TWINS`; a scenario step has the
same ``(passed, summary)`` shape, and the criterion keeps the summary or maps
it onto its detail keys: criteria 5, 7, 8 and 11 are LP_DECOMP, HORMANDER
(``sup`` and ``trend_slope``), DYADIC_ENVELOPE and FRACLAP_XCHECK, and
criterion 6 is KERNEL_DECAY's time fit for three pairs.  Criteria 1, 2 and
10 share GFUN_RATIO's per-field ratio routine and exact q = 2 target
(``gfunction._ratios``, ``gfunction._exact_ratio``); they are not GFUN_RATIO
configs, because that scenario adds a refinement pass and takes one p per
square function.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .corpus import generate_corpus
from .evolution import TimeIntegralRule, apply_evolution, build_multiplier, kernel_field, verify_composition
from .gfunction import _exact_ratio, _grid_window, _ratios, explicit_q2_constant
from .harness import _MEASURES, ScenarioConfig, _time_fit
from .spectral import Field, GridSpec, refine_field
from .symbols import get_symbol

__all__ = ["CriterionResult", "CRITERIA", "TWINS", "run_all"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: Dict[str, float] = field(default_factory=dict)
    runtime_s: float = 0.0


# the scenario config each criterion with a scenario twin runs
TWINS: Dict[int, ScenarioConfig] = {
    5: ScenarioConfig(scenario="LP_DECOMP", seed=105, corpus_kind="BANDLIMITED_RANDOM",
                      corpus_count=6),
    7: ScenarioConfig(scenario="HORMANDER", n=32768, L=32.0),
    8: ScenarioConfig(scenario="DYADIC_ENVELOPE", n=131072, L=2048.0),
    11: ScenarioConfig(scenario="FRACLAP_XCHECK", n=16384, L=256.0),
}

# the criteria in order, each registered by _criterion
CRITERIA: List[Callable[[], CriterionResult]] = []


def _criterion(cid: int, name: str):
    """Register a measure step ``() -> (passed, details)`` as criterion cid,
    failed if its wall time reaches 30 s, returning a CriterionResult."""
    def register(measure):
        @functools.wraps(measure)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = measure()
            dt = time.perf_counter() - t0
            return CriterionResult(cid, name, passed and dt < 30.0, details, dt)
        CRITERIA.append(run)
        return run
    return register


@_criterion(1, "exact q=2 square-function constant (heat pair)")
def criterion_1_exact_q2_constant():
    """Heat pair, q=2, infinite window: every ratio 0.500 within 1e-3 and
    the squared norm under the closed-form bound."""
    grid = GridSpec(1, 1024, 32.0)
    heat = get_symbol("heat")
    entries = generate_corpus(101, grid, "GAUSSIAN_MIX", 16, mean_removed=True)
    bound = explicit_q2_constant(1.0, 1.0, 2.0, 2.0)
    target = _exact_ratio(heat, heat)
    ratios = _ratios([e.field for e in entries], (2.0,), 2.0, heat, 0.0, heat,
                     _grid_window(grid, heat, heat))[2.0]
    worst_ratio_err = max(abs(r - target) for r in ratios)
    worst_bound_excess = max(r**2 - bound * (1.0 + 1e-3) for r in ratios)
    passed = worst_ratio_err <= 1e-3 and worst_bound_excess <= 0.0
    return passed, {"worst_ratio_err": worst_ratio_err, "explicit_constant": bound,
                    "worst_bound_excess": worst_bound_excess}


@_criterion(2, "Poisson classical ratios (k=1, k=2)")
def criterion_2_poisson_cases():
    """Poisson semigroup cases: first derivative ratio 0.5, second
    derivative ratio sqrt(6)/4, both within 1e-3."""
    grid = GridSpec(1, 1024, 32.0)
    poisson = get_symbol("poisson")
    power2 = get_symbol("power:2")  # |psi^2| for the second-derivative case
    entries = generate_corpus(102, grid, "GAUSSIAN_MIX", 8, mean_removed=True)
    fields = [e.field for e in entries]
    errs = []
    for psi1 in (poisson, power2):
        target = _exact_ratio(psi1, poisson)
        ratios = _ratios(fields, (2.0,), 2.0, psi1, 0.0, poisson,
                         _grid_window(grid, psi1, poisson))[2.0]
        errs.append(max(abs(r - target) for r in ratios))
    passed = errs[0] <= 1e-3 and errs[1] <= 1e-3
    return passed, {"k1_worst_err": errs[0], "k2_worst_err": errs[1],
                    "k2_target": _exact_ratio(power2, poisson)}


@_criterion(3, "evolution composition law")
def criterion_3_composition():
    """Two-parameter composition law at the multiplier level."""
    grid = GridSpec(1, 1024, 32.0)
    worst_const = 0.0
    for name in ("heat", "poisson", "power:1.5"):
        sym = get_symbol(name)
        for s, r, t in ((0.0, 0.3, 1.0), (0.2, 0.7, 1.5), (0.5, 0.5, 1.2)):
            worst_const = max(worst_const, verify_composition(sym, s, r, t, grid))
    pt = get_symbol("power-t:2")
    rule = TimeIntegralRule.gauss_legendre(8, adaptive=False)
    worst_t = max(verify_composition(pt, s, r, t, grid, rule)
                  for s, r, t in ((0.0, 0.3, 1.0), (0.1, 0.8, 1.6)))
    passed = worst_const <= 1e-12 and worst_t <= 1e-10
    return passed, {"worst_time_constant": worst_const, "worst_time_dependent": worst_t}


@_criterion(4, "closed-form heat and Poisson kernels")
def criterion_4_closed_form_kernels():
    """Heat and Poisson kernels reproduced to 1e-6 sup norm on |x| <= L/2."""
    gh = GridSpec(1, 1024, 32.0)
    x = gh.x_axis()
    K = kernel_field(None, get_symbol("heat"), 0.0, 1.0, gh)
    heat_err = float(np.abs(K.values - (4.0 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0))
                     [np.abs(x) <= gh.half_extent / 2].max())
    gp = GridSpec(1, 65536, 1024.0)
    xp = gp.x_axis()
    Kp = kernel_field(None, get_symbol("poisson"), 0.0, 1.0, gp)
    pois_err = float(np.abs(Kp.values - 1.0 / (np.pi * (1.0 + xp**2)))
                     [np.abs(xp) <= gp.half_extent / 2].max())
    passed = heat_err <= 1e-6 and pois_err <= 1e-6
    return passed, {"heat_sup_err": heat_err, "poisson_sup_err": pois_err}


@_criterion(5, "partition of unity / almost orthogonality / reconstruction")
def criterion_5_partition_orthogonality():
    """Partition of unity to 1e-14, block orthogonality to 1e-12,
    reconstruction to 1e-10: the LP_DECOMP scenario."""
    return _MEASURES[TWINS[5].scenario](TWINS[5])


@_criterion(6, "time-decay exponent of the gradient kernel")
def criterion_6_time_decay():
    """Gradient-kernel sup decays with the exact scaling exponent, 2%: the
    time fit of the KERNEL_DECAY scenario for three pairs."""
    details = {}
    passed = True
    for tag, p1, p2 in (("heat_heat", "heat", "heat"),
                        ("poisson_poisson", "poisson", "poisson"),
                        ("poisson_heat", "poisson", "heat")):
        rep, rel, ok = _time_fit(ScenarioConfig(scenario="KERNEL_DECAY", symbol1=p1,
                                                symbol2=p2, n=4096, L=64.0))
        details[f"{tag}_fitted"] = rep.fitted_exponent
        details[f"{tag}_target"] = rep.target_exponent
        details[f"{tag}_rel_err"] = rel
        passed = passed and ok
    return passed, details


@_criterion(7, "smoothness (Hormander-type) integral uniform in y")
def criterion_7_hormander():
    """Smoothness integral H(y) finite with flat log-log trend over 8 octaves:
    the HORMANDER scenario."""
    passed, summary = _MEASURES[TWINS[7].scenario](TWINS[7])
    return passed, {"sup": summary["sup"], "trend_slope": summary["trend_slope"]}


@_criterion(8, "dyadic block L1 envelope")
def criterion_8_dyadic_envelope():
    """Dyadic block L1 envelope fits with positive rate; low-j slope is the
    outer symbol order within 5%: the DYADIC_ENVELOPE scenario."""
    passed, summary = _MEASURES[TWINS[8].scenario](TWINS[8])
    slope, gamma = summary["low_j_slope"], get_symbol(TWINS[8].symbol1).gamma
    slope_err = abs(slope - gamma) / gamma if slope is not None else math.inf
    return passed, {"rate": summary["rate"], "constant": summary["constant"],
                    "low_j_slope": slope or math.nan, "low_j_slope_rel_err": slope_err}


@_criterion(9, "homogeneous time-dilation identity")
def criterion_9_scaling_identity():
    """Time-dilation identity for homogeneous pairs at the field level, 1e-6."""
    grid = GridSpec(1, 1024, 32.0)
    entries = generate_corpus(109, grid, "GAUSSIAN_MIX", 4, mean_removed=True)
    worst = 0.0
    for name in ("heat", "poisson"):
        sym = get_symbol(name)
        for b in (2.0, 4.0):
            for e in entries[:2]:
                worst = max(worst, _scaling_identity_error(e.field, sym, sym, b,
                                                           s=0.3, t=0.7))
    return worst <= 1e-6, {"worst_rel_err": worst}


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


@_criterion(10, "ratio stability under refinement")
def criterion_10_ratio_stability():
    """Finite-window ratio maxima move < 5% under grid refinement."""
    heat = get_symbol("heat")
    grid = GridSpec(1, 1024, 32.0)
    entries = generate_corpus(110, grid, "GAUSSIAN_MIX", 12, mean_removed=True)
    coarse = [e.field for e in entries]
    fine = [refine_field(f, 2) for f in coarse]  # same functions, doubled n
    details = {}
    passed = True
    for q, ps in ((2.0, (1.5, 3.0)), (4.0, (4.0,))):  # (p, q) pairs sharing a window
        window = _grid_window(grid, heat, heat, a=1.0, q=q)
        r1 = _ratios(coarse, ps, q, heat, 0.0, heat, window)
        r2 = _ratios(fine, ps, q, heat, 0.0, heat, window)
        for p in ps:
            m1, m2 = max(r1[p]), max(r2[p])
            drift = abs(m2 - m1) / m1
            details[f"p{p}_q{q}_max"] = m1
            details[f"p{p}_q{q}_drift"] = drift
            passed = passed and drift < 0.05
    return passed, details


@_criterion(11, "fractional Laplacian dual route")
def criterion_11_fraclap_dual_route():
    """Principal-value and multiplier fractional Laplacians agree to 1e-3:
    the FRACLAP_XCHECK scenario."""
    passed, summary = _MEASURES[TWINS[11].scenario](TWINS[11])
    return passed, {f"eta_{eta}_rel_l2": rel for eta, rel in summary["discrepancies"].items()}


def run_all(echo: Optional[Callable[[str], None]] = None) -> List[CriterionResult]:
    results = []
    for fn in CRITERIA:
        res = fn()
        results.append(res)
        if echo is not None:
            status = "PASS" if res.passed else "FAIL"
            echo(f"[{status}] criterion {res.cid}: {res.name} ({res.runtime_s:.1f}s)")
    return results
