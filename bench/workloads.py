"""The three benchmark workloads as seed-generated lists of checked ops.

An op is one call sequence into ``speclp`` whose latency a user waits for,
plus a check of its result against a reference at a bound no looser than
the bound of the acceptance criterion it mirrors.  ``build(name, seed,
smoke)`` generates every input up front (corpora, grids, windows), so the
library only ever receives generated inputs and the timed region holds
library work alone.  ``smoke=True`` gives the same op kinds on small inputs;
it serves the warm-up calls of set-up and the smoke test.

Every op kind carries a one-line reason for being in the benchmark
(``WHY``).  Two library defects are deliberately left out, because no
criterion, scenario or demo reaches them and both stay open under ROADMAP
item 4: ``TimeIntegralRule.trapezoid`` (calls ``np.trapz``, gone in numpy
2.x) and the CLI's traceback on malformed configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

import speclp as sp
from speclp import harness

WORKLOADS = ("sqfun", "kernel", "operators")

LEFT_OUT = {
    "TimeIntegralRule.trapezoid": "raises AttributeError on numpy 2.x (np.trapz); "
                                  "no criterion, scenario or demo reaches it (ROADMAP item 4)",
    "cli traceback on bad configs": "a malformed config ends in a traceback instead of exit 2; "
                                    "not a timed path (ROADMAP item 4)",
}

WHY = {
    # sqfun
    "c01.heat_inf": "criterion 1: heat pair, infinite window, 896 nodes at n=1024",
    "c02.poisson_inf": "criterion 2: Poisson k=1 and k=2 pairs, 608 + 1184 nodes at n=1024",
    "c10.refine_drift": "criterion 10: three finite (p,q) windows at n=1024 and refined n=2048",
    "gfun.power_t": "only caller of the time-dependent node branch (heat / power-t:2, a=1)",
    "gfun.d2_inf": "d=2 field on 256^2, 800 nodes: a batched node stack needs a memory budget",
    "harness.gfun_w1": "GFUN_RATIO through run_scenario at workers=1: single-threaded baseline",
    "harness.gfun_w2": "same scenario at workers=2: the thread pool against its baseline",
    # kernel
    "c07.hormander": "criterion 7: n=32768, 608 nodes x 9 lattice shifts on the np.roll path",
    "kernel.hormander_phase": "only caller of hormander_report's spectral-phase shift branch",
    "c08.dyadic_envelope": "criterion 8: dyadic L1 envelope at n=131072; bump_profile vs FFT cost",
    "c11.fraclap": "criterion 11: principal-value fractional Laplacian, 385 ifft calls per eta",
    "c06.decay_fit": "criterion 6: gradient-kernel time decay at n=4096",
    # operators
    "op.besov": "full LP decomposition (besov_norm0) of one field",
    "op.sobolev": "one Bessel-potential multiplier and an L^p norm",
    "op.evolve_heat": "apply_evolution with a time-constant symbol (exact time integral)",
    "op.evolve_power_t": "apply_evolution with power-t:2: adaptive Gauss-Legendre in time",
    "op.shift": "spectral_shift by y and back by -y",
    "op.refine": "refine_field then lp_norm; exact trigonometric refinement",
    "op.composition": "verify_composition on the field's grid (three multiplier builds)",
    "c03.composition": "criterion 3: composition law, one (symbol, s, r, t) triple per op",
    "c04.closed_form": "criterion 4: heat (n=1024) and Poisson (n=65536) kernels, closed forms",
    "c05.partition": "criterion 5: partition of unity on the n=1024 lattice",
    "c05.orth_reconstruct": "criterion 5: block orthogonality and reconstruction of one field",
    "c09.scaling": "criterion 9: time-dilation identity of one field",
    "audit.s1": "symbol ellipticity audit (scalar evaluations)",
    "audit.s2": "symbol derivative audit by nested finite differences (scalar evaluations)",
    "audit.homogeneity": "symbol homogeneity check (scalar evaluations)",
}


@dataclass
class Op:
    """One timed call sequence and the check of its result.

    ``run`` holds only library calls.  ``check`` takes the value ``run``
    returned and gives None when it is correct, otherwise the reason.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    criterion: Optional[int] = None
    summary_sha256: Optional[str] = None  # set by ops that write a summary.json


def _within(name: str, got: float, ref: float, tol: float) -> Optional[str]:
    if math.isfinite(got) and abs(got - ref) <= tol:
        return None
    return f"{name}={got!r}, reference {ref!r}, tolerance {tol!r}"


def _below(name: str, got: float, bound: float) -> Optional[str]:
    """None when got <= bound; criteria that ask for got < bound pass
    math.nextafter(bound, 0.0)."""
    if math.isfinite(got) and got <= bound:
        return None
    return f"{name}={got!r} above bound {bound!r}"


def _first(*reasons: Optional[str]) -> Optional[str]:
    return next((r for r in reasons if r is not None), None)


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / abs(ref)


def _ratio(f, psi1, psi2, window, q=2.0, p=2.0) -> float:
    G = sp.g_function(f, psi1, 0.0, psi2, window, q)
    return sp.lp_norm(G, p) / sp.lp_norm(f, p)


def _inf_window(grid, psi1, psi2, n_nodes: int, xi_max: float):
    """q = 2, a = inf window as the criteria build it."""
    return sp.build_time_window(0.0, sp.INF, 2.0, psi1.gamma, psi2.gamma, n_nodes,
                                kappa2=psi2.kappa, xi_min=grid.min_freq, xi_max=xi_max)


def _fields(seed: int, grid, kind: str, count: int, mean_removed: bool):
    return [e.field for e in sp.generate_corpus(seed, grid, kind, count,
                                                mean_removed=mean_removed)]


# --- references computed by the benchmark itself ---------------------------

def _spectrum_power(f) -> np.ndarray:
    """|unnormalized DFT|^2 of the samples; only magnitudes are used, so the
    natural-order storage (a phase) does not matter."""
    return np.abs(np.fft.fftn(f.values)) ** 2


def _parseval_norm(f, weight2) -> float:
    """||Finv(m F f)||_2 from the spectrum, with weight2 = |m|^2 in fft order."""
    g = f.grid
    return math.sqrt(float((_spectrum_power(f) * weight2).sum()) * g.cell_measure / f.values.size)


def _nyquist_plane_norm(f) -> float:
    """L2 norm of the modes on a Nyquist plane (any axis index n/2).

    Those modes have no conjugate partner, so a real-output shift or
    refinement drops part of them: the exact operation can move the result by
    at most this much per real projection.
    """
    F = np.fft.fftn(f.values)
    idx = np.indices(F.shape)
    mask = (idx == f.grid.n // 2).any(axis=0)
    return math.sqrt(float((np.abs(F[mask]) ** 2).sum()) * f.grid.cell_measure / F.size)


def _plancherel_ratio(f, window, m2_of_t) -> float:
    """||G||_2 / ||f||_2 for q = 2 by Plancherel: sum_i w_i |m(t_i, xi)|^2 per mode."""
    P = _spectrum_power(f)
    acc = np.zeros(P.shape)
    for t, w in zip(window.nodes, window.weights):
        acc += w * m2_of_t(t)
    return math.sqrt(float((P * acc).sum()) / float(P.sum()))


# --- sqfun -------------------------------------------------------------------

def _sqfun(rng, smoke: bool, out_dir: str) -> List[Op]:
    heat, poisson = sp.get_symbol("heat"), sp.get_symbol("poisson")
    power2, power_t = sp.get_symbol("power:2"), sp.get_symbol("power-t:2")
    n = 512 if smoke else 1024  # below n ~ 440 GAUSSIAN_MIX can fail its own boundary check
    g1 = sp.GridSpec(1, n, 32.0)
    counts = (2, 1, 1, 2) if smoke else (16, 8, 12, 2)
    nodes = 4 if smoke else 16  # Gauss-Legendre nodes per dyadic panel
    ops: List[Op] = []

    # criterion 1: ratio 0.5 within 1e-3 and the closed-form bound
    w_heat = _inf_window(g1, heat, heat, nodes, g1.nyquist)
    bound = math.gamma(2.0) * 2.0 ** -2.0
    for f in _fields(int(rng.integers(2**31)), g1, "GAUSSIAN_MIX", counts[0], True):
        ops.append(Op("c01.heat_inf", lambda f=f: _ratio(f, heat, heat, w_heat),
                      lambda r: _first(_within("ratio", r, 0.5, 1e-3),
                                       _below("ratio^2", r * r, bound * (1.0 + 1e-3))), 1))

    # criterion 2: Poisson k=1 ratio 0.5, k=2 ratio sqrt(6)/4, both within 1e-3
    w_p1 = _inf_window(g1, poisson, poisson, nodes, g1.nyquist)
    w_p2 = _inf_window(g1, power2, poisson, nodes, g1.nyquist)
    target2 = math.sqrt(6.0) / 4.0
    for f in _fields(int(rng.integers(2**31)), g1, "GAUSSIAN_MIX", counts[1], True):
        ops.append(Op("c02.poisson_inf",
                      lambda f=f: (_ratio(f, poisson, poisson, w_p1),
                                   _ratio(f, power2, poisson, w_p2)),
                      lambda r: _first(_within("k1 ratio", r[0], 0.5, 1e-3),
                                       _within("k2 ratio", r[1], target2, 1e-3)), 2))

    # criterion 10: finite windows, refinement drift of the ratio below 5%
    pq = ((1.5, 2.0), (3.0, 2.0), (4.0, 4.0))
    w_fin = {q: sp.build_time_window(0.0, 1.0, q, 2.0, 2.0, nodes, kappa2=1.0,
                                     xi_min=g1.min_freq, xi_max=g1.nyquist) for q in (2.0, 4.0)}

    def c10(f):
        fine = sp.refine_field(f, 2)
        return [(_ratio(f, heat, heat, w_fin[q], q=q, p=p),
                 _ratio(fine, heat, heat, w_fin[q], q=q, p=p)) for p, q in pq]

    def c10_check(pairs):
        return _first(*(_below(f"drift p={p} q={q}", _rel(fine, coarse),
                               math.nextafter(0.05, 0.0))
                        for (p, q), (coarse, fine) in zip(pq, pairs)))

    for f in _fields(int(rng.integers(2**31)), g1, "GAUSSIAN_MIX", counts[2], True):
        ops.append(Op("c10.refine_drift", lambda f=f: c10(f), c10_check, 10))

    # time-dependent branch: heat outer, power-t:2 evolution on a = 1, q = 2;
    # reference by Plancherel with the exact time integral (t + t^2/2)|xi|^2
    w_t = sp.build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, nodes, kappa2=1.0, xi_min=g1.min_freq,
                               xi_max=g1.nyquist)
    f_t = _fields(int(rng.integers(2**31)), g1, "GAUSSIAN_MIX", 1, True)[0]
    xi2 = g1.xi_norm() ** 2
    ref_t = _plancherel_ratio(f_t, w_t, lambda t: xi2**2 * np.exp(-2.0 * (t + 0.5 * t * t) * xi2))
    ops.append(Op("gfun.power_t", lambda: _ratio(f_t, heat, power_t, w_t),
                  lambda r: _within("ratio", r, ref_t, 1e-3)))

    # d = 2, infinite window (800 nodes at 256^2): ratio 0.5 in any dimension.
    # BANDLIMITED_RANDOM, because GAUSSIAN_MIX at d = 2 rejects some seeds (a
    # bump near a corner breaks its boundary-decay check)
    g2 = sp.GridSpec(2, 192 if smoke else 256, 32.0)
    w_2 = _inf_window(g2, heat, heat, nodes, math.sqrt(2.0) * g2.nyquist)
    f_2 = _fields(int(rng.integers(2**31)), g2, "BANDLIMITED_RANDOM", 1, True)[0]
    ops.append(Op("gfun.d2_inf", lambda: _ratio(f_2, heat, heat, w_2),
                  lambda r: _within("ratio", r, 0.5, 1e-3)))

    # GFUN_RATIO through the scenario runner, workers 1 and 2, same config
    gfun_seed = int(rng.integers(2**31))
    for kind, workers in (("harness.gfun_w1", 1), ("harness.gfun_w2", 2)):
        cfg = harness.ScenarioConfig(scenario="GFUN_RATIO", n=n, L=g1.half_extent,
                                     seed=gfun_seed, corpus_count=counts[3], workers=workers,
                                     output_dir=os.path.join(out_dir, kind))
        ops.append(_scenario_op(kind, cfg, 0.5, 1e-3))
    return ops


def _scenario_op(kind: str, cfg, target: float, tol: float) -> Op:
    summary = os.path.join(cfg.output_dir, "summary.json")

    def run():
        status = harness.run_scenario(cfg)
        with open(summary, "rb") as fh:
            raw = fh.read()
        return status, raw

    def check(result):
        status, raw = result
        op.summary_sha256 = hashlib.sha256(raw).hexdigest()
        per_field = json.loads(raw)["per_field"]
        return _first(None if status == 0 else f"scenario exit status {status}",
                      *(_within(f"field {i} ratio", r, target, tol)
                        for i, r in enumerate(per_field)))

    op = Op(kind, run, check)  # check records the digest on the op
    return op


# --- kernel ------------------------------------------------------------------

def _hormander_check(rep) -> Optional[str]:
    if not math.isfinite(rep.sup):
        return f"Hormander sup not finite: {rep.sup!r}"
    return _below("|trend slope|", abs(rep.trend_slope), 0.1)


def _kernel(rng, smoke: bool) -> List[Op]:
    heat, poisson = sp.get_symbol("heat"), sp.get_symbol("poisson")
    ops: List[Op] = []

    # criterion 7: lattice shifts 2^-6 .. 2^2 (np.roll path)
    g7 = sp.GridSpec(1, 8192, 64.0) if smoke else sp.GridSpec(1, 32768, 32.0)
    w7 = sp.build_time_window(0.0, sp.INF, 2.0, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                              xi_min=g7.min_freq, xi_max=g7.nyquist)
    ys7 = [np.array([2.0**k]) for k in ((-3, -1, 1, 3) if smoke else range(-6, 3))]
    ops.append(Op("c07.hormander",
                  lambda: sp.hormander_report(heat, 0.0, heat, 0.0, w7, 2.0, ys7, g7),
                  _hormander_check, 7))

    # spectral-phase branch: shifts a seed-drawn 1e-9..1e-8 relative step off
    # the lattice, just past the roll path's 1e-9-cell test.  Further off the
    # lattice this branch's H(y) leaves the roll path's (3.8x at y = 0.067
    # with a 7%-of-a-cell offset, n=8192) and fails the criterion-7 slope
    # bound; that accuracy defect is open, and the op times the branch where
    # the criterion check holds
    gp = sp.GridSpec(1, 8192, 64.0)
    wp = sp.build_time_window(0.0, sp.INF, 2.0, 2.0, 2.0, n_nodes=4 if smoke else 8, kappa2=1.0,
                              xi_min=gp.min_freq, xi_max=gp.nyquist)
    rel = float(rng.uniform(1e-9, 1e-8))
    ysp = [np.array([2.0**k * (1.0 + rel)]) for k in ((-3, 3) if smoke else (-3, -1, 1, 3))]
    ops.append(Op("kernel.hormander_phase",
                  lambda: sp.hormander_report(heat, 0.0, heat, 0.0, wp, 2.0, ysp, gp),
                  _hormander_check))

    # criterion 8: positive rate and low-j slope = outer order within 5%
    g8 = sp.GridSpec(1, 16384 if smoke else 131072, 1024.0 if smoke else 2048.0)
    D8 = sp.build_decomposition(g8)
    js = range(-6, 4) if smoke else range(-6, 6)

    def c08_check(rep):
        if not rep.rate > 0.0:
            return f"envelope rate {rep.rate!r} not positive"
        if rep.low_j_slope is None:
            return "no low-j blocks"
        return _below("low-j slope rel err", abs(rep.low_j_slope - 2.0) / 2.0, 0.05)

    ops.append(Op("c08.dyadic_envelope",
                  lambda: sp.dyadic_l1_envelope(heat, 0.0, heat, 0.0, 1.0, js, g8, D8),
                  c08_check, 8))

    # criterion 11: multiplier route against principal-value route, 1e-3 relative L2;
    # the Gaussian's centre and width come from the seed
    g11 = sp.GridSpec(1, 2048 if smoke else 16384, 64.0 if smoke else 256.0)
    x = g11.x_axis()
    c, sigma = rng.uniform(-4.0, 4.0), rng.uniform(0.9, 1.2)
    f11 = sp.Field(g11, np.exp(-((x - c) ** 2) / (2.0 * sigma**2)))
    xi = g11.freq_axis()

    def c11(eta):
        F = sp.forward_transform(f11)
        A = sp.inverse_transform(sp.SpectralField(g11, -np.abs(xi) ** eta * F.coeffs))
        return A, sp.fractional_laplacian_pv(f11, eta)

    def c11_check(AB):
        A, B = AB
        err = np.linalg.norm(A.values - B.values) / np.linalg.norm(A.values)
        return _below("dual-route rel L2", float(err), math.nextafter(1e-3, 0.0))

    for eta in (0.5, 1.0, 1.5):
        ops.append(Op("c11.fraclap", lambda eta=eta: c11(eta), c11_check, 11))

    # criterion 6: fitted decay exponent within 2% of the target
    g6 = sp.GridSpec(1, 1024 if smoke else 4096, 64.0)
    for p1, p2 in ((heat, heat), (poisson, poisson), (poisson, heat)):
        def c06_check(rep):
            return _below("exponent rel err",
                          abs(rep.fitted_exponent - rep.target_exponent) / abs(rep.target_exponent),
                          0.02)
        ops.append(Op("c06.decay_fit",
                      lambda p1=p1, p2=p2: sp.decay_fit_time(p1, 0.0, p2, 0.0, g6,
                                                             [0.5, 1.0, 2.0, 4.0]),
                      c06_check, 6))
    return ops


# --- operators ---------------------------------------------------------------

def _field_ops(rng, f, index: int) -> List[Op]:
    g = f.grid
    D = sp.build_decomposition(g)
    heat, power_t = sp.get_symbol("heat"), sp.get_symbol("power-t:2")
    xi2 = g.xi_norm() ** 2
    ops: List[Op] = []

    # besov_norm0 with q = 2 against Parseval over the same bump profiles; the
    # reference calls the library's profiles, so it is made at the first
    # check, outside set-up and outside any op's time
    besov_ref: List[float] = []

    def besov_check(v):
        if not besov_ref:
            xi = np.sqrt(xi2)
            hi2 = sum(sp.bump_profile(xi * 2.0 ** (-j)) ** 2
                      for j in range(max(1, D.j_min), D.j_max + 1))
            besov_ref.append(_parseval_norm(f, sp.chi_profile(xi) ** 2) + _parseval_norm(f, hi2))
        return _below("besov rel err", _rel(v, besov_ref[0]), 1e-10)

    ops.append(Op("op.besov", lambda: sp.besov_norm0(f, 2.0, D), besov_check))

    alpha = float(rng.choice([-1.0, 0.5, 1.5]))
    sob_ref = _parseval_norm(f, (1.0 + xi2) ** alpha)
    ops.append(Op("op.sobolev", lambda: sp.sobolev_norm(f, alpha, 2.0),
                  lambda v: _below("sobolev rel err", _rel(v, sob_ref), 1e-10)))

    t = float(rng.uniform(0.05, 0.5))
    heat_ref = _parseval_norm(f, np.exp(-2.0 * t * xi2))
    ops.append(Op("op.evolve_heat",
                  lambda: sp.lp_norm(sp.apply_evolution(
                      f, sp.build_multiplier(heat, 0.0, t, g)), 2),
                  lambda v: _below("heat evolution rel err", _rel(v, heat_ref), 1e-10)))

    s = float(rng.uniform(0.0, 0.3))
    pt_ref = _parseval_norm(f, np.exp(-2.0 * (t + 0.5 * ((s + t) ** 2 - s * s)) * xi2))
    ops.append(Op("op.evolve_power_t",
                  lambda: sp.lp_norm(sp.apply_evolution(
                      f, sp.build_multiplier(power_t, s, s + t, g)), 2),
                  lambda v: _below("power-t evolution rel err", _rel(v, pt_ref), 1e-10)))

    # shift and refinement are exact up to round-off, except for the unpaired
    # Nyquist-plane modes their real projection drops (once per projection)
    norm_ref = math.sqrt(float((np.abs(f.values) ** 2).sum()) * g.cell_measure)
    nyq = _nyquist_plane_norm(f)
    y = rng.uniform(-0.25, 0.25, size=g.dim) * g.half_extent
    ops.append(Op("op.shift",
                  lambda: sp.spectral_shift(sp.spectral_shift(f, y), -y),
                  lambda h: _below("shift round trip L2 error",
                                   sp.lp_norm(sp.Field(g, h.values - f.values), 2),
                                   1e-10 * norm_ref + 2.0 * nyq)))
    ops.append(Op("op.refine", lambda: sp.lp_norm(sp.refine_field(f, 2), 2),
                  lambda v: _below("refined norm error", abs(v - norm_ref),
                                   1e-10 * norm_ref + nyq)))

    sym, bound = (heat, 1e-12) if index % 2 == 0 else (power_t, 1e-10)
    a, b = sorted(rng.uniform(0.0, 1.0, size=2))
    ops.append(Op("op.composition",
                  lambda: sp.verify_composition(sym, 0.0, float(a) + 0.1, float(b) + 0.6, g),
                  lambda v: _below("composition defect", v, bound)))
    return ops


def _scaling_identity_error(f, sym, b: float, s: float = 0.3, t: float = 0.7) -> float:
    """Criterion 9's dilation identity: the operator at time b t + s against
    b^(-g1/g2) times the operator at time t on the compressed grid."""
    g = f.grid
    beta = b ** (1.0 / sym.gamma)
    lhs = sp.apply_evolution(f, sp.build_multiplier(sym, s, b * t + s, g, pre=(sym, 0.0)))
    g_b = sp.GridSpec(g.dim, g.n, g.half_extent / beta)
    rhs = sp.apply_evolution(sp.Field(g_b, f.values),
                             sp.build_multiplier(sym, 0.0, t, g_b, pre=(sym, 0.0)))
    diff = lhs.values - rhs.values / b  # b^(-g1/g2) with g1 = g2
    return float(np.abs(diff).max() / np.abs(lhs.values).max())


def _sample_xis(rng, dim: int) -> list:
    out = []
    for m in np.geomspace(0.2, 20.0, 12):
        v = rng.standard_normal(dim)
        v = np.where(np.abs(v) < 0.1, 0.1, v)  # keep off the coordinate hyperplanes
        out.append(m * v / np.linalg.norm(v))
    return out


def _audit_passed(rep) -> Optional[str]:
    if rep.passed:
        return None
    return f"{rep.condition} audit failed, worst violation {rep.worst_violation!r}"


def _operators(rng, smoke: bool) -> List[Op]:
    ops: List[Op] = []
    grids = ((sp.GridSpec(1, 256 if smoke else 4096, 64.0), 2 if smoke else 6),
             (sp.GridSpec(2, 32 if smoke else 256, 32.0), 1 if smoke else 3),
             (sp.GridSpec(3, 16 if smoke else 64, 16.0), 1 if smoke else 2))
    index = 0
    for g, count in grids:
        for f in _fields(int(rng.integers(2**31)), g, "BANDLIMITED_RANDOM", count, False):
            ops.extend(_field_ops(rng, f, index))
            index += 1

    # criterion 3: composition law, 1e-12 time-constant and 1e-10 time-dependent
    g3 = sp.GridSpec(1, 128 if smoke else 1024, 32.0)
    rule = sp.TimeIntegralRule.gauss_legendre(8, adaptive=False)
    for name in ("heat", "poisson", "power:1.5"):
        sym = sp.get_symbol(name)
        for s, r, t in ((0.0, 0.3, 1.0), (0.2, 0.7, 1.5), (0.5, 0.5, 1.2)):
            ops.append(Op("c03.composition",
                          lambda sym=sym, s=s, r=r, t=t: sp.verify_composition(sym, s, r, t, g3),
                          lambda v: _below("composition defect", v, 1e-12), 3))
    pt = sp.get_symbol("power-t:2")
    for s, r, t in ((0.0, 0.3, 1.0), (0.1, 0.8, 1.6)):
        ops.append(Op("c03.composition",
                      lambda s=s, r=r, t=t: sp.verify_composition(pt, s, r, t, g3, rule),
                      lambda v: _below("composition defect", v, 1e-10), 3))

    # criterion 4: closed-form heat and Poisson kernels, 1e-6 sup on |x| <= L/2
    heat, poisson = sp.get_symbol("heat"), sp.get_symbol("poisson")
    gh = sp.GridSpec(1, 1024, 32.0)
    gp = sp.GridSpec(1, 65536, 1024.0)
    for sym, grid, closed in (
            (heat, gh, lambda x: (4.0 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0)),
            (poisson, gp, lambda x: 1.0 / (np.pi * (1.0 + x**2)))):
        x = grid.x_axis()
        ref = closed(x)
        inner = np.abs(x) <= grid.half_extent / 2

        def c04_check(K, ref=ref, inner=inner):
            return _below("kernel sup err", float(np.abs(K.values.real - ref)[inner].max()), 1e-6)

        ops.append(Op("c04.closed_form",
                      lambda sym=sym, grid=grid: sp.kernel_field(None, sym, 0.0, 1.0, grid),
                      c04_check, 4))

    # criterion 5: partition of unity 1e-14, orthogonality 1e-12, reconstruction 1e-10
    g5 = sp.GridSpec(1, 1024, 32.0)
    D5 = sp.build_decomposition(g5)
    xi5 = g5.xi_norm()

    def partition():
        total = np.zeros(g5.shape)
        for j in D5.j_range:
            total += sp.bump_profile(xi5 * 2.0 ** (-j))
        return float(np.abs(total[xi5 > 0] - 1.0).max())

    ops.append(Op("c05.partition", partition, lambda v: _below("partition defect", v, 1e-14), 5))
    pairs = ((D5.j_min, D5.j_min + 2), (0, 2), (D5.j_max - 2, D5.j_max), (1, 4))

    def orth_rec(f):
        l2 = sp.lp_norm(f, 2)
        orth = max(sp.lp_norm(sp.block(sp.block(f, j, D5), i, D5), 2) / l2 for i, j in pairs)
        rec = sp.low_part(f, D5).values.copy()
        for j in range(1, D5.j_max + 1):
            rec += sp.block(f, j, D5).values
        return orth, float(np.linalg.norm(rec - f.values) / np.linalg.norm(f.values))

    for f in _fields(int(rng.integers(2**31)), g5, "BANDLIMITED_RANDOM", 2 if smoke else 6, False):
        ops.append(Op("c05.orth_reconstruct", lambda f=f: orth_rec(f),
                      lambda v: _first(_below("orthogonality", v[0], 1e-12),
                                       _below("reconstruction", v[1], 1e-10)), 5))

    # criterion 9: dilation identity within 1e-6
    g9 = sp.GridSpec(1, 1024, 32.0)
    fields9 = _fields(int(rng.integers(2**31)), g9, "GAUSSIAN_MIX", 2, True)
    for name in ("heat", "poisson"):
        sym = sp.get_symbol(name)
        for b in (2.0, 4.0):
            for f in fields9:
                ops.append(Op("c09.scaling",
                              lambda f=f, sym=sym, b=b: _scaling_identity_error(f, sym, b),
                              lambda v: _below("dilation defect", v, 1e-6), 9))

    # symbol audits: every certificate holds; homogeneity exactly for homogeneous symbols
    ts = [0.0, 0.5, 1.0, 2.0]
    for dim in (1, 2, 3):
        xis = _sample_xis(rng, dim)
        for name in ("heat", "poisson", "power-t:2", "frac-lap:1.5"):
            sym = sp.get_symbol(name)
            ops.append(Op("audit.s1", lambda sym=sym, xis=xis: sp.audit_s1(sym, ts, xis),
                          _audit_passed))
            ops.append(Op("audit.s2", lambda sym=sym, xis=xis: sp.audit_s2(sym, 2, ts, xis),
                          _audit_passed))
            if sym.time_constant:
                ops.append(Op("audit.homogeneity",
                              lambda sym=sym, xis=xis: sp.check_homogeneity(
                                  sym, [0.5, 2.0, 3.0], xis),
                              lambda rep, h=sym.homogeneous: None if rep.passed == h else
                              f"homogeneity passed={rep.passed}, expected {h}"))
    return ops


def _interleave(ops: List[Op]) -> List[Op]:
    """Round-robin over op kinds, so that a slowdown of the machine lasting a
    few seconds touches a few ops of every kind instead of every op of one."""
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    queues = list(by_kind.values())
    out = []
    for i in range(max(len(q) for q in queues)):
        out.extend(q[i] for q in queues if i < len(q))
    return out


def build(workload: str, seed: int, smoke: bool, out_dir: str) -> List[Op]:
    """Generate every input of one workload from ``seed`` and return its ops.

    ``out_dir`` receives the reports of the ops that run a scenario."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), int(smoke)])
    if workload == "sqfun":
        ops = _sqfun(rng, smoke, out_dir)
    elif workload == "kernel":
        ops = _kernel(rng, smoke)
    elif workload == "operators":
        ops = _operators(rng, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _interleave(ops)
