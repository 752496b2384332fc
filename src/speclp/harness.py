"""Scenario runner: flat key-value configs in, JSON/CSV reports out.

Config files are plain ``key = value`` lines (``#`` comments, blank lines
ignored).  Core keys, all optional unless a scenario needs them:

    scenario      AUDIT_SYMBOL | KERNEL_DECAY | HORMANDER | DYADIC_ENVELOPE |
                  GFUN_RATIO | LP_DECOMP | FRACLAP_XCHECK | REPRODUCE
    symbol1, symbol2   registry names (heat, poisson, power:G, power-t:G,
                  frac-lap:E)
    d, n, L       grid (dimension, points per axis, half extent)
    p, q          Lebesgue / time exponents
    s, a, l, t    window start, window length ("inf" allowed), outer symbol
                  time, kernel time
    seed          corpus seed
    corpus_kind   GAUSSIAN_MIX | BANDLIMITED_RANDOM | ANNULUS
    corpus_count  number of corpus fields
    output_dir    where reports are written
    workers       parallelism cap for embarrassingly parallel loops
    j_min, j_max  dyadic range for DYADIC_ENVELOPE

Every scenario writes ``summary.json`` (schema_version tagged, no
timestamps) plus scenario CSV tables, and ``run_meta.json`` holding the
timestamp and the echoed config.  Exit status 0 means every scenario pass
criterion held.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .corpus import generate_corpus
from .errors import ConfigError
from .gfunction import INF, build_time_window, check_infinite_window_legal, ratio_report
from .kernel_audit import (decay_fit_space, decay_fit_time, dyadic_l1_envelope,
                           fractional_laplacian_pv, hormander_report)
from .lp_decomp import _partition_defect, block, build_decomposition, low_part
from .spectral import Field, GridSpec, SpectralField, forward_transform, inverse_transform, lp_norm
from .symbols import audit_s1, audit_s2, check_homogeneity, get_symbol

__all__ = ["ScenarioConfig", "parse_config", "run_scenario", "SCENARIOS", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"

SCENARIOS = ("AUDIT_SYMBOL", "KERNEL_DECAY", "HORMANDER", "DYADIC_ENVELOPE",
             "GFUN_RATIO", "LP_DECOMP", "FRACLAP_XCHECK", "REPRODUCE")


@dataclass
class ScenarioConfig:
    scenario: str = "GFUN_RATIO"
    symbol1: str = "heat"
    symbol2: str = "heat"
    d: int = 1
    n: int = 1024
    L: float = 32.0
    p: float = 2.0
    q: float = 2.0
    s: float = 0.0
    a: float = INF
    l: float = 0.0
    t: float = 1.0
    seed: int = 7
    corpus_kind: str = "GAUSSIAN_MIX"
    corpus_count: int = 8
    output_dir: str = "out"
    workers: int = 1
    j_min: Optional[int] = None
    j_max: Optional[int] = None
    extras: Dict[str, str] = field(default_factory=dict)

    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.n, self.L)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        try:
            self.grid()
            psi1, psi2 = get_symbol(self.symbol1), get_symbol(self.symbol2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if math.isinf(self.a):
            # mirrors the infinite-window legality table enforced at run time
            try:
                check_infinite_window_legal(psi1, psi2, self.q)
            except Exception as exc:
                raise ConfigError(f"illegal (q, a) combination: {exc}") from exc


_FLOAT_KEYS = {"L", "p", "q", "s", "l", "t"}
_INT_KEYS = {"d", "n", "seed", "corpus_count", "workers", "j_min", "j_max"}


def parse_config(path) -> ScenarioConfig:
    cfg = ScenarioConfig()
    known = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"extras"}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key == "a":
                    cfg.a = INF if value.lower() in ("inf", "infinity") else float(value)
                elif key in _FLOAT_KEYS:
                    setattr(cfg, key, float(value))
                elif key in _INT_KEYS:
                    setattr(cfg, key, int(value))
                elif key in known:
                    setattr(cfg, key, value)
                else:
                    cfg.extras[key] = value
            except ValueError:
                kind = "an integer" if key in _INT_KEYS else "a number"
                raise ConfigError(f"{path}:{lineno}: {key} must be {kind}, "
                                  f"got {value!r}") from None
    cfg.validate()
    return cfg


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _report_meta(cfg: ScenarioConfig) -> dict:
    public = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
              for k, v in dataclasses.asdict(cfg).items() if k != "extras"}
    public.update(cfg.extras)
    return {"config": public, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def _sample_xis(grid: GridSpec, rng) -> list:
    mags = np.geomspace(grid.min_freq * 2.0, grid.nyquist / 2.0, 12)
    out = []
    for m in mags:
        v = rng.standard_normal(grid.dim)
        v = np.where(np.abs(v) < 0.1, 0.1 * np.sign(v) + (v == 0) * 0.1, v)  # off hyperplanes
        out.append(m * v / np.linalg.norm(v))
    return out


def _run_audit_symbol(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    xis = _sample_xis(grid, rng)
    ts = [0.0, 0.5, 1.0, 2.0]
    rows, summary, ok = [], {}, True
    for name in dict.fromkeys([cfg.symbol1, cfg.symbol2]):
        sym = get_symbol(name)
        r1 = audit_s1(sym, ts, xis)
        r2 = audit_s2(sym, min(2, sym.n_cert), ts, xis)
        checks = {"S1": r1, "S2": r2}
        if sym.time_constant:
            checks["HOMOGENEITY"] = check_homogeneity(sym, [0.5, 2.0, 3.0], xis)
        for cond, rep in checks.items():
            expected = True if cond != "HOMOGENEITY" else sym.homogeneous
            ok = ok and (rep.passed == expected)
            rows.append((name, cond, rep.worst_violation, rep.sample_count, rep.passed))
        summary[name] = {c: {"worst_violation": r.worst_violation, "passed": r.passed}
                         for c, r in checks.items()}
    _write_csv(os.path.join(out, "audits.csv"),
               ("symbol", "condition", "worst_violation", "samples", "passed"), rows)
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "AUDIT_SYMBOL",
                 "symbols": summary, "passed": ok}, os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_kernel_decay(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    t_list = [cfg.t * 2.0**k for k in (-1, 0, 1, 2)]
    tdec = decay_fit_time(psi1, cfg.l, psi2, cfg.s, grid, t_list)
    consts = [decay_fit_space(psi1, cfg.l, psi2, cfg.s, cfg.s + dt, grid,
                              fit_window=(4.0, grid.half_extent / 2.0)).fitted_constant
              for dt in (cfg.t / 2.0, cfg.t, 2.0 * cfg.t)]
    spread = (max(consts) - min(consts)) / min(consts)
    time_ok = abs(tdec.fitted_exponent - tdec.target_exponent) <= 0.02 * abs(tdec.target_exponent)
    space_ok = spread <= 0.10
    _write_csv(os.path.join(out, "time_decay.csv"), ("t", "fitted", "target"),
               [(t, tdec.fitted_exponent, tdec.target_exponent) for t in t_list])
    _write_csv(os.path.join(out, "space_constants.csv"), ("t_multiple", "constant"),
               list(zip((0.5, 1.0, 2.0), consts)))
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "KERNEL_DECAY",
                 "time_fit": dataclasses.asdict(tdec), "space_constants": consts,
                 "space_constant_spread": spread, "passed": bool(time_ok and space_ok)},
                os.path.join(out, "summary.json"))
    return 0 if (time_ok and space_ok) else 1


def _run_hormander(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    window = build_time_window(cfg.s, cfg.a, cfg.q, psi1.gamma, psi2.gamma, n_nodes=8,
                               kappa2=psi2.kappa, xi_min=grid.min_freq,
                               xi_max=math.sqrt(grid.dim) * grid.nyquist)
    try:
        k_lo = int(cfg.extras.get("y_oct_lo", "-6"))
        k_hi = int(cfg.extras.get("y_oct_hi", "2"))
    except ValueError as exc:
        raise ConfigError(f"y_oct_lo and y_oct_hi must be integers: {exc}") from None
    ys = [np.array([2.0**k] + [0.0] * (grid.dim - 1)) for k in range(k_lo, k_hi + 1)]
    rep = hormander_report(psi1, cfg.l, psi2, cfg.s, window, cfg.q, ys, grid)
    ok = math.isfinite(rep.sup) and abs(rep.trend_slope) <= 0.1
    _write_csv(os.path.join(out, "hormander.csv"), ("y", "H"),
               list(zip(rep.y_values, rep.integrals)))
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "HORMANDER",
                 "sup": rep.sup, "trend_slope": rep.trend_slope, "passed": bool(ok)},
                os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_dyadic_envelope(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    D = build_decomposition(grid)
    j_lo = cfg.j_min if cfg.j_min is not None else max(D.j_min + 2, -6)
    j_hi = cfg.j_max if cfg.j_max is not None else min(D.j_max - 2, 5)
    rep = dyadic_l1_envelope(psi1, cfg.l, psi2, cfg.s, cfg.s + cfg.t,
                             range(j_lo, j_hi + 1), grid, D)
    slope_ok = rep.low_j_slope is not None and \
        abs(rep.low_j_slope - psi1.gamma) <= 0.05 * psi1.gamma
    ok = rep.rate > 0.0 and slope_ok
    _write_csv(os.path.join(out, "envelope.csv"), ("j", "l1_norm", "envelope", "slack"),
               [(r.j, r.l1_norm, r.envelope, r.slack) for r in rep.rows])
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "DYADIC_ENVELOPE",
                 "constant": rep.constant, "rate": rep.rate, "low_j_slope": rep.low_j_slope,
                 "passed": bool(ok)}, os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_gfun_ratio(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    entries = generate_corpus(cfg.seed, grid, cfg.corpus_kind, cfg.corpus_count,
                              mean_removed=True)
    window = build_time_window(cfg.s, cfg.a, cfg.q, psi1.gamma, psi2.gamma,
                               kappa2=psi2.kappa, xi_min=grid.min_freq,
                               xi_max=math.sqrt(grid.dim) * grid.nyquist)
    fields = [e.field for e in entries]
    rep = ratio_report(fields, cfg.p, cfg.q, psi1, cfg.l, psi2, window,
                       workers=cfg.workers)
    exact = (cfg.p == 2.0 and cfg.q == 2.0 and math.isinf(cfg.a)
             and psi1.homogeneous and psi2.homogeneous)
    if exact:
        from .gfunction import explicit_q2_constant
        target = math.sqrt(explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma))
        ok = all(abs(r - target) <= 1e-3 for r in rep.per_field)
    else:
        ok = rep.refinement_drift is not None and rep.refinement_drift < 0.05
    _write_csv(os.path.join(out, "ratios.csv"), ("field_id", "ratio"),
               list(enumerate(rep.per_field)))
    summary = rep.to_json_dict()
    summary.update({"scenario": "GFUN_RATIO", "passed": bool(ok)})
    _write_json(summary, os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_lp_decomp(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    D = build_decomposition(grid)
    part_defect = _partition_defect(D)
    entries = generate_corpus(cfg.seed, grid, cfg.corpus_kind, cfg.corpus_count,
                              mean_removed=False)
    worst_orth, worst_rec = 0.0, 0.0
    for e in entries:
        f = e.field
        l2 = lp_norm(f, 2)
        for i, j in ((D.j_min + 1, D.j_min + 3), (0, 2), (D.j_max - 3, D.j_max)):
            worst_orth = max(worst_orth, lp_norm(block(block(f, j, D), i, D), 2) / l2)
        rec = low_part(f, D).values.copy()
        for j in range(1, D.j_max + 1):
            rec += block(f, j, D).values
        worst_rec = max(worst_rec, float(np.abs(rec - f.values).max() /
                                         np.abs(f.values).max()))
    ok = part_defect <= 1e-14 and worst_orth <= 1e-12 and worst_rec <= 1e-10
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "LP_DECOMP",
                 "partition_defect": part_defect, "worst_orthogonality": worst_orth,
                 "worst_reconstruction": worst_rec, "passed": bool(ok)},
                os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_fraclap_xcheck(cfg: ScenarioConfig, out: str) -> int:
    grid = cfg.grid()
    x = grid.x_axis()
    f = Field(grid, np.exp(-(x**2) / 2.0))
    F = forward_transform(f)
    xi = grid.freq_axis()
    rows, ok = [], True
    for eta in (0.5, 1.0, 1.5):
        A = inverse_transform(SpectralField(grid, -np.abs(xi) ** eta * F.coeffs))
        B = fractional_laplacian_pv(f, eta)
        num = math.sqrt(float((np.abs(A.values - B.values) ** 2).sum()) * grid.cell_measure)
        den = math.sqrt(float((np.abs(A.values) ** 2).sum()) * grid.cell_measure)
        rel = num / den
        rows.append((eta, rel))
        ok = ok and rel < 1e-3
    _write_csv(os.path.join(out, "fraclap.csv"), ("eta", "rel_l2_discrepancy"), rows)
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "FRACLAP_XCHECK",
                 "discrepancies": {repr(e): r for e, r in rows}, "passed": bool(ok)},
                os.path.join(out, "summary.json"))
    return 0 if ok else 1


def _run_reproduce(cfg: ScenarioConfig, out: str) -> int:
    from .acceptance import run_all
    results = run_all(echo=print)
    _write_json({"schema_version": SCHEMA_VERSION, "scenario": "REPRODUCE",
                 "criteria": [dataclasses.asdict(r) for r in results],
                 "passed": all(r.passed for r in results)},
                os.path.join(out, "summary.json"))
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    "AUDIT_SYMBOL": _run_audit_symbol,
    "KERNEL_DECAY": _run_kernel_decay,
    "HORMANDER": _run_hormander,
    "DYADIC_ENVELOPE": _run_dyadic_envelope,
    "GFUN_RATIO": _run_gfun_ratio,
    "LP_DECOMP": _run_lp_decomp,
    "FRACLAP_XCHECK": _run_fraclap_xcheck,
    "REPRODUCE": _run_reproduce,
}


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario; writes artifacts to cfg.output_dir, returns exit status."""
    cfg.validate()
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    status = _RUNNERS[cfg.scenario](cfg, out)
    _write_json(_report_meta(cfg), os.path.join(out, "run_meta.json"))
    return status
