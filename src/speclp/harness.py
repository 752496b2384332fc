"""Scenario runner: flat key-value configs in, JSON reports out.

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
    corpus_kind   GAUSSIAN_MIX | BANDLIMITED_RANDOM
    corpus_count  number of corpus fields
    output_dir    where reports are written
    workers       parallelism cap for embarrassingly parallel loops

These are the fields of :class:`ScenarioConfig`, each read by its field's
type; any other key is a :class:`ConfigError`.  Ranges follow from the grid:
HORMANDER shifts by |y| = 2^k for every k with 8 * spacing <= 2^k <= L/8;
DYADIC_ENVELOPE fits the grid's blocks max(j_min+2, -6)..min(j_max-2, 5).
A grid whose dyadic range misses one of LP_DECOMP's block pairs, or one the
principal-value route rejects (FRACLAP_XCHECK, d = 1 only), is a ConfigError.

Each scenario is a measure step ``(cfg) -> (passed, summary)`` that writes
nothing, the shape of an acceptance criterion's step.  The summary holds
every measured value; a per-row value is keyed by ``repr`` of its row key
(HORMANDER's H by y, DYADIC_ENVELOPE's blocks by j).  :func:`run_scenario`
alone writes, and only two files: ``summary.json`` (the summary tagged with
schema_version, scenario and passed, no times) and ``run_meta.json``
(timestamp, measure wall time, echoed config;
for GFUN_RATIO and HORMANDER also the window geometry: node count, panel
order (set by omega, see :mod:`speclp.gfunction`), Gauss-Legendre panel
count, bottom-panel end time t_b and truncation time T;
for FRACLAP_XCHECK the principal-value quadrature: near-range panels summed
by moments and node by node, nodes per panel, series terms, and the image
sums' direct terms and Euler-Maclaurin order).
Exit status 0 means the scenario's pass criterion held.  The acceptance
criteria with a scenario twin call the same measure steps
(``acceptance.TWINS``), so each check exists once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import _kind, generate_corpus
from .errors import ConfigError, WindowError
from .gfunction import (INF, TimeWindow, _check_window, _exact_ratio, _grid_window,
                        ratio_report)
from .kernel_audit import (_pv_geometry, decay_fit_space, decay_fit_time, dyadic_l1_envelope,
                           fractional_laplacian_pv, hormander_report)
from .lp_decomp import _low_and_blocks, _partition_defect, _radial, block, build_decomposition
from .spectral import Field, GridSpec, _multiply, lp_norm
from .symbols import audit_s1, audit_s2, check_homogeneity, get_symbol

__all__ = ["ScenarioConfig", "parse_config", "run_scenario", "SCENARIOS", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1"


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

    def grid(self) -> GridSpec:
        return GridSpec(self.d, self.n, self.L)

    def window(self) -> TimeWindow:
        """The scenario's time window for its symbol pair on its grid."""
        return _grid_window(self.grid(), get_symbol(self.symbol1), get_symbol(self.symbol2),
                            self.s, self.a, self.q)

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        for key, ok, rule in (("p", self.p > 1, "exceed 1"), ("p", self.p < math.inf, "be finite"),
                              ("t", self.t > 0, "be positive"),
                              ("l", self.l >= 0, "be nonnegative"),
                              ("seed", self.seed >= 0, "be nonnegative"),
                              ("corpus_count", self.corpus_count >= 1, "be at least 1")):
            if not ok:
                raise ConfigError(f"{key} must {rule}, got {getattr(self, key)!r}")
        _kind(self.corpus_kind)
        try:
            psi1, psi2 = get_symbol(self.symbol1), get_symbol(self.symbol2)
            # the window checks q, a and s; _check_window its fit to the pair
            _check_window(psi1, psi2, self.window(), self.q)
        except (ValueError, WindowError) as exc:
            raise ConfigError(str(exc)) from exc


def parse_config(path) -> ScenarioConfig:
    cfg = ScenarioConfig()
    types = typing.get_type_hints(ScenarioConfig)
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            setattr(cfg, key, types[key](value))
        except ValueError:
            kind = "an integer" if types[key] is int else "a number"
            raise ConfigError(f"{path}:{lineno}: {key} must be {kind}, "
                              f"got {value!r}") from None
    cfg.validate()
    return cfg


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_meta(cfg: ScenarioConfig, measure_s: float) -> dict:
    public = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
              for k, v in dataclasses.asdict(cfg).items()}
    meta = {"config": public, "measure_s": measure_s,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    if cfg.scenario in ("GFUN_RATIO", "HORMANDER"):
        w = cfg.window()
        meta["window"] = {"nodes": int(w.nodes.size), "order": w.order, "panels": w.n_panels,
                          "bottom_t": w.bottom_t, "truncation_t": w.truncation_t}
    if cfg.scenario == "FRACLAP_XCHECK":
        meta["principal_value"] = _pv_geometry(cfg.grid())
    return meta


def _sample_xis(grid: GridSpec, rng) -> list:
    mags = np.geomspace(grid.min_freq * 2.0, grid.nyquist / 2.0, 12)
    out = []
    for m in mags:
        v = rng.standard_normal(grid.dim)
        v = np.where(np.abs(v) < 0.1, 0.1 * np.sign(v) + (v == 0) * 0.1, v)  # off hyperplanes
        out.append(m * v / np.linalg.norm(v))
    return out


def _measure_audit_symbol(cfg: ScenarioConfig):
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    xis = _sample_xis(grid, rng)
    ts = [0.0, 0.5, 1.0, 2.0]
    summary, ok = {}, True
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
        summary[name] = {c: {"worst_violation": r.worst_violation, "passed": r.passed}
                         for c, r in checks.items()}
    return ok, {"symbols": summary}


def _time_fit(cfg: ScenarioConfig):
    """KERNEL_DECAY's time step: the gradient-kernel sup at times s + t 2^(-1..2)
    fitted against its scaling exponent.  Returns (fit, relative error,
    passed); the fit passes within 2 %."""
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    t_list = [cfg.s + cfg.t * 2.0**k for k in (-1, 0, 1, 2)]
    tdec = decay_fit_time(psi1, cfg.l, psi2, cfg.s, cfg.grid(), t_list)
    rel = abs(tdec.fitted_exponent - tdec.target_exponent) / abs(tdec.target_exponent)
    return tdec, rel, rel <= 0.02


def _measure_kernel_decay(cfg: ScenarioConfig):
    """KERNEL_DECAY: the time fit of :func:`_time_fit`, and the space envelope
    constant of the gradient kernel over r in (4, L/2) at t/2, t and 2t, whose
    spread must stay within 10 %.

    The space check suits pairs whose gradient kernel has a power-law tail,
    such as poisson-poisson.  With heat as symbol2 the gradient kernel decays
    like a Gaussian, so a power-law constant over (4, L/2) is not stable in
    t: on n = 4096, L = 64 the spread is 2.7 for heat-heat and 0.17 for
    poisson-heat, and both fail the space check.
    """
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    tdec, _, time_ok = _time_fit(cfg)
    consts = [decay_fit_space(psi1, cfg.l, psi2, cfg.s, cfg.s + dt, grid,
                              fit_window=(4.0, grid.half_extent / 2.0)).fitted_constant
              for dt in (cfg.t / 2.0, cfg.t, 2.0 * cfg.t)]
    spread = (max(consts) - min(consts)) / min(consts)
    return time_ok and spread <= 0.10, {"time_fit": dataclasses.asdict(tdec),
                                        "space_constants": consts,
                                        "space_constant_spread": spread}


def _measure_hormander(cfg: ScenarioConfig):
    grid = cfg.grid()
    # hormander_report resolves |y| >= 8 * spacing; |y| <= L/8 keeps the region
    # |x| >= 2|y| at three quarters of the box; the trend slope is fit over at
    # least 6 octaves of y
    k_lo = math.ceil(math.log2(8.0 * grid.spacing))
    k_hi = math.floor(math.log2(grid.half_extent / 8.0))
    if k_hi - k_lo < 6:
        raise ConfigError(f"HORMANDER shifts |y| = 2^k with 8*spacing <= 2^k <= L/8 must "
                          f"span at least 6 octaves; n = {cfg.n}, L = {cfg.L} gives "
                          f"k = {k_lo}..{k_hi}")
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    window = cfg.window()
    ys = [np.array([2.0**k] + [0.0] * (grid.dim - 1)) for k in range(k_lo, k_hi + 1)]
    rep = hormander_report(psi1, cfg.l, psi2, cfg.s, window, cfg.q, ys, grid)
    ok = math.isfinite(rep.sup) and abs(rep.trend_slope) <= 0.1
    return ok, {"sup": rep.sup, "trend_slope": rep.trend_slope,
                "H": {repr(y): h for y, h in zip(rep.y_values, rep.integrals)}}


def _measure_dyadic_envelope(cfg: ScenarioConfig):
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    D = build_decomposition(grid)
    js = range(max(D.j_min + 2, -6), min(D.j_max - 2, 5) + 1)
    rep = dyadic_l1_envelope(psi1, cfg.l, psi2, cfg.s, cfg.s + cfg.t, js, grid, D)
    slope_ok = rep.low_j_slope is not None and \
        abs(rep.low_j_slope - psi1.gamma) / psi1.gamma <= 0.05
    blocks = {repr(r.j): {"l1_norm": r.l1_norm, "envelope": r.envelope, "slack": r.slack}
              for r in rep.rows}
    return rep.rate > 0.0 and slope_ok, {"constant": rep.constant, "rate": rep.rate,
                                         "low_j_slope": rep.low_j_slope, "blocks": blocks}


def _measure_gfun_ratio(cfg: ScenarioConfig):
    grid = cfg.grid()
    psi1, psi2 = get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    entries = generate_corpus(cfg.seed, grid, cfg.corpus_kind, cfg.corpus_count,
                              mean_removed=True)
    window = cfg.window()
    rep = ratio_report([e.field for e in entries], cfg.p, cfg.q, psi1, cfg.l, psi2, window,
                       workers=cfg.workers)
    if (cfg.p == 2.0 and cfg.q == 2.0 and math.isinf(cfg.a)
            and psi1.homogeneous and psi2.homogeneous):
        target = _exact_ratio(psi1, psi2)
        ok = all(abs(r - target) <= 1e-3 for r in rep.per_field)
    else:
        ok = rep.refinement_drift is not None and rep.refinement_drift < 0.05
    return ok, rep.to_json_dict()


def _measure_lp_decomp(cfg: ScenarioConfig):
    """Partition of unity, block orthogonality on six pairs of blocks two or
    more apart, and reconstruction error, the larger of relative L2 and sup."""
    grid = cfg.grid()
    D = build_decomposition(grid)
    pairs = ((D.j_min, D.j_min + 2), (D.j_min + 1, D.j_min + 3), (0, 2), (1, 4),
             (D.j_max - 3, D.j_max), (D.j_max - 2, D.j_max))
    outside = sorted({j for pair in pairs for j in pair} - set(D.j_range))
    if outside:
        raise ConfigError(f"LP_DECOMP's block pairs need j = {outside}, outside the grid's "
                          f"dyadic range [{D.j_min}, {D.j_max}]")
    part_defect = _partition_defect(D)
    entries = generate_corpus(cfg.seed, grid, cfg.corpus_kind, cfg.corpus_count,
                              mean_removed=False)
    worst_orth, worst_rec = 0.0, 0.0
    for e in entries:
        f = e.field
        l2 = lp_norm(f, 2)
        for i, j in pairs:
            worst_orth = max(worst_orth, lp_norm(block(block(f, j, D), i, D), 2) / l2)
        parts = _low_and_blocks(f, D, 1)
        low = next(parts).values
        err = sum((g.values for g in parts), low) - f.values
        worst_rec = max(worst_rec, float(np.linalg.norm(err) / np.linalg.norm(f.values)),
                        float(np.abs(err).max() / np.abs(f.values).max()))
    ok = part_defect <= 1e-14 and worst_orth <= 1e-12 and worst_rec <= 1e-10
    return ok, {"partition_defect": part_defect, "worst_orthogonality": worst_orth,
                "worst_reconstruction": worst_rec}


def _measure_fraclap_xcheck(cfg: ScenarioConfig):
    """Relative L2 discrepancy of the principal-value fractional Laplacian
    against the -|xi|^eta multiplier on a unit Gaussian, eta = 0.5, 1, 1.5."""
    if cfg.d != 1:
        raise ConfigError(f"FRACLAP_XCHECK runs in d = 1 only, got d = {cfg.d}")
    grid = cfg.grid()
    f = Field(grid, np.exp(-(grid.x_axis() ** 2) / 2.0))
    discrepancies = {}
    for eta in (0.5, 1.0, 1.5):
        try:
            B = fractional_laplacian_pv(f, eta).values
        except ValueError as exc:  # a grid off the split at y = 1
            raise ConfigError(str(exc)) from exc
        A = _multiply(f, _radial(grid, lambda rho: -rho**eta)).values
        discrepancies[repr(eta)] = (math.sqrt(float((np.abs(A - B) ** 2).sum()))
                                    / math.sqrt(float((np.abs(A) ** 2).sum())))
    return (all(r < 1e-3 for r in discrepancies.values()),
            {"discrepancies": discrepancies})


def _measure_reproduce(cfg: ScenarioConfig):
    from .acceptance import run_all
    results = run_all(echo=print)
    return all(r.passed for r in results), {
        "criteria": [{k: v for k, v in dataclasses.asdict(r).items() if k != "runtime_s"}
                     for r in results]}


# each measure step returns (passed, summary), as a criterion's step does
_MEASURES = {
    "AUDIT_SYMBOL": _measure_audit_symbol,
    "KERNEL_DECAY": _measure_kernel_decay,
    "HORMANDER": _measure_hormander,
    "DYADIC_ENVELOPE": _measure_dyadic_envelope,
    "GFUN_RATIO": _measure_gfun_ratio,
    "LP_DECOMP": _measure_lp_decomp,
    "FRACLAP_XCHECK": _measure_fraclap_xcheck,
    "REPRODUCE": _measure_reproduce,
}

SCENARIOS = tuple(_MEASURES)


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one scenario; writes summary.json and run_meta.json to
    cfg.output_dir, returns exit status."""
    cfg.validate()
    out = cfg.output_dir
    # before the measure step, which may run for minutes, and without creating it
    if any(os.path.exists(p) and not os.path.isdir(p) for p in (out, *Path(out).parents)):
        raise ConfigError(f"output directory {out} is a file or lies under one")
    t0 = time.perf_counter()
    passed, summary = _MEASURES[cfg.scenario](cfg)
    meta = _report_meta(cfg, time.perf_counter() - t0)
    os.makedirs(out, exist_ok=True)
    _write_json({**summary, "schema_version": SCHEMA_VERSION, "scenario": cfg.scenario,
                 "passed": bool(passed)}, os.path.join(out, "summary.json"))
    _write_json(meta, os.path.join(out, "run_meta.json"))
    return 0 if passed else 1
