"""Evolution multipliers exp(int_s^t psi(r, xi) dr) and their kernels.

The two-parameter operator family T(t, s) acts on a field f as

    T(t, s) f = Finv( exp(int_s^t psi2(r, xi) dr) * F(f) ),

optionally pre-composed with a second multiplier psi1(l, xi).  The
composition law T(t, r) T(r, s) = T(t, s) holds exactly at the level of the
frequency multipliers, which is what :func:`verify_composition` measures.

Kernel normalization: the convolution kernel K with T f = K * f (Riemann-sum
convolution) is (2 pi)^(-d/2) times the inverse transform of the multiplier;
:func:`kernel_field` returns K so that closed forms like the heat kernel
(4 pi t)^(-d/2) e^(-|x|^2 / 4t) come out on the nose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy.special import roots_legendre

from .errors import MultiplierError, QuadratureError
from .spectral import (Field, GridSpec, SpectralField, _drop_residue, _multiply,
                       inverse_transform, save_field)
from .symbols import SymbolSpec

__all__ = [
    "TimeIntegralRule",
    "EvolutionMultiplier",
    "build_multiplier",
    "multiplier_values",
    "apply_evolution",
    "kernel_field",
    "verify_composition",
    "KERNEL_SCALE",
]

_REL_FLOOR = 1e-280


def KERNEL_SCALE(d: int) -> float:
    """Factor mapping Finv(multiplier) to the convolution kernel."""
    return (2.0 * np.pi) ** (-d / 2.0)


@dataclass(frozen=True)
class TimeIntegralRule:
    """Quadrature rule for int_s^t psi(r, xi) dr.

    method is one of "exact" (time-constant symbols only), "gauss"
    (Gauss-Legendre with ``order`` nodes, doubled while successive estimates
    differ by more than ``tolerance`` relative if ``adaptive``), or
    "trapezoid" with ``order`` panels.
    """

    method: str = "gauss"
    order: int = 8
    tolerance: float = 1e-10
    adaptive: bool = True

    def __post_init__(self):
        if self.method not in ("exact", "gauss", "trapezoid"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.order < 1:
            raise ValueError("order must be positive")

    @classmethod
    def exact(cls) -> "TimeIntegralRule":
        return cls(method="exact")

    @classmethod
    def gauss_legendre(cls, order: int = 8, tolerance: float = 1e-10,
                       adaptive: bool = True) -> "TimeIntegralRule":
        return cls(method="gauss", order=order, tolerance=tolerance, adaptive=adaptive)

    @classmethod
    def trapezoid(cls, panels: int = 64, tolerance: float = 1e-10) -> "TimeIntegralRule":
        return cls(method="trapezoid", order=panels, tolerance=tolerance, adaptive=False)


def default_rule(psi: SymbolSpec) -> TimeIntegralRule:
    return TimeIntegralRule.exact() if psi.time_constant else TimeIntegralRule.gauss_legendre()


@lru_cache(maxsize=16)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights, read-only: every caller shares them."""
    nodes, weights = roots_legendre(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _gauss_integral(psi: SymbolSpec, s: float, t: float, xi: np.ndarray, order: int) -> np.ndarray:
    nodes, weights = _legendre(order)
    mid, half = 0.5 * (s + t), 0.5 * (t - s)
    acc = np.zeros(xi.shape[1:], dtype=np.complex128)
    for z, w in zip(nodes, weights):
        acc += w * psi(mid + half * z, xi)
    return half * acc


def integrate_symbol(psi: SymbolSpec, s: float, t: float, xi: np.ndarray,
                     rule: TimeIntegralRule) -> np.ndarray:
    """Approximate int_s^t psi(r, xi) dr on the stacked frequency array."""
    if rule.method == "exact":
        if not psi.time_constant:
            raise ValueError("exact rule requires a time-constant symbol")
        return (t - s) * np.asarray(psi(s, xi), dtype=np.complex128)
    if rule.method == "trapezoid":
        from scipy.integrate import trapezoid  # np.trapz is gone in numpy 2
        rs = np.linspace(s, t, rule.order + 1)
        vals = np.stack([np.asarray(psi(r, xi), dtype=np.complex128) for r in rs])
        return trapezoid(vals, rs, axis=0)
    est = _gauss_integral(psi, s, t, xi, rule.order)
    if not rule.adaptive:
        return est
    order = rule.order
    for _ in range(10):
        order *= 2
        nxt = _gauss_integral(psi, s, t, xi, order)
        rel = np.abs(nxt - est) / (np.abs(nxt) + _REL_FLOOR)
        if rel.max() < rule.tolerance:
            return nxt
        est = nxt
    worst = tuple(np.argwhere(rel == rel.max())[0])
    xi_bad = tuple(xi[(slice(None),) + worst])
    raise QuadratureError(f"time quadrature did not converge; worst xi={xi_bad}")


@dataclass(frozen=True, eq=False)
class EvolutionMultiplier:
    """Frequency multiplier of psi1(l, .) T_psi2(t, s) on a grid's lattice."""

    grid: GridSpec
    s: float
    t: float
    values: np.ndarray
    psi2_name: str
    pre_name: Optional[str] = None
    pre_l: Optional[float] = None


def multiplier_values(psi2: SymbolSpec, s: float, t: float, grid: GridSpec,
                      rule: Optional[TimeIntegralRule] = None,
                      pre: Optional[Tuple[SymbolSpec, float]] = None) -> np.ndarray:
    """Raw multiplier array [psi1(l, xi)] * exp(int_s^t psi2(r, xi) dr)."""
    if not (t > s >= 0):
        raise ValueError(f"need t > s >= 0, got s={s}, t={t}")
    rule = rule or default_rule(psi2)
    xi = grid.xi_stack()
    vals = np.exp(integrate_symbol(psi2, s, t, xi, rule))
    if pre is not None:
        psi1, l = pre
        vals = vals * np.asarray(psi1(l, xi), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        raise MultiplierError(f"multiplier non-finite at xi={tuple(xi[(slice(None),) + idx])}")
    return vals


def build_multiplier(psi2: SymbolSpec, s: float, t: float, grid: GridSpec,
                     rule: Optional[TimeIntegralRule] = None,
                     pre: Optional[Tuple[SymbolSpec, float]] = None) -> EvolutionMultiplier:
    vals = multiplier_values(psi2, s, t, grid, rule, pre)
    return EvolutionMultiplier(
        grid=grid, s=float(s), t=float(t), values=vals, psi2_name=psi2.name,
        pre_name=None if pre is None else pre[0].name,
        pre_l=None if pre is None else float(pre[1]),
    )


def apply_evolution(f: Field, mult: EvolutionMultiplier) -> Field:
    """Apply the evolution operator to a field via its frequency multiplier.

    A real f gives a real (float64) output, its imaginary residue discarded,
    when that residue is at most 1e-10 of the result's largest magnitude, as
    a conjugate-symmetric multiplier leaves it.  Otherwise, and for any
    complex f, the output is complex128.
    """
    if f.grid != mult.grid:
        raise ValueError("field and multiplier grids do not match")
    return _multiply(f, mult.values)


def kernel_field(psi1_l: Optional[Tuple[SymbolSpec, float]], psi2: SymbolSpec,
                 s: float, t: float, grid: GridSpec,
                 rule: Optional[TimeIntegralRule] = None) -> Field:
    """Convolution kernel of [psi1(l, .)] T_psi2(t, s), sampled on the grid.

    The Riemann sum of the kernel equals the multiplier at xi = 0 (zero when
    a pre-symbol is present, since built-ins vanish at the origin).
    """
    mult = multiplier_values(psi2, s, t, grid, rule, psi1_l)
    return _drop_residue(inverse_transform(SpectralField(grid, mult * KERNEL_SCALE(grid.dim))))


def verify_composition(psi2: SymbolSpec, s: float, r: float, t: float, grid: GridSpec,
                       rule: Optional[TimeIntegralRule] = None) -> float:
    """Max relative defect of M(t,s) = M(t,r) * M(r,s) over the lattice."""
    if not (s <= r <= t):
        raise ValueError(f"need s <= r <= t, got {s}, {r}, {t}")
    full = multiplier_values(psi2, s, t, grid, rule)
    ones = np.ones(grid.shape, dtype=np.complex128)
    left = ones if r == t else multiplier_values(psi2, r, t, grid, rule)
    right = ones if r == s else multiplier_values(psi2, s, r, grid, rule)
    err = np.abs(full - left * right) / (np.abs(full) + _REL_FLOOR)
    return float(err.max())


def _write_sidecar(path, rule: Optional[TimeIntegralRule], **meta) -> None:
    """Write the run metadata plus the rule as JSON next to a dumped field."""
    meta["rule"] = None if rule is None else {"method": rule.method, "order": rule.order,
                                              "tolerance": rule.tolerance}
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_multiplier(mult: EvolutionMultiplier, path,
                    rule: Optional[TimeIntegralRule] = None) -> None:
    """Write multiplier values in the field binary format plus a JSON sidecar
    with the run metadata (symbol names, s, t, rule)."""
    save_field(Field(mult.grid, mult.values), path)
    _write_sidecar(path, rule, kind="multiplier", psi2=mult.psi2_name, pre=mult.pre_name,
                   l=mult.pre_l, s=mult.s, t=mult.t)


def dump_kernel(psi1_l: Optional[Tuple[SymbolSpec, float]], psi2: SymbolSpec,
                s: float, t: float, grid: GridSpec, path,
                rule: Optional[TimeIntegralRule] = None) -> Field:
    """Materialize the convolution kernel, write it plus a JSON sidecar."""
    K = kernel_field(psi1_l, psi2, s, t, grid, rule)
    save_field(K, path)
    _write_sidecar(path, rule, kind="kernel", psi2=psi2.name,
                   pre=None if psi1_l is None else psi1_l[0].name,
                   l=None if psi1_l is None else float(psi1_l[1]), s=float(s), t=float(t))
    return K
