"""Evolution multipliers exp(int_s^t psi(r, xi) dr) and their kernels.

The two-parameter operator family T(t, s) acts on a field f as

    T(t, s) f = Finv( exp(int_s^t psi2(r, xi) dr) * F(f) ),

optionally pre-composed with a second multiplier psi1(l, xi).  The
composition law T(t, r) T(r, s) = T(t, s) holds exactly at the level of the
frequency multipliers, which is what :func:`verify_composition` measures.

Time integrals of a time-dependent symbol are Gauss-Legendre sums over
nodes r_i of psi(r_i, xi) = factor(r_i) phi, from
:func:`speclp.symbols._at` on a stack or :func:`speclp.symbols._on_lattice`
on a grid's lattice (:func:`multiplier_values`); only they know
separability.  A general symbol's factor is psi itself on
the lattice.  A separable symbol's factor is its scalar time factor, so its
integral is a sum over Python scalars times its spatial part, evaluated
once: one lattice product per integral, with adaptive doubling decided on
the scalars.

Kernel normalization: the convolution kernel K with T f = K * f (Riemann-sum
convolution) is (2 pi)^(-d/2) times the inverse transform of the multiplier;
:func:`kernel_field` returns K so that closed forms like the heat kernel
(4 pi t)^(-d/2) e^(-|x|^2 / 4t) come out on the nose.

Realness follows two rules here.  A kernel is real exactly when its
multiplier passes the Hermitian test of :func:`_kernel_multiplier`, and is
then synthesized on the ``rfftn`` half lattice as float64.  An evolution of
a real field keeps the residue rule of :func:`_drop_residue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import MultiplierError, QuadratureError
from .spectral import Field, GridSpec, _hermitian, _lattice, _spectrum, _synthesize
from .symbols import SymbolSpec, _at, _on_lattice

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
_TOLERANCE = 1e-10  # relative change at which adaptive doubling stops
# Newton steps on a Gauss rule's nodes stop once every step is below this; the
# node error left is then below (step)^2 / (1 - x^2), sub-ulp to order 8192.
# A start that has not settled after _NEWTON_STEPS steps raises.
_NEWTON_STEP = 1e-12
_NEWTON_STEPS = 20


def KERNEL_SCALE(d: int) -> float:
    """Factor mapping Finv(multiplier) to the convolution kernel."""
    return (2.0 * np.pi) ** (-d / 2.0)


@dataclass(frozen=True)
class TimeIntegralRule:
    """Gauss-Legendre rule for int_s^t psi(r, xi) dr of a time-dependent symbol.

    ``order`` nodes on [s, t], doubled while successive estimates differ by
    more than ``_TOLERANCE`` relative if ``adaptive``.  A time-constant symbol
    ignores the rule: :func:`integrate_symbol` integrates it in closed form.
    """

    order: int = 8
    adaptive: bool = True

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")

    @classmethod
    def gauss_legendre(cls, order: int = 8, adaptive: bool = True) -> "TimeIntegralRule":
        return cls(order=order, adaptive=adaptive)


def _jacobi_recurrence(order: int, beta: float, x: np.ndarray):
    """P_n(x) and (1 - x^2) P_n'(x) for the Jacobi polynomial P_n^(0, beta),
    n = ``order``, by the three-term recurrence (P_n(1) = 1)."""
    p0, p = np.ones_like(x), 0.5 * ((beta + 2.0) * x - beta)
    for j in range(2, order + 1):
        c = 2.0 * j + beta
        p0, p = p, (((c - 1.0) * (c * (c - 2.0) * x - beta * beta) * p
                     - 2.0 * (j - 1.0) * (j - 1.0 + beta) * c * p0)
                    / (2.0 * j * (j + beta) * (c - 2.0)))
    c = 2.0 * order + beta
    return p, order * (2.0 * (order + beta) * p0 - (beta + c * x) * p) / c


def _gauss_rule(order: int, beta: float, x: np.ndarray):
    """Gauss nodes and weights for the weight (1 + x)^beta on [-1, 1], by
    Newton's method on P_n^(0, beta) from starting nodes ``x``, and the
    classical weights 2^(beta + 1) / ((1 - x^2) P_n'(x)^2) at the nodes.
    1 - x^2 is formed as (1 - x)(1 + x), exact near the ends of [-1, 1]."""
    for _ in range(_NEWTON_STEPS):
        p, d = _jacobi_recurrence(order, beta, x)
        dx = p * (1.0 - x) * (1.0 + x) / d
        x = x - dx
        if np.abs(dx).max() <= _NEWTON_STEP:
            break
    else:
        raise QuadratureError(f"Gauss rule of order {order} did not converge")
    d = _jacobi_recurrence(order, beta, x)[1]
    return x, 2.0 ** (beta + 1.0) * (1.0 - x) * (1.0 + x) / d**2


@lru_cache(maxsize=16)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights, read-only: every caller shares them.

    :func:`_gauss_rule` from the guesses cos(pi (k - 1/4) / (order + 1/2)) on
    the nonnegative half of the nodes, mirrored, so the nodes are exactly
    antisymmetric and the weights exactly symmetric: O(order^2) work.
    """
    k = np.arange(1, (order + 1) // 2 + 1)
    half = np.cos(np.pi * (k - 0.25) / (order + 0.5))  # decreasing, > 0
    if order % 2:
        half[-1] = 0.0  # P_n(0) = 0 exactly for odd n
    half, w = _gauss_rule(order, 0.0, half)
    nodes = np.concatenate([-half[: order // 2], half[::-1]])
    weights = np.concatenate([w[: order // 2], w[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _dyadic_panels(edges, order: int):
    """Gauss-Legendre points and weights with ``order`` nodes on each panel
    [edges[k], edges[k + 1]], concatenated panel by panel."""
    z, w = _legendre(order)
    edges = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * z).ravel(), (half[:, None] * w).ravel()


def _gauss_integral(fn, s: float, t: float, order: int):
    """Gauss-Legendre estimate of int_s^t fn(r) dr, summed in node order: a
    Python float for a scalar fn, an array for a lattice one."""
    nodes, weights = _legendre(order)
    mid, half = 0.5 * (s + t), 0.5 * (t - s)
    acc = 0.0
    for z, w in zip(nodes.tolist(), weights.tolist()):
        acc = acc + w * fn(mid + half * z)
    return half * acc


def integrate_symbol(psi: SymbolSpec, s: float, t: float, xi: np.ndarray,
                     rule: TimeIntegralRule) -> np.ndarray:
    """int_s^t psi(r, xi) dr on the stacked frequency array.

    Exactly (t - s) psi(s, xi) for a time-constant symbol, whatever the rule;
    otherwise the rule's Gauss-Legendre estimate of the integral of
    :func:`_at`'s factor(r), times its phi for a separable symbol.
    """
    return _integral(psi, s, t, _at(psi, xi), rule)


def _integral(psi: SymbolSpec, s: float, t: float, sampled, rule: TimeIntegralRule):
    """:func:`integrate_symbol` on the samples of ``sampled``, a
    :class:`speclp.symbols._Sampled` of psi (a stack's or a lattice's)."""
    if psi.time_constant:
        return (t - s) * sampled(s)
    factor, phi, point = sampled
    est = _gauss_integral(factor, s, t, rule.order)
    if rule.adaptive:
        est = _doubled(factor, phi, s, t, rule.order, est, point)
    return est if phi is None else est * phi


def _doubled(factor, phi, s: float, t: float, order: int, est, point):
    """The integral of factor once doubling the order from ``est`` changes it
    by less than ``_TOLERANCE`` relative at every xi.

    A separable estimate A phi changes by |dA| |phi|, and |dA| x / (|A| x +
    floor) grows with x, so the test runs on the scalars at x = P = max|phi|
    (P = 1 for a lattice factor), and a failure names the first xi of largest
    |phi| (``point`` maps an index of the values to its xi).
    """
    peak = 1.0 if phi is None else float(np.abs(phi).max(initial=0.0))
    for _ in range(10):
        order *= 2
        nxt = _gauss_integral(factor, s, t, order)
        rel = np.abs(nxt - est) * peak / (np.abs(nxt) * peak + _REL_FLOOR)
        if rel.max() < _TOLERANCE:
            return nxt
        est = nxt
    worst = rel if phi is None else np.abs(phi)
    xi_bad = point(np.unravel_index(np.argmax(worst), worst.shape))
    raise QuadratureError(f"time quadrature did not converge; worst xi={xi_bad}")


@dataclass(frozen=True, eq=False)
class EvolutionMultiplier:
    """Frequency multiplier of psi1(l, .) T_psi2(t, s) on a grid's lattice."""

    grid: GridSpec
    values: np.ndarray


def multiplier_values(psi2: SymbolSpec, s: float, t: float, grid: GridSpec,
                      rule: TimeIntegralRule = TimeIntegralRule(),
                      pre: Optional[Tuple[SymbolSpec, float]] = None) -> np.ndarray:
    """Raw multiplier array [psi1(l, xi)] * exp(int_s^t psi2(r, xi) dr).

    The time integral is :func:`integrate_symbol`'s: closed form for a
    time-constant psi2, else ``rule`` (adaptive Gauss-Legendre 8 by default).
    """
    if not (t > s >= 0):
        raise ValueError(f"need t > s >= 0, got s={s}, t={t}")
    sampled = _on_lattice(psi2, grid)
    vals = _integral(psi2, s, t, sampled, rule)  # a new array: exp runs in place
    np.exp(vals, out=vals)
    if pre is not None:
        psi1, l = pre
        m = _on_lattice(psi1, grid)(l)
        vals = np.multiply(vals, m, out=vals if vals.dtype == np.result_type(vals, m) else None)
    finite = np.isfinite(vals)
    if not finite.all():
        raise MultiplierError(f"multiplier non-finite at xi="
                              f"{sampled.point(tuple(np.argwhere(~finite)[0]))}")
    return vals


def build_multiplier(psi2: SymbolSpec, s: float, t: float, grid: GridSpec,
                     pre: Optional[Tuple[SymbolSpec, float]] = None) -> EvolutionMultiplier:
    return EvolutionMultiplier(grid, multiplier_values(psi2, s, t, grid, pre=pre))


def _drop_residue(grid: GridSpec, values: np.ndarray) -> Field:
    """Field of the values of a real input's evolution: real when their
    imaginary residue is at most 1e-10 of their largest magnitude.

    This is the real-output rule of :func:`apply_evolution`, for multipliers
    of unknown symmetry (a symbol may carry a drift i xi).  A
    conjugate-symmetric multiplier leaves only round-off there, unless the
    result itself is round-off.
    """
    scale = np.abs(values).max()
    real = scale == 0.0 or np.abs(values.imag).max() <= 1e-10 * scale
    return Field(grid, values.real if real else values)


def _kernel_multiplier(psi2: SymbolSpec, s: float, t: float, grid: GridSpec,
                       pre: Optional[Tuple[SymbolSpec, float]] = None):
    """(mult, half): the multiplier of [psi1(l, .)] T_psi2(t, s) on
    ``_lattice(grid, half)``, ``half`` true when it is exactly Hermitian
    (:func:`speclp.spectral._hermitian`), so that its kernels are real."""
    mult = multiplier_values(psi2, s, t, grid, pre=pre)
    half = _hermitian(mult)
    return mult[_lattice(grid, half)], half


def _kernel(grid: GridSpec, mult: np.ndarray, half: bool,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Natural-order kernel samples of mult on ``_lattice(grid, half)``, in
    ``out`` if given (see :func:`speclp.spectral._synthesize`).

    mult is scaled in place, and is scratch to the synthesis: every caller
    hands over a product it does not keep."""
    mult *= KERNEL_SCALE(grid.dim)
    return _synthesize(grid, mult, half, out=out)


def apply_evolution(f: Field, mult: EvolutionMultiplier) -> Field:
    """Apply the evolution operator to a field via its frequency multiplier.

    A real f gives a float64 output when :func:`_drop_residue` allows it;
    otherwise, and for any complex f, the output is complex128.
    """
    if f.grid != mult.grid:
        raise ValueError("field and multiplier grids do not match")
    vals = _synthesize(f.grid, _spectrum(f) * mult.values)
    return _drop_residue(f.grid, vals) if np.isrealobj(f.values) else Field(f.grid, vals)


def kernel_field(psi1_l: Optional[Tuple[SymbolSpec, float]], psi2: SymbolSpec,
                 s: float, t: float, grid: GridSpec) -> Field:
    """Convolution kernel of [psi1(l, .)] T_psi2(t, s), sampled on the grid.

    The Riemann sum of the kernel equals the multiplier at xi = 0 (zero when
    a pre-symbol is present, since built-ins vanish at the origin).  The
    kernel is float64 when the multiplier is exactly Hermitian (see
    :func:`_kernel_multiplier`), else complex128.
    """
    return Field(grid, _kernel(grid, *_kernel_multiplier(psi2, s, t, grid, psi1_l)))


def verify_composition(psi2: SymbolSpec, s: float, r: float, t: float, grid: GridSpec,
                       rule: TimeIntegralRule = TimeIntegralRule()) -> float:
    """Max relative defect of M(t,s) = M(t,r) * M(r,s) over the lattice."""
    if not (s <= r <= t):
        raise ValueError(f"need s <= r <= t, got {s}, {r}, {t}")
    full = multiplier_values(psi2, s, t, grid, rule)
    left = 1.0 if r == t else multiplier_values(psi2, r, t, grid, rule)
    right = 1.0 if r == s else multiplier_values(psi2, s, r, grid, rule)
    err = np.abs(full - left * right) / (np.abs(full) + _REL_FLOOR)
    return float(err.max())
