"""Frequency symbols of multiplier operators and their numerical audits.

A symbol is a function psi(t, xi) -> C together with certificate parameters
(kappa, mu, gamma, n_cert):

* ellipticity:      Re psi(t, xi) <= -kappa |xi|^gamma,
* derivative decay: |d^alpha_xi psi(t, xi)| <= mu |xi|^(gamma - |alpha|)
  for every multi-index with |alpha| <= n_cert, off the coordinate
  hyperplanes.

Symbols are evaluated on stacks: xi of shape (d, ...) gives values of shape
(...), so a single point of shape (d,) gives a 0-d array.

A symbol may also declare a separable form psi(t, xi) = time_factor(t) *
spatial(xi), with a real scalar time factor (``power-t``: -(1 + t) times
|xi|^gamma).  ``eval_fn`` must then be that product, computed as
``time_factor(t) * spatial(xi)``.  Only :func:`_at` knows separability;
every time integral takes psi through it as a factor of t times a lattice,
so a separable symbol's time integral is a Gauss sum over Python scalars
times its spatial part, evaluated once: one lattice product per integral,
not a lattice pass per time node.

The audits below are falsifiers over finite sample sets, not proofs: they
search for the worst violation of each certificate on the supplied (t, xi)
samples, evaluated as one (d, N) stack, and report it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SymbolEvalError

__all__ = [
    "SymbolSpec",
    "AuditReport",
    "eval_symbol",
    "audit_s1",
    "audit_s2",
    "check_homogeneity",
    "get_symbol",
    "power_symbol",
    "power_t_symbol",
    "BUILTIN_NAMES",
]

S1_DEFAULT_TOL = 1e-6  # absolute
S2_DEFAULT_TOL = 1e-3  # relative; finite-difference noise dominates
S2_DEFAULT_STEP = 1e-4  # step factor: h = S2_DEFAULT_STEP * max(|xi|, 1) per axis
HOMOGENEITY_DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class SymbolSpec:
    """A symbol psi(t, xi) with its certificate parameters.

    ``eval_fn(t, xi)`` takes a scalar time and a stack xi of shape (d, ...)
    whose first axis indexes the d frequency components; it returns an
    array of the remaining shape, 0-d for a single point of shape (d,).
    Symbols must be defined at xi = 0 (built-ins use psi(t, 0) = 0, the
    limit of the power families).

    ``time_factor(t)`` (a real scalar) and ``spatial(xi)`` (a stack, as
    ``eval_fn`` returns) declare a separable symbol; give both or neither.
    """

    name: str
    eval_fn: Callable[[float, np.ndarray], np.ndarray]
    kappa: float
    mu: float
    gamma: float
    n_cert: int
    time_constant: bool = False
    homogeneous: bool = False
    time_factor: Optional[Callable[[float], float]] = None
    spatial: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (self.kappa > 0 and self.mu > 0 and self.gamma > 0):
            raise ValueError("kappa, mu, gamma must be positive")
        if self.n_cert < 1:
            raise ValueError("n_cert must be at least 1")
        if (self.time_factor is None) != (self.spatial is None):
            raise ValueError("a separable symbol needs both time_factor and spatial")

    def __call__(self, t: float, xi) -> np.ndarray:
        return eval_symbol(self, t, xi)


def eval_symbol(spec: SymbolSpec, t: float, xi) -> np.ndarray:
    """Evaluate psi(t, xi) on a stack; raises SymbolEvalError on non-finite output.

    ``xi`` has shape (d, ...), its first axis holding the d frequency
    components, and the result has the remaining shape: a single point of
    shape (d,) gives a 0-d array.  Values keep the symbol's own kind: float64
    when ``eval_fn`` returns real values, complex128 only when it returns
    complex ones.
    """
    _check_time(t)
    xi = np.asarray(xi, dtype=float)
    out = np.asarray(spec.eval_fn(float(t), xi))
    out = out.astype(np.result_type(out, np.float64), copy=False)
    if not np.all(np.isfinite(out)):
        bad = tuple(np.argwhere(~np.isfinite(out))[0])
        raise _non_finite(spec, t, xi, bad)
    return out


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")


def _non_finite(spec: SymbolSpec, t: float, xi: np.ndarray, index: tuple) -> SymbolEvalError:
    return SymbolEvalError(f"symbol {spec.name!r} non-finite at t={t}, "
                           f"xi={tuple(xi[(slice(None),) + index])}")


def _at(spec: SymbolSpec, xi):
    """psi(., xi) as (factor, phi) with psi(t, xi) = factor(t) * phi.

    A general symbol gives phi = None and factor(t) = eval_symbol(spec, t, xi),
    with its bits and checks.  A separable symbol gives its spatial part phi,
    evaluated once, and factor(t) = time_factor(t), a Python float checked
    without a pass over phi: t >= 0 (ValueError), and a finite product
    (SymbolEvalError naming t and the first bad xi), which fails exactly when
    time_factor(t) times the largest part of phi is not finite.
    """
    if spec.spatial is None:
        return (lambda t: eval_symbol(spec, t, xi)), None
    xi = np.asarray(xi, dtype=float)
    phi = np.asarray(spec.spatial(xi))
    phi = phi.astype(np.result_type(phi, np.float64), copy=False)
    parts = np.abs(phi) if np.isrealobj(phi) else np.maximum(np.abs(phi.real), np.abs(phi.imag))
    peak = float(np.max(parts, initial=0.0))  # nan or inf when phi is not finite

    def factor(t: float) -> float:
        _check_time(t)
        c = float(spec.time_factor(float(t)))
        if not math.isfinite(c * peak):
            raise _non_finite(spec, t, xi, tuple(np.argwhere(~np.isfinite(c * phi))[0]))
        return c

    return factor, phi


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one certificate audit over a finite sample set."""

    condition: str  # "S1" | "S2" | "HOMOGENEITY"
    worst_violation: float
    worst_point: tuple  # (t, xi, multi-index or None)
    sample_count: int
    passed: bool
    tolerance: float


def _check_samples(xi_samples, off_hyperplanes=False) -> np.ndarray:
    """The frequency samples as one (d, N) stack, sample i in column i; each
    sample finite and nonzero, with |xi|^2 inside the float range."""
    pts = np.asarray(xi_samples, dtype=float)  # ValueError if their sizes differ
    if pts.size == 0:
        raise ValueError("empty frequency sample set")
    pts = pts.reshape(len(pts), -1).T
    if not np.isfinite(pts).all():
        raise ValueError("samples must be finite")
    with np.errstate(over="ignore"):
        r = _norms(pts)
    if np.any(r == np.inf):
        raise ValueError("samples must have |xi|^2 within the float range")
    if np.any(r == 0.0):
        raise ValueError("samples must avoid xi = 0")
    if off_hyperplanes and np.any(pts == 0.0):
        raise ValueError("samples must avoid the coordinate hyperplanes")
    return pts


def _norms(pts: np.ndarray) -> np.ndarray:
    # |xi| per column by a dot product, as np.linalg.norm takes it for one point
    rows = np.ascontiguousarray(pts.T)[:, None, :]
    return np.sqrt(rows @ rows.transpose(0, 2, 1)).reshape(-1)


def _report(condition: str, defects: np.ndarray, rows: list, pts: np.ndarray,
            tolerance: float, passed: Optional[bool] = None) -> AuditReport:
    """Report the first largest defect in row-major order: row k is at
    ``rows[k]`` = (t or lambda, multi-index or None), column i at ``pts[:, i]``.
    Unless ``passed`` is given, the audit passes when it is at most ``tolerance``."""
    k, i = np.unravel_index(np.argmax(defects), defects.shape)
    worst = float(defects[k, i])
    label, alpha = rows[k]
    return AuditReport(condition, worst, (float(label), tuple(pts[:, i]), alpha), defects.size,
                       worst <= tolerance if passed is None else passed, tolerance)


def audit_s1(spec: SymbolSpec, t_samples: Sequence[float], xi_samples) -> AuditReport:
    """Worst signed defect of Re psi(t, xi) + kappa |xi|^gamma over the samples;
    passes when it is at most S1_DEFAULT_TOL."""
    if len(t_samples) == 0:
        raise ValueError("empty time sample set")
    pts = _check_samples(xi_samples)
    # float_power rounds as scalar pow does; np.power's vector loop can differ in the last bit
    envelope = spec.kappa * np.float_power(_norms(pts), spec.gamma)
    defects = np.array([eval_symbol(spec, t, pts).real + envelope for t in t_samples])
    return _report("S1", defects, [(t, None) for t in t_samples], pts, S1_DEFAULT_TOL)


def _magnitude(z: np.ndarray) -> np.ndarray:
    # |z| rounded as Python's abs() rounds one complex number; numpy's complex
    # abs can differ from it in the last bit
    return np.hypot(z.real, z.imag)


def _fd_partial(spec, t, xi, alpha, h):
    # nested central differences on a (d, N) stack with steps h of shape (N,); a complex
    # value is divided part by part, as Python divides it by a float (numpy: times 1/2h)
    for i, a in enumerate(alpha):
        if a > 0:
            step = np.zeros_like(xi)
            step[i] = h
            lower = tuple(a - 1 if j == i else b for j, b in enumerate(alpha))
            diff = (_fd_partial(spec, t, xi + step, lower, h)
                    - _fd_partial(spec, t, xi - step, lower, h))
            if np.iscomplexobj(diff):
                return diff.real / (2.0 * h) + 1j * (diff.imag / (2.0 * h))
            return diff / (2.0 * h)
    return eval_symbol(spec, t, xi)


def _multi_indices(d, max_order):
    for order in range(max_order + 1):
        for combo in itertools.product(range(order + 1), repeat=d):
            if sum(combo) == order:
                yield combo


def audit_s2(spec: SymbolSpec, max_order: int, t_samples: Sequence[float],
             xi_samples) -> AuditReport:
    """Audit |d^alpha psi| <= mu |xi|^(gamma-|alpha|) for |alpha| <= max_order.

    Derivatives are estimated with nested central differences with per-axis
    step h = S2_DEFAULT_STEP * max(|xi|, 1).  The reported worst_violation
    is the largest absolute defect |est| - bound; the pass decision compares
    each defect against S2_DEFAULT_TOL relative to its bound.
    """
    if not 0 <= max_order <= spec.n_cert:
        raise ValueError(f"max_order {max_order} outside 0..{spec.n_cert}, the certified depth")
    if len(t_samples) == 0:
        raise ValueError("empty time sample set")
    pts = _check_samples(xi_samples, off_hyperplanes=True)
    r = _norms(pts)
    h = S2_DEFAULT_STEP * np.maximum(r, 1.0)
    rows, defects, passed = [], [], True
    for alpha in _multi_indices(pts.shape[0], max_order):
        bound = spec.mu * np.float_power(r, spec.gamma - sum(alpha))
        for t in t_samples:
            defect = _magnitude(_fd_partial(spec, t, pts, alpha, h)) - bound
            passed = passed and not np.any(defect > S2_DEFAULT_TOL * np.maximum(bound, 1e-300))
            rows.append((t, alpha))
            defects.append(defect)
    return _report("S2", np.array(defects), rows, pts, S2_DEFAULT_TOL, passed)


def check_homogeneity(spec: SymbolSpec, lambdas: Sequence[float], xi_samples) -> AuditReport:
    """Relative defect of psi(lambda xi) = lambda^gamma psi(xi); passes when it
    is at most HOMOGENEITY_DEFAULT_TOL."""
    if not spec.time_constant:
        raise ValueError("homogeneity check requires a time-constant symbol")
    if len(lambdas) == 0:
        raise ValueError("empty lambda sample set")
    pts = _check_samples(xi_samples)
    defects = []
    for lam in lambdas:
        if not lam > 0:
            raise ValueError("lambdas must be positive")
        ref = lam**spec.gamma * eval_symbol(spec, 0.0, pts)
        defects.append(_magnitude(eval_symbol(spec, 0.0, lam * pts) - ref)
                       / (_magnitude(ref) + 1e-30))
    return _report("HOMOGENEITY", np.array(defects), [(lam, None) for lam in lambdas], pts,
                   HOMOGENEITY_DEFAULT_TOL)


# --- built-in families ------------------------------------------------------

def _radial_norm(xi: np.ndarray) -> np.ndarray:
    return np.sqrt((xi**2).sum(axis=0))


def _power_mu(gamma: float, scale: float = 1.0) -> float:
    # generous derivative-constant certificate for -c|xi|^gamma, orders <= 3,
    # d <= 3: 3 * max falling-factorial magnitude
    k1 = abs(gamma)
    k2 = abs(gamma * (gamma - 1.0))
    k3 = abs(gamma * (gamma - 1.0) * (gamma - 2.0))
    return 3.0 * scale * max(1.0, k1, k2, k3)


def power_symbol(gamma: float, name: Optional[str] = None) -> SymbolSpec:
    """psi(t, xi) = -|xi|^gamma; time-constant and homogeneous of degree gamma."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")

    def fn(t, xi):
        return -_radial_norm(xi) ** gamma

    return SymbolSpec(
        name=name or f"power:{gamma:g}",
        eval_fn=fn,
        kappa=1.0,
        mu=_power_mu(gamma),
        gamma=gamma,
        n_cert=8,
        time_constant=True,
        homogeneous=True,
    )


def power_t_symbol(gamma: float) -> SymbolSpec:
    """psi(t, xi) = -(1 + t) |xi|^gamma, named power-t:gamma: k(t) = t.

    Separable: time factor -(1 + t), spatial part |xi|^gamma.  The constant
    part is kappa = 1, and the mu certificate covers t in [0, 4].
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")

    def time_factor(t):
        return -(1.0 + t)

    def spatial(xi):
        return _radial_norm(xi) ** gamma

    return SymbolSpec(
        name=f"power-t:{gamma:g}",
        eval_fn=lambda t, xi: time_factor(t) * spatial(xi),
        kappa=1.0,
        mu=_power_mu(gamma, scale=1.0 + 4.0),
        gamma=gamma,
        n_cert=8,
        time_constant=False,
        homogeneous=False,
        time_factor=time_factor,
        spatial=spatial,
    )


BUILTIN_NAMES = ("heat", "poisson", "power:<gamma>", "power-t:<gamma>", "frac-lap:<eta>")


def get_symbol(name: str) -> SymbolSpec:
    """Resolve a registry name: heat, poisson, power:g, power-t:g, frac-lap:e."""
    key = name.strip()
    if key == "heat":
        return power_symbol(2.0, name="heat")
    if key == "poisson":
        return power_symbol(1.0, name="poisson")
    for prefix, factory in (("power-t:", power_t_symbol),
                            ("power:", power_symbol),
                            # -|xi|^E, the order-E fractional Laplacian's multiplier magnitude
                            ("frac-lap:", lambda e: power_symbol(e, name=f"frac-lap:{e:g}"))):
        if key.startswith(prefix):
            try:
                value = float(key[len(prefix):])
            except ValueError:
                raise ValueError(f"cannot parse symbol parameter in {name!r}") from None
            return factory(value)
    raise ValueError(f"unknown symbol {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
