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
``time_factor(t) * spatial(xi)``.  Only :func:`_at` (on a stack) and
:func:`_on_lattice` (on a grid's lattice), through one sampling step, know
separability; every time integral takes psi through them as a factor of t
times a lattice, so a separable symbol's time integral is a Gauss sum over
Python scalars times its spatial part, evaluated once: one lattice product
per integral, not a lattice pass per time node.

Every built-in depends on xi only through |xi|: its ``eval_fn`` (or its
``spatial`` part, for ``power-t``) is a :class:`_Radial` profile, callable
on stacks like any other.  :func:`_on_lattice`, the one place a symbol meets
a grid's lattice, evaluates that profile on the grid's cached |xi|, with the
bits and checks of :func:`eval_symbol` on the coordinate stack, and builds a
(d, ...) stack for that call only for any other symbol.  Nothing is added
to :class:`SymbolSpec`: user symbols keep the stack contract.

The audits below are falsifiers over finite sample sets, not proofs: they
search for the worst violation of each certificate on the supplied (t, xi)
samples, evaluated as one (d, N) stack, and report it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
    return _checked(spec, t, spec.eval_fn(float(t), xi), _stack_point(xi))


def _checked(spec: SymbolSpec, t: float, values, point) -> np.ndarray:
    """values as float64, or complex128 when complex; SymbolEvalError naming
    t and the first non-finite sample, ``point(index)``, if there is one."""
    out = np.asarray(values)
    out = out.astype(np.result_type(out, np.float64), copy=False)
    if not np.all(np.isfinite(out)):
        raise _non_finite(spec, t, point, tuple(np.argwhere(~np.isfinite(out))[0]))
    return out


def _check_time(t: float) -> None:
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")


def _stack_point(xi: np.ndarray):
    """The sample of a (d, ...) stack at an index of its values, as a tuple."""
    return lambda index: tuple(xi[(slice(None),) + index])


def _non_finite(spec: SymbolSpec, t: float, point, index: tuple) -> SymbolEvalError:
    return SymbolEvalError(f"symbol {spec.name!r} non-finite at t={t}, xi={point(index)}")


class _Radial:
    """A built-in family's profile p of |xi|, callable on a stack as its
    ``eval_fn(t, xi)`` (p does not depend on t) or its ``spatial(xi)``:
    p(|xi|).  :func:`_on_lattice` evaluates p on the grid's cached |xi|
    instead; a symbol whose parts are plain functions (any user symbol, or a
    built-in whose parts were replaced) is evaluated on stacks."""

    def __init__(self, profile: Callable[[np.ndarray], np.ndarray]):
        self.profile = profile

    def __call__(self, *t_xi) -> np.ndarray:
        return self.profile(_radial_norm(t_xi[-1]))


class _Sampled(NamedTuple):
    """psi(., xi) on a set of frequency samples, from :func:`_at` or
    :func:`_on_lattice`: psi(t, xi) = factor(t) when phi is None, else
    factor(t) * phi (a separable symbol); ``point(index)`` is the sample at
    an index of the values, as a tuple."""

    factor: Callable[[float], object]
    phi: Optional[np.ndarray]
    point: Callable[[tuple], tuple]

    def __call__(self, t: float) -> np.ndarray:
        """psi(t, .) on the samples, with the bits and checks of eval_symbol
        (for a separable symbol, of its eval_fn, the product of its parts)."""
        return self.factor(t) if self.phi is None else self.factor(t) * self.phi


def _at(spec: SymbolSpec, xi) -> _Sampled:
    """psi(., xi) on a (d, ...) stack as factor(t) and phi (:class:`_Sampled`).

    A general symbol gives phi = None and factor(t) = eval_symbol(spec, t, xi),
    with its bits and checks.  A separable symbol gives its spatial part phi,
    evaluated once, and factor(t) = time_factor(t), a Python float checked
    without a pass over phi: t >= 0 (ValueError), and a finite product
    (SymbolEvalError naming t and the first bad xi), which fails exactly when
    time_factor(t) times the largest part of phi is not finite.
    """
    xi = np.asarray(xi, dtype=float)
    return _sample(spec, lambda t: spec.eval_fn(t, xi), lambda: spec.spatial(xi),
                   _stack_point(xi))


def _on_lattice(spec: SymbolSpec, grid) -> _Sampled:
    """:func:`_at` on ``grid``'s whole frequency lattice (fft order), with its
    bits and checks: the one place a symbol meets a lattice.

    A built-in symbol, whose ``eval_fn`` (or ``spatial`` part, when separable)
    is a :class:`_Radial` profile, is evaluated by that profile on the grid's
    cached |xi|, so no coordinate stack is built.  Any other symbol is
    evaluated on a (d, ...) stack built for this call.
    """
    radial = spec.eval_fn if spec.spatial is None else spec.spatial
    if not isinstance(radial, _Radial):
        return _at(spec, grid.xi_stack())
    rho = grid.xi_norm()

    def values(*_):
        return radial.profile(rho)

    return _sample(spec, values, values, lambda index: tuple(grid.freq_axis()[list(index)]))


def _sample(spec: SymbolSpec, psi, spatial, point) -> _Sampled:
    """The :class:`_Sampled` of :func:`_at` from the raw values psi(t) (a
    general symbol) or spatial() (a separable one) on some samples."""
    if spec.spatial is None:
        def general(t: float) -> np.ndarray:
            _check_time(t)
            return _checked(spec, t, psi(float(t)), point)

        return _Sampled(general, None, point)
    phi = np.asarray(spatial())
    phi = phi.astype(np.result_type(phi, np.float64), copy=False)
    parts = np.abs(phi) if np.isrealobj(phi) else np.maximum(np.abs(phi.real), np.abs(phi.imag))
    peak = float(np.max(parts, initial=0.0))  # nan or inf when phi is not finite

    def factor(t: float) -> float:
        _check_time(t)
        c = float(spec.time_factor(float(t)))
        if not math.isfinite(c * peak):
            raise _non_finite(spec, t, point, tuple(np.argwhere(~np.isfinite(c * phi))[0]))
        return c

    return _Sampled(factor, phi, point)


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

    return SymbolSpec(
        name=name or f"power:{gamma:g}",
        eval_fn=_Radial(lambda rho: -rho**gamma),
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

    spatial = _Radial(lambda rho: rho**gamma)

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
