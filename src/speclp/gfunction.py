"""Square functions with singular time weight and their L^p ratio statistics.

For a pair of symbols (psi1, psi2) and exponents q >= 1 the square function is

    G(f)(x) = ( int_s^(s+a) (t-s)^(q g1/g2 - 1) |psi1(l,.) T_psi2(t,s) f(x)|^q dt )^(1/q),

where g1, g2 are the symbol orders.  The singular weight is absorbed exactly
by the substitution u = (t-s)^(q g1/g2); the u-integral is then evaluated by
Gauss-Legendre on dyadic panels so that every decay scale present on the
frequency lattice is resolved.

For a = inf the integral is truncated at the time where the slowest nonzero
lattice mode has decayed below 1e-16, which requires a spectral gap: the
zero mode must be projected out of f first.

Window contract: a window fits a pair at q when it has that q and the
pair's orders and, if infinite, a kappa2 that psi2's kappa covers (the
truncation time) and q = 2 or a time-constant homogeneous pair.
:func:`_check_window` alone spells it, for ``g_function``,
:func:`speclp.kernel_audit.hormander_report` and the scenario configs.

Time-node engine
----------------
``g_function`` and the kernel audit's smoothness integral both integrate
psi1(l,.) T_psi2(t,s) F over the window nodes.  One private generator,
:func:`_node_fields`, serves both: it builds the multiplier of a whole chunk
of nodes as one (k,) + lattice stack and transforms it with one batched
inverse FFT over the spatial axes.

* Real path: when the input samples are real (kernels have no input) and the
  multipliers psi1(l,.) and psi2 (or the first time increment of its
  integral) are exactly Hermitian on the lattice, m(-xi) = conj(m(xi)), every
  node field is real.  The stack then lives on the half spectrum of
  ``rfftn`` (last axis 0..n/2), the exponential runs on reals for
  real-valued symbols (their values are float64, see
  :func:`speclp.symbols.eval_symbol`), the input enters through one ``rfftn``
  of its samples (``spectral._spectrum``), and each chunk goes through one
  ``irfftn``.  Time-dependent symbols are integrated on the half lattice
  only, from one :func:`speclp.symbols._at` per call: a separable psi2's
  spatial part is evaluated once there, not once per node interval.  The
  complex fallback integrates with the whole-lattice ``_at`` that the
  Hermitian test already built.
* Underflow band: on the real path with a time-constant psi2, the late nodes
  of a window damp the high modes to exactly 0.0 (``np.exp`` underflows
  below -745.1332).  Each chunk builds the exponent, ``exp`` and the product
  with the input spectrum only on the leading last-axis columns where its
  earliest node has dt Re psi2 >= ``_EXP_FLOOR`` (-746), and hands that band
  to the same ``irfftn``, which zero-pads the last axis and, for d >= 2, runs
  the other axes' transforms on the band only.  The band's width is one
  ``searchsorted`` per chunk in the suffix maximum of Re psi2's column maxima,
  built once per call.  The dropped columns held exact zeros, so no output
  moves.  The complex fallback, a time-dependent psi2 and a psi2 with
  Re psi2 >= 0 on the last column keep the whole lattice.
* Complex fallback: complex input, or a multiplier that is not Hermitian
  (for instance a drift term i xi, which is not real at the Nyquist index),
  runs the same chunk loop on the full lattice with ``ifftn``.
* Chunk budget: a chunk holds as many nodes as keep its temporaries near
  ``_CHUNK_BYTES`` (1 MiB, inside a 2 MiB per-core L2 cache), and at least
  one node.  Node results are reduced chunk by chunk, so no call ever holds
  every node's field.  The reductions are plain numpy sums in node order (no
  BLAS), so results do not depend on the BLAS thread count.
* Reduction passes: a real stack at q = 2 is squared in place, one pass
  where ``abs`` then ``**`` (numpy runs pow even for 2.0) take two, with the
  same bits; complex stacks and every other q keep ``abs`` and ``**``.  Each
  chunk's spectrum is written straight into a complex array, since the
  inverse's own cast of a real spectrum (kernels of real symbols) is slower
  for the same values.  The kernel audit writes its shifted differences
  without rolling (see :func:`speclp.kernel_audit.hormander_report`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import WindowError
from .evolution import _dyadic_panels, _gauss_integral
from .spectral import Field, _lattice, _spectrum, _two_pi_pow, lp_norm, refine_field
from .symbols import SymbolSpec, _at

__all__ = [
    "INF",
    "TimeWindow",
    "build_time_window",
    "g_function",
    "ratio_report",
    "RatioReport",
    "explicit_q2_constant",
]

INF = float("inf")
_TRUNCATION_LOG = math.log(1e16)
# bytes of temporaries one chunk of time nodes may hold (see _chunk_nodes)
_CHUNK_BYTES = 1 << 20
# np.exp is exactly 0.0 below -745.1332 in float64, on numpy's scalar and SIMD
# paths alike; exponents below this floor contribute exact zeros
_EXP_FLOOR = -746.0
# Gauss-Legendre order of a time-dependent psi2's integral between window nodes
_NODE_ORDER = 16


@dataclass(frozen=True, eq=False)
class TimeWindow:
    """Quadrature for int_s^(s+a) (t-s)^(weight_exponent) (.) dt.

    ``nodes`` are t values (strictly increasing, inside the window) and
    ``weights`` include the singular factor: sum_i weights_i * g(nodes_i)
    approximates the weighted integral of g.
    """

    s: float
    a: float  # may be INF
    q: float
    gamma1: float
    gamma2: float
    kappa2: float
    weight_exponent: float
    nodes: np.ndarray
    weights: np.ndarray
    truncation_t: float  # effective duration of integration

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.a)


def build_time_window(s: float, a: float, q: float, gamma1: float, gamma2: float,
                      n_nodes: int = 16, *, kappa2: float = 1.0,
                      xi_min: Optional[float] = None, xi_max: float) -> TimeWindow:
    """Build the singular-weight quadrature window.

    Parameters beyond the window geometry:

    kappa2
        Ellipticity constant of the evolution symbol; sets the a = inf
        truncation time.
    xi_min
        Smallest nonzero frequency magnitude of the target lattice; required
        when a = inf (no spectral gap means the zero mode never decays, so
        the caller must remove the mean and provide the gap).
    xi_max
        Largest lattice frequency magnitude, positive and finite; the dyadic
        panel depth is chosen so the fastest-decaying mode is resolved.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not (gamma1 > 0 and gamma2 > 0 and kappa2 > 0):
        raise ValueError("gamma1, gamma2, kappa2 must be positive")
    if not a > 0:
        raise ValueError("a must be positive (possibly inf)")
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s}")
    if not 0 < xi_max < math.inf:
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")

    omega = q * gamma1 / gamma2
    if math.isinf(a):
        if xi_min is None or not xi_min > 0:
            raise WindowError(
                "infinite window needs a spectral gap: remove the mean of the "
                "input and pass the smallest nonzero lattice frequency as xi_min")
        T = _TRUNCATION_LOG / (kappa2 * xi_min**gamma2)
    else:
        T = float(a)
    u_max = T**omega

    t_fast = 1.0 / (2.0 * kappa2 * xi_max**gamma2)
    u_floor = (t_fast / 8.0) ** omega
    n_panels = int(np.clip(math.ceil(math.log2(u_max / u_floor)), 24, 120))
    edges = [0.0] + [u_max * 2.0 ** (-k) for k in range(n_panels, -1, -1)]
    u, w = _dyadic_panels(edges, n_nodes)
    return TimeWindow(
        s=float(s), a=float(a), q=float(q), gamma1=float(gamma1), gamma2=float(gamma2),
        kappa2=float(kappa2), weight_exponent=omega - 1.0,
        nodes=s + u ** (1.0 / omega), weights=w / omega, truncation_t=T,
    )


def _check_window(psi1: SymbolSpec, psi2: SymbolSpec, window: TimeWindow, q: float) -> None:
    """The window contract (module docstring): ValueError for another q or
    other orders, else WindowError for an infinite window that does not fit."""
    if q != window.q:
        raise ValueError(f"q={q} does not match window q={window.q}")
    if psi1.gamma != window.gamma1 or psi2.gamma != window.gamma2:
        raise ValueError(
            f"window built for orders ({window.gamma1}, {window.gamma2}) but pair has "
            f"({psi1.gamma}, {psi2.gamma})")
    if not window.is_infinite:
        return
    if window.kappa2 > psi2.kappa * (1.0 + 1e-12):
        raise WindowError(
            f"window truncation assumed kappa2={window.kappa2} but symbol certifies "
            f"only {psi2.kappa}; rebuild the window")
    if not (q == 2 or (psi1.time_constant and psi2.time_constant
                       and psi1.homogeneous and psi2.homogeneous)):
        raise WindowError(
            "infinite time window is only supported for q = 2 or for a "
            "time-constant homogeneous symbol pair; "
            f"got q={q}, pair=({psi1.name}, {psi2.name})")


def _hermitian(m: np.ndarray) -> bool:
    """True when m[-k] == conj(m[k]) exactly at every lattice index k (fft order)."""
    mirror = np.roll(np.flip(m), 1, axis=tuple(range(m.ndim)))
    return bool(np.array_equal(mirror, np.conj(m)))


def _chunk_nodes(grid, real: bool) -> int:
    """Nodes per chunk.  A real-path node holds about three real lattices of
    temporaries (exponent and multiplier on the half spectrum, the real
    output, the irfftn scratch); a complex node about six."""
    per_node = (24 if real else 48) * math.prod(grid.shape)
    return max(1, _CHUNK_BYTES // per_node)


def _decay_tail(first: np.ndarray) -> np.ndarray:
    """tail[j] = the largest Re psi2 on last-axis columns j, j + 1, ... of the
    half spectrum: column j and all after it underflow for every node with
    dt * tail[j] < _EXP_FLOOR."""
    columns = first.real.reshape(-1, first.shape[-1]).max(axis=0)
    return np.maximum.accumulate(columns[::-1])[::-1]


def _input_spectrum(f: Field, real: bool, infinite: bool) -> np.ndarray:
    """forward_transform(f).coeffs, cut to the rfftn half spectrum when real.

    An infinite window needs a spectral gap, so there f must be mean-free.
    """
    F = _spectrum(f, half=real)
    if infinite:
        scale = np.abs(F).max()
        if scale > 0.0 and abs(F[(0,) * f.grid.dim]) > 1e-9 * scale:
            raise WindowError("infinite window requires a mean-removed input; "
                              "project out the zero mode first")
    return F


def _node_fields(psi1: SymbolSpec, l: float, psi2: SymbolSpec, window: TimeWindow, grid,
                 f: Optional[Field] = None):
    """Yield (weights, stack) for consecutive chunks of the window's nodes.

    stack[i] = ifftn(psi1(l,.) exp(int_s^t_i psi2) F) in fft order (origin at
    index 0), with F = forward_transform(f).coeffs, or F = 1 when f is None
    (the kernel).  The stack is real on the real path and complex on the
    fallback; see the module docstring.
    """
    xi = grid.xi_stack()
    pre = psi1(l, xi)
    # psi2 itself when time-constant, else its integral up to the first node;
    # on the whole lattice, for the Hermitian test
    if psi2.time_constant:
        first = psi2(0.0, xi)
    else:
        psi_at = _at(psi2, xi)
        first = _gauss_integral(psi_at, window.s, window.nodes[0], _NODE_ORDER)
    real = (f is None or np.isrealobj(f.values)) and _hermitian(pre) and _hermitian(first)
    if real:
        half = _lattice(grid, True)  # the rfftn half spectrum
        xi, pre, first = xi[half], pre[half].copy(), first[half].copy()
        if not psi2.time_constant:
            psi_at = _at(psi2, xi)
    if f is not None:
        pre = pre * _input_spectrum(f, real, window.is_infinite)

    inverse = np.fft.irfftn if real else np.fft.ifftn
    axes = tuple(range(1, grid.dim + 1))
    k = _chunk_nodes(grid, real)
    band = slice(None)  # the leading last-axis columns a chunk keeps
    if psi2.time_constant:
        dt = window.nodes - window.s
        if real:
            rising = -_decay_tail(first)
    else:
        rs = np.concatenate([[window.s], window.nodes])
        Q = 0.0  # int_s^(previous node) psi2
    for lo in range(0, window.nodes.size, k):
        sl = slice(lo, lo + k)
        if psi2.time_constant:
            if real:  # dt[lo] is the chunk's shortest time: it decays least
                band = slice(0, max(1, int(np.searchsorted(rising, -_EXP_FLOOR / dt[lo]))))
            E = np.multiply.outer(dt[sl], first[..., band])
        else:
            E = np.empty((window.nodes[sl].size,) + first.shape, dtype=first.dtype)
            for j, i in enumerate(range(lo, lo + len(E))):
                E[j] = _gauss_integral(psi_at, rs[i], rs[i + 1], _NODE_ORDER)
            E[0] += Q
            np.cumsum(E, axis=0, out=E)
            Q = E[-1].copy()
        np.exp(E, out=E)
        # stored complex: the inverse's own cast of a real spectrum is slower
        spec = np.multiply(pre[..., band], E, out=np.empty(E.shape, dtype=complex))
        yield window.weights[sl], inverse(spec, s=grid.shape, axes=axes)


def _accumulate(acc: np.ndarray, stack: np.ndarray, w: np.ndarray, q: float) -> None:
    """acc += sum_k w_k |stack_k|^q over a chunk; a real stack is overwritten.

    A real stack at q = 2 is squared in place (x*x equals |x|**2 bit for bit).
    """
    real = stack.dtype == float
    if real and q == 2:
        a = np.square(stack, out=stack)
    else:
        a = np.abs(stack, out=stack if real else None)
        a **= q
    a *= w.reshape((-1,) + (1,) * acc.ndim)
    acc += a[0] if len(a) == 1 else a.sum(axis=0)  # large grids run one node per chunk


def g_function(f: Field, psi1: SymbolSpec, l: float, psi2: SymbolSpec,
               window: TimeWindow, q: float) -> Field:
    """Pointwise windowed q-norm of psi1(l,.) T_psi2(t, s) f over the window."""
    _check_window(psi1, psi2, window, q)
    grid = f.grid
    acc = np.zeros(grid.shape, dtype=float)
    for w, g in _node_fields(psi1, l, psi2, window, grid, f):
        _accumulate(acc, g, w, q)
    # the node transforms omit the (2 pi)^(d/2)/spacing^d factor of the full
    # inverse; restore it on the accumulated q-th powers
    scale = (_two_pi_pow(grid.dim) / grid.cell_measure) ** q
    return Field(grid, np.fft.fftshift((scale * acc) ** (1.0 / q)))


def explicit_q2_constant(mu1: float, kappa2: float, gamma1: float, gamma2: float) -> float:
    """Closed-form bound on ||G||_2^2 / ||f||_2^2 for q = 2, a = inf windows.

    Equals mu1^2 * Gamma(2 g1/g2) * (2 kappa2)^(-2 g1/g2); attained with
    equality by the exact power families.
    """
    if not (mu1 > 0 and kappa2 > 0 and gamma1 > 0 and gamma2 > 0):
        raise ValueError("all parameters must be positive")
    e = 2.0 * gamma1 / gamma2
    return mu1**2 * float(gamma_fn(e)) * (2.0 * kappa2) ** (-e)


@dataclass(frozen=True)
class RatioReport:
    """Per-field ratios ||G(f)||_p / ||f||_p plus refinement drift of the max."""

    pair: tuple
    p: float
    q: float
    s: float
    a: float
    n: int
    per_field: List[float]
    max_ratio: float
    median_ratio: float
    refinement_drift: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "p": self.p,
            "q": self.q,
            "s": self.s,
            "a": "inf" if math.isinf(self.a) else self.a,
            "n": self.n,
            "per_field": self.per_field,
            "max": self.max_ratio,
            "median": self.median_ratio,
            "refinement_drift": self.refinement_drift,
        }


def ratio_report(corpus: Sequence[Field], p: float, q: float,
                 psi1: SymbolSpec, l: float, psi2: SymbolSpec, window: TimeWindow,
                 refine: bool = True, workers: int = 1) -> RatioReport:
    """Ratio statistics over a corpus, with grid-refinement drift of the max.

    ``workers`` > 1 fans the fields out over a thread pool (see :func:`_ratios`).
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    per = _ratios(corpus, (p,), q, psi1, l, psi2, window, workers)[p]
    drift = None
    if refine:
        fine = [refine_field(f, 2) for f in corpus]
        m2 = max(_ratios(fine, (p,), q, psi1, l, psi2, window, workers)[p])
        drift = abs(m2 - max(per)) / max(per)
    return RatioReport(
        pair=(getattr(psi1, "name", "?"), getattr(psi2, "name", "?")),
        p=float(p), q=float(q), s=window.s, a=window.a, n=corpus[0].grid.n,
        per_field=per, max_ratio=max(per), median_ratio=float(statistics.median(per)),
        refinement_drift=drift,
    )


def _ratios(fields: Sequence[Field], ps: Sequence[float], q: float, psi1: SymbolSpec,
            l: float, psi2: SymbolSpec, window: TimeWindow, workers: int = 1) -> dict:
    """{p: per-field ratios ||G(f)||_p / ||f||_p} for every p in ps, one G per field.

    Fields are independent, so ``workers`` > 1 fans them out over a thread
    pool (the FFT work releases the GIL); results keep field order either way.
    """
    def one(f):
        G = g_function(f, psi1, l, psi2, window, q)
        return [lp_norm(G, p) / lp_norm(f, p) for p in ps]

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(one, fields))
    else:
        rows = [one(f) for f in fields]
    return {p: [r[i] for r in rows] for i, p in enumerate(ps)}


def _grid_window(grid, psi1: SymbolSpec, psi2: SymbolSpec, s: float = 0.0, a: float = INF,
                 q: float = 2.0, n_nodes: int = 16) -> TimeWindow:
    """The window for a pair on a grid: truncation at the grid's spectral gap
    and panel depth down to its largest frequency magnitude."""
    return build_time_window(s, a, q, psi1.gamma, psi2.gamma, n_nodes, kappa2=psi2.kappa,
                             xi_min=grid.min_freq, xi_max=math.sqrt(grid.dim) * grid.nyquist)


def _exact_ratio(psi1: SymbolSpec, psi2: SymbolSpec) -> float:
    """||G(f)||_2 / ||f||_2 for q = 2 on an infinite window, exact for the
    power families: the square root of :func:`explicit_q2_constant`."""
    return math.sqrt(explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma))
