"""Square functions with singular time weight and their L^p ratio statistics.

For a pair of symbols (psi1, psi2) and exponents q >= 1 the square function is

    G(f)(x) = ( int_s^(s+a) (t-s)^(q g1/g2 - 1) |psi1(l,.) T_psi2(t,s) f(x)|^q dt )^(1/q),

where g1, g2 are the symbol orders.  With omega = q g1/g2 the window is one
bottom panel and Gauss-Legendre panels above it, all of the order omega sets:

* Bottom panel [s, s + t_b]: Gauss-Jacobi in t - s with the weight
  (t-s)^(omega - 1) built into its weights.  There the integrand is that
  weight times an entire function of t, so the panel is exact to round-off.
* Panels above: Gauss-Legendre in u = ln(t - s), each panel two octaves
  wide.  Panel k spans [T_k / 4, T_k] with top edge T_k = T 4^(-k),
  k = 0..n_panels - 1; with h = ln 2, half its width in u, its nodes are
  t - s = T_k exp(h (z - 1)) for the Gauss-Legendre points z, each taken
  from its own panel's top edge, and its weights are
  h w_z (t - s) (t - s)^(omega - 1) (dt = (t - s) du).  In u a mode with
  decay rate c contributes e^(omega u) exp(-c e^u): entire, and
  exp(-c e^u) is bounded by 1 in the strip |Im u| < pi/2 for every c > 0,
  so every panel converges at the same Bernstein-ellipse rate whatever the
  decay scale and omega are (Trefethen & Weideman, SIAM Rev. 2014).
  Together the panels reach down to half of t_fast = 1/(2 kappa2
  xi_max^gamma2), the fastest lattice mode's decay time (the fewest panels
  that do, at least one), so the bottom panel sees every mode over at most
  about one of its decay times.

The panel order (``_ORDERS``) is the lowest whose per-mode time sums match
their closed forms to 1e-14 for omega up to 8, at every lattice decay
rate for n = 256..32768, L = 32 and a = 0.001..inf:

    omega   <= 1   <= 2   <= 4   <= 6   <= 8
    order     11     12     13     14     15

Above omega = 8 no order is certified (at order 15 the weights' sum misses
1/omega by 2e-5 at omega = 50), so a window there raises WindowError.

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
of nodes as one (k,) + lattice stack and transforms it with one call of the
package's inverse FFT, ``spectral._ifft``, over the spatial axes.

* Real path: when psi2 is time-constant or separable (next bullet), the
  input samples are real (kernels have no input), and psi1(l,.) and phi are
  exactly Hermitian on the lattice, m(-xi) = conj(m(xi))
  (:func:`speclp.spectral._hermitian`, the test kernels take too), every
  node field is real.  The stack then lives on the half spectrum of
  ``rfftn`` (last axis 0..n/2), the exponential runs on reals for
  real-valued symbols (their values are float64, see
  :func:`speclp.symbols.eval_symbol`), the input enters through one ``rfftn``
  of its samples (``spectral._spectrum``), and each chunk goes through one
  half-spectrum ``_ifft``: ``ifft`` over the leading spatial axes, then
  ``irfft`` on the last.
* Symbols on the lattice: psi1(l, .) and psi2 come from
  :func:`speclp.symbols._on_lattice`, once per call on the whole lattice: a
  built-in on the grid's cached |xi|, any other symbol on a coordinate stack
  built for the call (the fallback's per-node integrals keep theirs until
  the call ends).
* Node exponents: node i's exponent is A_i phi, one outer product per chunk.
  A time-constant psi2 has A_i = t_i - s and phi = psi2(0, .).  A separable
  psi2 = a(t) spatial (:func:`speclp.symbols._on_lattice`) has phi = spatial,
  evaluated once per call on the whole lattice and cut to the half spectrum
  on the real path, and A_i the running sum, in node order, of the 16-node
  Gauss-Legendre integrals of the scalar a over the node intervals.  Any
  other time-dependent psi2 sums those interval integrals on the whole
  lattice and takes the complex fallback: whether its exponent stays
  Hermitian may change from node to node.
* Underflow band: on the real path, when every A_i has one sign, the late
  nodes of a window damp the high modes to exactly 0.0 (``np.exp``
  underflows below -745.1332).  There Re(A_i phi) = |A_i| sign Re phi, and
  each chunk builds the exponent, ``exp`` and the product with the input
  spectrum only on the leading last-axis columns where the smallest |A_i|
  from its first node on leaves |A_i| sign Re phi >= ``_EXP_FLOOR`` (-746).
  It hands that band to the same ``_ifft``, whose ``ifft`` stages (d >= 2)
  run on the band only and whose ``irfft`` zero-pads the last axis.  The
  band's width is one ``searchsorted`` per chunk in the suffix maximum of
  sign Re phi's column maxima, built once per call like the suffix minimum
  of |A|.  The dropped columns held exact zeros, so no output moves.  The
  complex fallback, A_i of both signs (or zero), and sign Re phi >= 0 on the
  last column keep the whole lattice.
* Complex fallback: complex input, a multiplier that is not Hermitian (for
  instance a drift term i xi, which is not real at the Nyquist index), or a
  psi2 that is neither time-constant nor separable runs the same chunk loop
  on the full lattice, through the whole-spectrum ``_ifft``.
* Chunk budget: the chunks are ``spectral._pieces`` of the nodes, as many
  as keep their temporaries near ``spectral._CHUNK_BYTES`` (1 MiB, inside a
  2 MiB per-core L2 cache), and at least one node.  Node results are reduced
  chunk by chunk, so no call ever holds every node's field.  The reductions
  are plain numpy sums in node order (no BLAS), so results do not depend on
  the BLAS thread count.
* Buffers held for the call: the exponent, spectrum and output stacks are
  allocated once per call, at the first chunk's shape (the largest: the
  band only narrows and the last chunk may be short), and each chunk takes
  their leading bytes.  Fresh arrays per chunk would be allocated while the
  previous chunk's, and the caller's reference to its stack, are alive, so
  two chunks' worth would coexist.  ``_ifft`` transforms the spectrum stack
  in place and writes its last stage into the output stack, so a yielded
  stack is valid only until the next chunk.  The fallback's exponent, summed from per-node lattice
  integrals that are arrays of their own, is built per chunk.  No buffer
  outlives its call, so calls on several threads
  (``ratio_report(workers=2)``) share none.
* Reduction passes: a real stack at q = 2 is squared in place, one pass
  where ``abs`` then ``**`` (numpy runs pow even for 2.0) take two, with the
  same bits.  At q = 4, |x| (the stack itself when real) is squared twice in
  place, within 2 ulp of pow per element and several times faster; complex
  stacks at q = 2 and every other q keep ``abs`` and ``**``.  Each
  chunk's spectrum is written straight into a complex array, since the
  inverse's own cast of a real spectrum (kernels of real symbols) is slower
  for the same values.  The kernel audit writes its shifted differences
  without rolling (see :func:`speclp.kernel_audit.hormander_report`).
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np

from .errors import WindowError
from .evolution import _gauss_integral, _gauss_rule, _legendre
from .spectral import (Field, _centre, _frozen, _hermitian, _ifft, _lattice, _pieces, _spectrum,
                       _two_pi_pow, lp_norm, refine_field)
from .symbols import SymbolSpec, _on_lattice

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
# np.exp is exactly 0.0 below -745.1332 in float64, on numpy's scalar and SIMD
# paths alike; exponents below this floor contribute exact zeros
_EXP_FLOOR = -746.0
# Gauss-Legendre order of a time-dependent psi2's integral between window nodes
_NODE_ORDER = 16
# (largest omega, panel order) of the window's panels (module docstring); no
# order is certified above the last omega
_ORDERS = ((1.0, 11), (2.0, 12), (4.0, 13), (6.0, 14), (8.0, 15))


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
    bottom_t: float  # end of the Gauss-Jacobi bottom panel, as t - s
    n_panels: int  # Gauss-Legendre panels above the bottom panel
    order: int  # nodes per panel

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.a)


def build_time_window(s: float, a: float, q: float, gamma1: float, gamma2: float,
                      n_nodes: Optional[int] = None, *, kappa2: float = 1.0,
                      xi_min: Optional[float] = None, xi_max: float) -> TimeWindow:
    """Build the singular-weight quadrature window.

    The window has order * (n_panels + 1) nodes: n_panels Gauss-Legendre
    panels in log t of 2 octaves each over the Gauss-Jacobi bottom panel,
    each panel of the order omega = q gamma1/gamma2 sets (module docstring):

        omega   <= 1   <= 2   <= 4   <= 6   <= 8
        order     11     12     13     14     15

    ``n_nodes``, a positive integer, overrides the order.  WindowError for
    omega > 8, where no order is certified, and for a window that has no
    finite rule (that is reported first).

    Parameters beyond the window geometry:

    kappa2
        Ellipticity constant of the evolution symbol; sets the a = inf
        truncation time.
    xi_min
        Smallest nonzero frequency magnitude of the target lattice; required
        when a = inf (no spectral gap means the zero mode never decays, so
        the caller must remove the mean and provide the gap).
    xi_max
        Largest lattice frequency magnitude, positive and finite; the panel
        depth is chosen so the fastest-decaying mode is resolved.
    """
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not (gamma1 > 0 and gamma2 > 0 and kappa2 > 0):
        raise ValueError("gamma1, gamma2, kappa2 must be positive")
    if not all(math.isfinite(v) for v in (q, gamma1, gamma2, kappa2)):
        raise ValueError(f"q, gamma1, gamma2, kappa2 must be finite, "
                         f"got {q}, {gamma1}, {gamma2}, {kappa2}")
    if not a > 0:
        raise ValueError("a must be positive (possibly inf)")
    if not 0 <= s < math.inf:
        raise ValueError(f"s must be finite and nonnegative, got {s}")
    if not 0 < xi_max < math.inf:
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    omega = q * gamma1 / gamma2
    if n_nodes is None:
        n_nodes = next((order for top, order in _ORDERS if omega <= top), _ORDERS[-1][1])
    elif isinstance(n_nodes, bool) or not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")
    if math.isinf(a) and (xi_min is None or not xi_min > 0):
        raise WindowError(
            "infinite window needs a spectral gap: remove the mean of the "
            "input and pass the smallest nonzero lattice frequency as xi_min")
    # an extreme omega, or decay times beyond float range, leave no finite
    # window: float overflow or division by zero, log2 of 0, a Jacobi matrix
    # that eigvalsh rejects, or weights that are not finite
    fault = f"no finite time window (omega = q gamma1/gamma2 = {omega:g})"
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            T = _TRUNCATION_LOG / (kappa2 * xi_min**gamma2) if math.isinf(a) else float(a)
            t_fast = 1.0 / (2.0 * kappa2 * xi_max**gamma2)
            n_panels = max(1, math.ceil(math.log2(2.0 * T / t_fast) / 2.0))
            # panels in u = ln t, u = ln T_k + h (z - 1): each node from its own top edge T_k
            z, wz = _legendre(n_nodes)
            h = math.log(2.0)
            tops = T * 2.0 ** (-2.0 * np.arange(n_panels - 1, -1, -1))
            t = tops[:, None] * np.exp(h * (z - 1.0))
            w = h * wz * t * t ** (omega - 1.0)
            # bottom panel [0, t_b]: Gauss-Jacobi, its weight t^(omega - 1) built in
            t_b = T * 2.0 ** (-2.0 * n_panels)
            x, wj = _jacobi(n_nodes, omega - 1.0)
            weights = np.concatenate([(0.5 * t_b) ** omega * wj, w.ravel()])
    except (ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
        raise WindowError(f"{fault}: {exc}") from None
    if not np.isfinite(weights).all():
        raise WindowError(f"{fault}: its weights are not finite")
    if omega > _ORDERS[-1][0]:
        raise WindowError(f"time window not certified for omega = q gamma1/gamma2 = {omega:.15g}: "
                          f"the panel orders are certified up to omega = {_ORDERS[-1][0]:g}")
    return TimeWindow(
        s=float(s), a=float(a), q=float(q), gamma1=float(gamma1), gamma2=float(gamma2),
        kappa2=float(kappa2), weight_exponent=omega - 1.0,
        nodes=s + np.concatenate([0.5 * t_b * (1.0 + x), t.ravel()]), weights=weights,
        truncation_t=T, bottom_t=t_b, n_panels=n_panels, order=int(n_nodes),
    )


@lru_cache(maxsize=16)
def _jacobi(order: int, beta: float):
    """Gauss-Jacobi nodes and weights for the weight (1 + x)^beta on [-1, 1],
    read-only: every window of the same order and exponent shares them.

    Golub-Welsch starting nodes (Math. Comp. 23, 1969), the eigenvalues of the
    order x order Jacobi matrix of P_n^(0, beta), polished by
    :func:`speclp.evolution._gauss_rule`, which also gives the weights.
    """
    k = np.arange(1.0, order)
    c = 2.0 * k + beta
    diagonal = np.append(beta / (beta + 2.0), beta * beta / (c * (c + 2.0)))
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2 / (c * c * (c + 1.0) * (c - 1.0)))
    matrix = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    nodes, weights = _gauss_rule(order, beta, np.linalg.eigvalsh(matrix))
    return _frozen(nodes), _frozen(weights)


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


def _decay_tail(phi: np.ndarray, sign: float) -> np.ndarray:
    """tail[j] = the largest sign Re phi on last-axis columns j, j + 1, ... of
    the half spectrum: column j and all after it underflow for every node with
    |A| tail[j] < _EXP_FLOOR, where the exponent A phi has real part
    |A| sign Re phi."""
    columns = phi.real.reshape(-1, phi.shape[-1])
    columns = columns.max(axis=0) if sign > 0 else -columns.min(axis=0)
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
    fallback, and is overwritten by the next chunk; see the module docstring.
    """
    pre = _on_lattice(psi1, grid)(l)
    sampled = _on_lattice(psi2, grid)
    # the exponent at node i is A[i] phi: A = t_i - s and phi = psi2(0, .) for a
    # time-constant psi2, A = int_s^t_i a and phi = spatial for a separable
    # psi2 = a(t) spatial; any other psi2 has phi = None, takes the complex
    # fallback, and its exponent is summed per node interval on the lattice
    if psi2.time_constant:
        A, phi = window.nodes - window.s, sampled(0.0)
    else:
        factor, phi, _ = sampled
        rs = np.concatenate([[window.s], window.nodes])
        if phi is not None:
            A = np.cumsum([_gauss_integral(factor, a, b, _NODE_ORDER)
                           for a, b in zip(rs[:-1].tolist(), rs[1:].tolist())])
    real = (phi is not None and (f is None or np.isrealobj(f.values))
            and _hermitian(pre) and _hermitian(phi))
    if real:
        half = _lattice(grid, True)  # the rfftn half spectrum; the whole lattice is freed
        pre, phi = pre[half].copy(), phi[half].copy()
    if f is not None:
        pre = pre * _input_spectrum(f, real, window.is_infinite)

    band = slice(None)  # the leading last-axis columns a chunk keeps
    Q = 0.0  # int_s^(previous node) psi2 when phi is None
    # the underflow band, on the real path when every A[i] has one sign: there
    # Re(A[i] phi) = |A[i]| sign Re phi, and a chunk from node lo on decays no
    # less than at least[lo], the smallest |A[i]| with i >= lo (t_lo - s when
    # psi2 is time-constant)
    sign = 0.0
    if real:
        sign = 1.0 if (A > 0).all() else -1.0 if (A < 0).all() else 0.0
    if sign:
        rising = -_decay_tail(phi, sign)
        least = np.minimum.accumulate(np.abs(A)[::-1])[::-1]
    # the exponent, spectrum and output stacks are held for the call: flat
    # buffers sized by the first chunk, the largest (the band only narrows),
    # whose leading bytes each chunk takes
    buffers = {}

    def held(name, shape, dtype):
        size = math.prod(shape)
        if name not in buffers:
            buffers[name] = np.empty(size, dtype=dtype)
        return buffers[name][:size].reshape(shape)

    # a real-path node holds about three real lattices of temporaries (exponent and
    # multiplier on the half spectrum, ``ifft`` stages, output), a complex one six
    for sl in _pieces(window.nodes.size, (24 if real else 48) * math.prod(grid.shape)):
        if phi is not None:
            if sign:
                edge = -_EXP_FLOOR / least[sl.start]
                band = slice(0, max(1, int(np.searchsorted(rising, edge))))
            cols = phi[..., band]
            E = np.multiply.outer(A[sl], cols, out=held("exponent", A[sl].shape + cols.shape,
                                                        np.result_type(A, cols)))
        else:  # per-node lattice integrals, each an array of its own
            E = np.array([_gauss_integral(factor, a, b, _NODE_ORDER)
                          for a, b in zip(rs[sl].tolist(), rs[1:][sl].tolist())])
            E[0] += Q
            np.cumsum(E, axis=0, out=E)
            Q = E[-1].copy()
        np.exp(E, out=E)
        # stored complex: the inverse's own cast of a real spectrum is slower
        spec = np.multiply(pre[..., band], E, out=held("spectrum", E.shape, complex))
        out = held("output", E.shape[:1] + grid.shape, float if real else complex)
        yield window.weights[sl], _ifft(grid, spec, real, out=out)


def _accumulate(acc: np.ndarray, stack: np.ndarray, w: np.ndarray, q: float) -> None:
    """acc += sum_k w_k |stack_k|^q over a chunk; a real stack is overwritten.

    A real stack at q = 2 is squared in place (x*x equals |x|**2 bit for bit).
    At q = 4, real or complex, |x| is squared twice in place: within 2 ulp of
    |x|**4 per element, and cheaper than pow.
    """
    real = stack.dtype == float
    if q == 4:
        a = stack if real else np.abs(stack)
        np.square(a, out=a)
        np.square(a, out=a)
    elif real and q == 2:
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
    _centre(acc, scale)
    acc **= 1.0 / q
    return Field(grid, acc)


def explicit_q2_constant(mu1: float, kappa2: float, gamma1: float, gamma2: float) -> float:
    """Closed-form bound on ||G||_2^2 / ||f||_2^2 for q = 2, a = inf windows.

    Equals mu1^2 * Gamma(2 g1/g2) * (2 kappa2)^(-2 g1/g2); attained with
    equality by the exact power families.
    """
    if not (mu1 > 0 and kappa2 > 0 and gamma1 > 0 and gamma2 > 0):
        raise ValueError("all parameters must be positive")
    e = 2.0 * gamma1 / gamma2
    try:
        gamma_e = math.gamma(e)
    except OverflowError:  # e > 171.6
        gamma_e = math.inf
    return mu1**2 * gamma_e * (2.0 * kappa2) ** (-e)


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
                 q: float = 2.0) -> TimeWindow:
    """The window for a pair on a grid: truncation at the grid's spectral gap
    and panel depth down to its largest frequency magnitude."""
    return build_time_window(s, a, q, psi1.gamma, psi2.gamma, kappa2=psi2.kappa,
                             xi_min=grid.min_freq, xi_max=math.sqrt(grid.dim) * grid.nyquist)


def _exact_ratio(psi1: SymbolSpec, psi2: SymbolSpec) -> float:
    """||G(f)||_2 / ||f||_2 for q = 2 on an infinite window, exact for the
    power families: the square root of :func:`explicit_q2_constant`."""
    return math.sqrt(explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma))
