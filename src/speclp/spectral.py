"""Periodic grids, discrete Fourier transforms, multipliers, and Lebesgue norms.

Conventions
-----------
The continuum transforms use the symmetric normalization

    F(f)(xi)      = (2 pi)^(-d/2) * integral e^(-i x.xi) f(x) dx,
    Finv(g)(x)    = (2 pi)^(-d/2) * integral e^(+i x.xi) g(xi) dxi.

On the torus [-L, L)^d sampled with n points per axis the forward transform
is the Riemann sum with measure spacing^d, and the frequency lattice is
{pi k / L : k in [-n/2, n/2)}^d with cell measure (pi/L)^d.  With these
measures the discrete inverse is the exact inverse of the discrete forward,
and the discrete Plancherel identity holds to round-off.

Physical samples are stored in natural order (x = -L, ..., L - spacing);
spectral coefficients are stored in ``numpy.fft`` frequency order.  This
module alone calls the ``numpy.fft`` transforms: one forward step
(:func:`_fft`) and one inverse step (:func:`_ifft`); :func:`_centre` moves
samples from fft order to natural order in place.

Lattice-sized work holds block-sized temporaries of at most
``_CHUNK_BYTES`` where a lattice-sized one would be its only use: the d = 3
half-spectrum inverse on ``rows`` (a refinement) runs its later stages by
blocks of lines (:func:`_ifft`), :func:`lp_norm` sums |f|^p by pieces
(:func:`_power_sum`), and a new Field or SpectralField tests finiteness by
pieces (:func:`_as_grid_array`).  All keep the results of the one-array
computation.

A multiplier keeps the real part of its result for a real field (the
real-part rule of :func:`_multiplied` and :func:`refine_field`), and computes
it on the ``rfftn`` half spectrum (:func:`_lattice`) as a float64 field; a
complex field keeps the complex ``fftn``/``ifftn`` route.  The L^2 norms of
such results for a real field need no samples: :func:`_energies` sums the
weighted half-spectrum power against each multiplier squared (Plancherel).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "GridSpec",
    "Field",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "lp_norm",
    "mean_remove",
    "spectral_shift",
    "refine_field",
]


# bytes of block-sized temporaries: a chunk of time nodes
# (``gfunction._chunk_nodes``), a block of d = 3 half-path lines
# (:func:`_ifft`) and a piece of an L^p sum (:func:`lp_norm`)
_CHUNK_BYTES = 1 << 20


def _two_pi_pow(d: int) -> float:
    return (2.0 * np.pi) ** (d / 2.0)


def _index(value, name: str) -> int:
    """value as a Python int (numpy integers included), else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic sampling lattice for [-L, L)^d.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 <= dim <= 3.
    n : int
        Points per axis; must be even.
    half_extent : float
        Finite L > 0; the domain is the torus [-L, L)^d.

    Only |x| and |xi| are cached (:meth:`x_norm`, :meth:`xi_norm`), one
    lattice each, built by broadcasting the 1-D axes.  The (dim,) + shape
    frequency stack (:meth:`xi_stack`) is built for each call and held by no
    one: only symbols that are not built-ins build one.  The shift phase and
    the gradient kernel build theirs from the 1-D axes.
    """

    dim: int
    n: int
    half_extent: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _index(self.dim, "dim"))
        object.__setattr__(self, "n", _index(self.n, "n"))
        if self.dim < 1 or self.dim > 3:
            raise ValueError(f"dim must be in 1..3, got {self.dim}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        if not 0 < self.half_extent < np.inf:
            raise ValueError(f"half_extent must be positive and finite, got {self.half_extent}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.n

    @property
    def nyquist(self) -> float:
        """Largest per-axis frequency magnitude on the lattice, pi*n/(2L)."""
        return np.pi * self.n / (2.0 * self.half_extent)

    @property
    def min_freq(self) -> float:
        """Smallest nonzero frequency magnitude, pi/L."""
        return np.pi / self.half_extent

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    @property
    def freq_measure(self) -> float:
        return (np.pi / self.half_extent) ** self.dim

    def x_axis(self) -> np.ndarray:
        """Sample coordinates along one axis, natural order."""
        return -self.half_extent + self.spacing * np.arange(self.n)

    def freq_axis(self) -> np.ndarray:
        """Frequencies along one axis in numpy fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @lru_cache(maxsize=32)
    def x_norm(self) -> np.ndarray:
        """|x| on the lattice, natural order, cached (:func:`_sum_squares`)."""
        r = _sum_squares([self.x_axis()] * self.dim)
        return _frozen(np.sqrt(r, out=r))

    def xi_stack(self) -> np.ndarray:
        """Frequencies as an array of shape (dim,) + shape, fft order, built
        for each call in one allocation from meshgrid's views: only |xi| is
        cached (:meth:`xi_norm`).  Only symbols that are not built-ins build
        it (:func:`speclp.symbols._on_lattice`); the shift phase and the
        gradient kernel broadcast the 1-D axis."""
        return np.stack(np.meshgrid(*[self.freq_axis()] * self.dim, indexing="ij", copy=False))

    @lru_cache(maxsize=32)
    def xi_norm(self) -> np.ndarray:
        """|xi| on the whole lattice, fft order, cached (:func:`_sum_squares`);
        the built-in symbols and the radial profiles are evaluated on it."""
        r = _sum_squares([self.freq_axis()] * self.dim)
        return _frozen(np.sqrt(r, out=r))


def _sum_squares(axes) -> np.ndarray:
    """sum_k axes[k]^2 on the lattice they span, axis k varying along axis k,
    built by broadcasting the 1-D axes: the bits of ``(stack ** 2).sum(axis=0)``
    for their (d,) + shape coordinate stack, which adds the squares in axis
    order, without the stack."""
    total = axes[0] ** 2
    for a in axes[1:]:
        total = total[..., None] + a**2
    return total


def _frozen(a: np.ndarray) -> np.ndarray:
    """a marked read-only: the cached norms are shared by every caller."""
    a.setflags(write=False)
    return a


def _as_grid_array(grid: GridSpec, values, dtype=np.complex128) -> np.ndarray:
    """values as a C-contiguous array of ``dtype`` on the grid's shape, all
    finite.  Finiteness is tested in flat pieces of at most ``_CHUNK_BYTES``
    (one piece for an array that fits), so the test's bool array is never
    lattice-sized."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != grid.shape:
        raise ValueError(f"array shape {arr.shape} does not match grid shape {grid.shape}")
    flat, step = arr.reshape(-1), _CHUNK_BYTES // arr.itemsize
    if not all(np.isfinite(flat[i:i + step]).all() for i in range(0, flat.size, step)):
        raise ValueError("array contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Field:
    """Physical-space samples on a grid.  Treated as immutable once built.

    Whether a field is real is decided here, by value: samples with no
    nonzero imaginary part are stored as C-contiguous float64, whatever dtype
    they arrive in, and all others as complex128.  ``np.isrealobj(f.values)``
    is therefore the test for a real field.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if np.iscomplexobj(values) and not values.imag.any():
            values = values.real
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        object.__setattr__(self, "values", _as_grid_array(self.grid, values, dtype))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Frequency-space coefficients on the grid's frequency lattice (fft order)."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_grid_array(self.grid, self.coeffs))


def _fft(samples: np.ndarray, half: bool = False) -> np.ndarray:
    """Unscaled fft-order coefficients of natural-order samples, or with
    ``half`` (real samples only) their ``rfftn`` half spectrum, last axis
    0..n/2: the package's one forward FFT."""
    g = np.fft.ifftshift(samples)
    return np.fft.rfftn(g) if half else np.fft.fftn(g)


def _spectrum(f: Field, half: bool = False) -> np.ndarray:
    """The coefficients of :func:`forward_transform`, or with ``half`` (real
    f only) their half spectrum."""
    F = _fft(f.values, half)
    F *= f.grid.cell_measure / _two_pi_pow(f.grid.dim)
    return F


def forward_transform(f: Field) -> SpectralField:
    """Discrete Fourier transform approximating the continuum F(f).

    The result samples (2 pi)^(-d/2) * sum_x e^(-i x.xi) f(x) spacing^d on
    the frequency lattice, coefficients in fft order.
    """
    return SpectralField(f.grid, _spectrum(f))


def _ifft(grid: GridSpec, coeffs: np.ndarray, half: bool = False,
          rows: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Unscaled inverse FFT over the trailing ``grid.dim`` axes, in fft order,
    so a stack of spectra is one call: the package's one inverse FFT.  With
    ``half``, real samples of a half spectrum whose last axis holds the
    leading columns of 0..n/2, the rest taken as 0.

    It runs axis by axis in numpy's own order, so its bytes are those of
    ``irfftn`` and ``ifftn``: with ``half``, ``ifft`` over every spatial axis
    but the last, first to last, then ``irfft`` on the last; else ``ifft``
    from the last axis to the first.  Without ``out`` the first stage writes
    a new buffer (``coeffs`` is never written), and later stages transform
    in place.  With ``out``, ``coeffs`` is the caller's complex scratch: the
    leading stages transform it in place, the last stage writes into
    ``out``, and ``out`` is returned, with the same bytes.
    ``rows``, increasing fft-order indices, says that the coefficients live
    only on those indices of each whole axis (every spatial axis but the half
    one) and are 0 elsewhere: a stage then scatters its input into a zeroed
    buffer, full length along the axis it transforms, and transforms only the
    lines earlier stages filled; on the half path the last of these buffers
    has the full width n/2 + 1, so ``irfft`` gets its spectrum unpadded.

    On the half path at d = 3 with ``rows``, the stages after the first are
    the half path of a stack of d = 2 spectra, one per index of the first
    spatial axis.  They run over blocks of such indices, within each
    spectrum of a stack, whose full-width buffer holds at most
    ``_CHUNK_BYTES`` (at least one index), each block writing its samples
    straight into the result, so no lattice-sized complex buffer is held.
    Every line is transformed on its own, so the bytes do not move.  Without
    ``rows`` those stages run in place and need no buffer, so they run whole.
    """
    axes = range(coeffs.ndim - grid.dim, coeffs.ndim)
    stages = axes[:-1] if half else axes[::-1]
    blocked = half and grid.dim == 3 and rows is not None
    a = coeffs
    for ax in stages[:1] if blocked else stages:
        compact = a.shape[ax] < grid.n  # coefficients on `rows` of the axis only
        src = dest = a  # in place, once a is a buffer of its own or scratch
        if compact:
            shape = list(a.shape)
            shape[ax] = grid.n
            if half and ax == axes[-2]:
                shape[-1] = grid.n // 2 + 1
            a = np.zeros(shape, dtype=complex)
            dest = a[..., :src.shape[-1]] if ax < axes[-1] else a
            dest[(slice(None),) * ax + (rows,)] = src
            src = dest
        elif a is coeffs and out is None:
            a = dest = np.empty(a.shape, dtype=complex)
        if out is not None and ax == stages[-1] and not half:
            a = dest = out
        np.fft.ifft(src, axis=ax, out=dest)
        del src, dest  # the stage's input, unless it is coeffs or a itself
    if blocked:
        res = np.empty(a.shape[:-2] + grid.shape[1:]) if out is None else out
        plane = GridSpec(2, grid.n, grid.half_extent)
        step = max(1, _CHUNK_BYTES // (16 * grid.n * (grid.n // 2 + 1)))
        for spectrum in np.ndindex(a.shape[:-3]):
            for lo in range(0, grid.n, step):
                lines = spectrum + (slice(lo, lo + step),)
                _ifft(plane, a[lines], True, rows, out=res[lines])
        return res
    return np.fft.irfft(a, grid.n, axis=-1, out=out) if half else a


def _centre(a: np.ndarray, factor: Optional[float] = None) -> np.ndarray:
    """a times ``factor`` (if given), shifted by half its length along every
    axis, in place, and returned: the bytes of numpy's ``fftshift(a * factor)``
    for axes of even length.  That shift swaps each orthant of a with the
    opposite one, and scales each element as it moves it; the swap runs over
    blocks of first-axis indices of each orthant, so it holds one temporary
    of at most ``_CHUNK_BYTES`` (at least one index), not a second copy of
    a or a whole orthant."""
    halves = [(slice(0, n // 2), slice(n // 2, None)) for n in a.shape]
    orthant = tuple(n // 2 for n in a.shape)
    step = max(1, _CHUNK_BYTES // (math.prod(orthant[1:]) * a.itemsize))
    tmp = np.empty((min(step, orthant[0]),) + orthant[1:], dtype=a.dtype)
    for bits in itertools.product((0, 1), repeat=a.ndim - 1):
        # the orthant in the lower half of axis 0 and its opposite, by blocks
        rest_p = tuple(h[b] for h, b in zip(halves[1:], bits))
        rest_q = tuple(h[1 - b] for h, b in zip(halves[1:], bits))
        for lo in range(0, orthant[0], step):
            hi = min(lo + step, orthant[0])
            P = a[(slice(lo, hi),) + rest_p]
            Q = a[(slice(orthant[0] + lo, orthant[0] + hi),) + rest_q]
            t = tmp[:hi - lo]
            if factor is None:
                np.copyto(t, P)
                np.copyto(P, Q)
            else:
                np.multiply(P, factor, out=t)
                np.multiply(Q, factor, out=P)
            np.copyto(Q, t)
    return a


def _synthesize(grid: GridSpec, coeffs: np.ndarray, half: bool = False,
                rows: Optional[np.ndarray] = None,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Natural-order samples of fft-order coefficients times the synthesis
    factor (2 pi)^(d/2) / spacing^d: the package's one synthesis step.
    ``rows`` and ``out`` are passed to :func:`_ifft` (with ``out``, coeffs
    is the caller's scratch and the samples land in ``out``).  The samples
    are scaled and moved to natural order in one in-place pass
    (:func:`_centre`), so the call holds no second result-sized array after
    the transform."""
    return _centre(_ifft(grid, coeffs, half, rows, out), _two_pi_pow(grid.dim) / grid.cell_measure)


def inverse_transform(F: SpectralField) -> Field:
    """Exact inverse of :func:`forward_transform` (up to round-off)."""
    return Field(F.grid, _synthesize(F.grid, F.coeffs))


def _lattice(grid: GridSpec, half: bool) -> tuple:
    """Index of the rfftn half lattice (last axis 0..n/2) in an fft-order
    lattice array when ``half``, else of the whole lattice."""
    return (Ellipsis, slice(0, grid.n // 2 + 1) if half else slice(None))


def _hermitian(m: np.ndarray) -> bool:
    """True when m[-k] == conj(m[k]) exactly at every lattice index k (fft
    order): the package's one test for a multiplier whose synthesis of real
    input (or of a delta, a kernel) is real and may run on the half lattice."""
    mirror = np.roll(np.flip(m), 1, axis=tuple(range(m.ndim)))
    return bool(np.array_equal(mirror, np.conj(m)))


def _multiplied(f: Field, mults) -> Iterator[Field]:
    """Finv(m * F(f)) for each m of ``mults(half)``, from one transform of f.

    ``mults(half)`` iterates over the multipliers; a complex f takes
    ``mults(False)``, each m on the whole lattice.  A real f follows the
    real-part rule: its result is Re Finv(m * F(f)) = Finv(H(m) * F(f)), with
    H(m)(xi) = (m(xi) + conj m(-xi)) / 2 the Hermitian part of m, so it takes
    ``mults(True)``, each H(m) on the half lattice, and runs one ``rfftn``
    and one half-spectrum :func:`_synthesize` per multiplier.  Each
    multiplier is read before the next is drawn, so ``mults`` may reuse one
    buffer.  A real radial profile is its own Hermitian part; a shift phase
    is not, on the self-paired Nyquist planes.
    Kernels are real exactly when their multiplier passes :func:`_hermitian`;
    evolutions, of unknown symmetry, take the residue rule of
    :func:`speclp.evolution._drop_residue`.
    """
    half = np.isrealobj(f.values)
    F = _spectrum(f, half)
    for m in mults(half):
        # F stays the left factor: numpy's complex product is not commutative
        # bit for bit, and ``F * m`` would run as m's temporary ``m *= F`` on
        # large lattices
        yield Field(f.grid, _synthesize(f.grid, np.multiply(F, m), half))


def _multiply(f: Field, mult) -> Field:
    """:func:`_multiplied` for the one multiplier ``mult(half)``."""
    return next(_multiplied(f, lambda half: (mult(half),)))


def _energies(f: Field, mults) -> Iterator[float]:
    """||Finv(m F(f))||_2^2, the Riemann sum of |samples|^2 spacing^d, for
    each m of ``mults(True)``, for a real f: by the discrete Plancherel
    identity, from one ``rfftn`` and no inverse transform.

    Each m is a real multiplier on the half lattice with m(-xi) = m(xi), as a
    real radial profile is, so that the half spectrum stands for the whole.
    The power P = w |F|^2 (2 pi)^d / (spacing^d N), with F the half spectrum
    of :func:`_spectrum` and N the number of samples, weights w = 2 on the
    last-axis columns 1..n/2 - 1, which stand for their mirrors too, and
    w = 1 on the self-paired columns 0 and n/2.  Each result is numpy's own
    ``sum`` of P m^2 (no BLAS, so no dependence on the BLAS thread count),
    formed in one scratch array: m is only read, and is read before the next
    is drawn, as in :func:`_multiplied`.
    """
    grid = f.grid
    F = _spectrum(f, True)
    P = np.square(F.real)
    scratch = np.square(F.imag)
    P += scratch
    del F
    P *= _two_pi_pow(grid.dim) ** 2 / (grid.cell_measure * grid.n**grid.dim)
    P[..., 1:grid.n // 2] *= 2.0
    for m in mults(True):
        np.multiply(P, m, out=scratch)
        scratch *= m
        yield float(scratch.sum())


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm, (sum |f|^p spacing^d)^(1/p), for finite p >= 1.

    The sum has the bits of numpy's ``(abs(f) ** p).sum()`` and holds at
    most ``_CHUNK_BYTES`` of powers at a time (:func:`_power_sum`).  A real
    field at p = 2 is squared in one pass, with the bits of ``abs`` then
    ``**``.
    """
    if not 1 <= p < float("inf"):
        raise ValueError(f"p must be finite and >= 1, got {p}")

    def power(v):
        a = np.abs(v)
        a **= p  # in place: the same power as ``**``, with the same bits
        return a

    square = p == 2 and np.isrealobj(f.values)
    total = _power_sum(f.values.reshape(-1), np.square if square else power)
    return float(total * f.grid.cell_measure) ** (1.0 / p)


def _power_sum(v: np.ndarray, power) -> np.floating:
    """power(v).sum() for a flat v, over pieces of at most ``_CHUNK_BYTES``
    of float64, so only one piece's powers are held at a time.

    numpy sums a contiguous float64 array pairwise: it splits n elements
    into n2 = n // 2 rounded down to a multiple of 8 and n - n2, and adds
    the halves' sums.  Splitting v the same way until a piece fits, and
    summing each piece with numpy's own ``sum``, adds the same partial sums
    in the same order, so the result has the bits of the one-array sum
    (Higham, SIAM J. Sci. Comput. 14(4), 1993).  A v that fits is one piece.
    """
    if v.size <= _CHUNK_BYTES // 8:
        return power(v).sum()
    n2 = v.size // 2
    n2 -= n2 % 8
    return _power_sum(v[:n2], power) + _power_sum(v[n2:], power)


def mean_remove(f: Field) -> Field:
    """Project out the zero frequency mode (subtract the sample mean)."""
    return Field(f.grid, f.values - f.values.mean())


def spectral_shift(f: Field, y) -> Field:
    """Translate f by y: returns g with g(x) = f(x - y), exact for lattice content.

    The phase is a product of per-axis phases (:func:`_shift_phase`).  A real
    f gives the real part of the exact result.  The phase is not Hermitian on
    the self-paired Nyquist planes, so only content there differs from the
    exact shift: it is multiplied by the cosine of the phase instead.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (f.grid.dim,):
        raise ValueError(f"shift vector must have length {f.grid.dim}")
    return _multiply(f, lambda half: _shift_phase(f.grid, y, half))


def _shift_phase(grid: GridSpec, y: np.ndarray, half: bool) -> np.ndarray:
    """exp(-i y.xi) on the whole lattice, or its Hermitian part on the half one.

    The phase is the outer product of the per-axis phases exp(-i y_k xi_k),
    the last cut to the half axis 0..n/2 with ``half``.  A Nyquist component
    of xi is its own mirror, so on the half lattice the phase of the
    self-paired components S becomes cos(sum_{k in S} y_k xi_k) and the rest
    keeps exp(-i y_k xi_k): the cosine of one such axis is its factor's
    Nyquist entry, and where two or more meet the value is written directly.
    """
    axis, nyq = grid.freq_axis(), grid.n // 2
    # + 0.0 makes the -0.0 of y_k * 0 the +0.0 of the dot product y.xi
    factors = [np.exp(-1j * (yk * axis + 0.0)) for yk in y]
    if half:
        factors[-1] = factors[-1][: nyq + 1]
        for yk, e in zip(y, factors):
            e[nyq] = np.cos(yk * axis[nyq])
    phase = reduce(lambda p, e: np.multiply(p[..., None], e), factors)
    for S in itertools.chain(*(itertools.combinations(range(grid.dim), r)
                               for r in range(2, grid.dim + 1 if half else 2))):
        at = tuple(nyq if k in S else slice(None) for k in range(grid.dim))
        rest = [factors[k] for k in range(grid.dim) if k not in S] + [1.0]  # d <= 3
        phase[at] = np.cos((y[list(S)] * axis[nyq]).sum()) * rest[0]
    return phase


def refine_field(f: Field, factor: int = 2) -> Field:
    """Resample f on a grid with factor*n points per axis (same L).

    Exact trigonometric refinement: coefficients are copied to the matching
    frequencies of the finer lattice.  Intended for content below Nyquist/2,
    where the coarse lattice determines the function.  A real f gives the real
    part of the exact result; as for :func:`spectral_shift`, the part dropped
    sits on the coarse lattice's self-paired Nyquist planes.

    The padded spectrum is built only on the fine indices the placements fill
    along each axis, and :func:`_ifft` transforms only the lines they fill:
    for d >= 2 and factor >= 2 that skips most of the transform work and
    every zero-padded lattice, with the bytes of the full-lattice ``irfftn``
    or ``ifftn``.
    """
    if _index(factor, "factor") < 1:
        raise ValueError("factor must be a positive integer")
    g = f.grid
    fine = GridSpec(g.dim, g.n * factor, g.half_extent)
    # Each placement copies the coarse spectrum to the fine lattice with the
    # coarse Nyquist index -n/2 sent to the fine -n/2 (top = n/2) or to the
    # fine +n/2 (top = n/2 + 1).  A complex f takes the first placement.  A
    # real f takes the mean of both on the half lattice: that is the
    # Hermitian part of the padded spectrum, whose synthesis is the real part
    # of the exact result.  On the last axis the -n/2 placement falls off the
    # half lattice unless factor is 1, and a corner with Nyquist components of
    # both signs gets neither placement, so it stays 0, as it must.
    #
    # X holds the padded spectrum only on the union `keep` of the placements'
    # fine indices along each whole axis (on the half lattice, the last axis
    # keeps its leading columns 0..n/2).  For a real f it is whole along the
    # first axis, the axis of _ifft's first stage, which then transforms X in
    # place (given `out`): no coarse spectrum is held beside that stage's
    # buffer through the synthesis, which sets the peak memory.  At factor 1
    # the placements cover the whole lattice, and at d = 1 there is nothing
    # to skip, so both keep the whole lattice.
    real = np.isrealobj(f.values)
    tops = (g.n // 2, g.n // 2 + 1) if real else (g.n // 2,)
    F = (0.5 if real else 1.0) * _spectrum(f, real)
    width = fine.n // 2 + 1 if real else fine.n  # the last axis's length
    if factor == 1 or g.dim == 1:
        keep, shape = None, fine.shape[:-1] + (width,)
    else:
        keep = np.r_[0:tops[-1], fine.n - g.n + tops[0]:fine.n]
        shape = [fine.n if real else keep.size] + [keep.size] * (g.dim - 2)
        shape.append(np.count_nonzero(keep < width))
    X = np.zeros(shape, dtype=complex)
    for top in tops:
        rows = np.r_[0:top, fine.n - g.n + top:fine.n]
        at = [rows if keep is None else np.searchsorted(keep, rows)] * g.dim
        if real:
            at[0] = rows
        at[-1] = at[-1][rows < width]
        X[np.ix_(*at)] += F[..., :at[-1].size]
    del F  # not held through the synthesis, which sets the peak memory
    samples = _synthesize(fine, X, real, keep, np.empty(fine.shape) if real else None)
    del X  # not held through Field's check of the samples
    return Field(fine, samples)
