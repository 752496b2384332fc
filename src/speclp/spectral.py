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
spectral coefficients are stored in ``numpy.fft`` frequency order.

A multiplier keeps the real part of its result for a real field (the
real-part rule of :func:`_multiplied` and :func:`refine_field`), and computes
it on the ``rfftn`` half spectrum (:func:`_lattice`) as a float64 field; a
complex field keeps the complex ``fftn``/``ifftn`` route.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

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
    def x_stack(self) -> np.ndarray:
        """Coordinates as an array of shape (dim,) + shape, natural order."""
        return _frozen(np.stack(np.meshgrid(*([self.x_axis()] * self.dim), indexing="ij"), axis=0))

    @lru_cache(maxsize=32)
    def x_norm(self) -> np.ndarray:
        return _frozen(np.sqrt((self.x_stack() ** 2).sum(axis=0)))

    @lru_cache(maxsize=32)
    def xi_stack(self) -> np.ndarray:
        """Frequencies as an array of shape (dim,) + shape, fft order."""
        return _frozen(np.stack(np.meshgrid(*([self.freq_axis()] * self.dim), indexing="ij"),
                                axis=0))

    @lru_cache(maxsize=32)
    def xi_norm(self) -> np.ndarray:
        return _frozen(np.sqrt((self.xi_stack() ** 2).sum(axis=0)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a marked read-only: the cached stacks are shared by every caller."""
    a.setflags(write=False)
    return a


def _as_grid_array(grid: GridSpec, values, dtype=np.complex128) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.shape != grid.shape:
        raise ValueError(f"array shape {arr.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(arr)):
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


def _spectrum(f: Field, half: bool = False) -> np.ndarray:
    """The coefficients of :func:`forward_transform`, or with ``half`` (real
    f only) their ``rfftn`` half spectrum: last axis 0..n/2."""
    g = np.fft.ifftshift(f.values)
    F = np.fft.rfftn(g) if half else np.fft.fftn(g)
    F *= f.grid.cell_measure / _two_pi_pow(f.grid.dim)
    return F


def forward_transform(f: Field) -> SpectralField:
    """Discrete Fourier transform approximating the continuum F(f).

    The result samples (2 pi)^(-d/2) * sum_x e^(-i x.xi) f(x) spacing^d on
    the frequency lattice, coefficients in fft order.
    """
    return SpectralField(f.grid, _spectrum(f))


def _synthesize(grid: GridSpec, coeffs: np.ndarray, half: bool = False) -> np.ndarray:
    """Natural-order samples of fft-order coefficients times the synthesis
    factor (2 pi)^(d/2) / spacing^d: the package's one inverse transform.
    With ``half``, real samples of an ``rfftn`` half spectrum."""
    samples = (np.fft.irfftn(coeffs, s=grid.shape, axes=range(grid.dim)) if half
               else np.fft.ifftn(coeffs))
    samples *= _two_pi_pow(grid.dim) / grid.cell_measure
    return np.fft.fftshift(samples)


def inverse_transform(F: SpectralField) -> Field:
    """Exact inverse of :func:`forward_transform` (up to round-off)."""
    return Field(F.grid, _synthesize(F.grid, F.coeffs))


def _lattice(grid: GridSpec, half: bool) -> tuple:
    """Index of the rfftn half lattice (last axis 0..n/2) in an fft-order
    lattice array when ``half``, else of the whole lattice."""
    return (Ellipsis, slice(0, grid.n // 2 + 1) if half else slice(None))


def _multiplied(f: Field, mults) -> Iterator[Field]:
    """Finv(m * F(f)) for each m in ``mults``, from one transform of f.

    Each multiplier is a callable ``mult(half)``; a complex f takes
    ``mult(False)``, m on the whole lattice.  A real f follows the real-part
    rule: its result is Re Finv(m * F(f)) = Finv(H(m) * F(f)), with
    H(m)(xi) = (m(xi) + conj m(-xi)) / 2 the Hermitian part of m, so it takes
    ``mult(True)``, H(m) on the half lattice, and runs one ``rfftn`` and one
    ``irfftn`` per multiplier.  A real radial profile is its own Hermitian
    part; a shift phase is not, on the self-paired Nyquist planes.
    Evolutions, of unknown symmetry, take the residue rule of
    :func:`speclp.evolution._drop_residue` instead.
    """
    half = np.isrealobj(f.values)
    F = _spectrum(f, half)
    for mult in mults:
        # F stays the left factor: numpy's complex product is not commutative
        # bit for bit, and ``F * mult(half)`` would run as mult's temporary
        # ``m *= F`` on large lattices
        yield Field(f.grid, _synthesize(f.grid, np.multiply(F, mult(half)), half))


def _multiply(f: Field, mult) -> Field:
    """The one multiplier of :func:`_multiplied`."""
    return next(_multiplied(f, (mult,)))


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm, (sum |f|^p spacing^d)^(1/p), for finite p >= 1."""
    if not 1 <= p < float("inf"):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    a = np.abs(f.values)
    return float((a**p).sum() * f.grid.cell_measure) ** (1.0 / p)


def mean_remove(f: Field) -> Field:
    """Project out the zero frequency mode (subtract the sample mean)."""
    return Field(f.grid, f.values - f.values.mean())


def spectral_shift(f: Field, y) -> Field:
    """Translate f by y: returns g with g(x) = f(x - y), exact for lattice content.

    A real f gives the real part of the exact result.  The phase is not
    Hermitian on the self-paired Nyquist planes, so only content there
    differs from the exact shift: it is multiplied by the cosine of the
    phase instead of the phase.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (f.grid.dim,):
        raise ValueError(f"shift vector must have length {f.grid.dim}")
    return _multiply(f, lambda half: _shift_phase(f.grid, y, half))


def _shift_phase(grid: GridSpec, y: np.ndarray, half: bool) -> np.ndarray:
    """exp(-i y.xi) on the whole lattice, or its Hermitian part on the half one.

    A Nyquist component of xi is its own mirror, so on the half lattice the
    phase of the self-paired components S becomes cos(sum_{k in S} y_k xi_k)
    and the rest keeps exp(-i y_k xi_k).
    """
    xi = grid.xi_stack()[_lattice(grid, half)]
    if not half:
        return np.exp(-1j * np.tensordot(y, xi, axes=(0, 0)))
    nyquist = xi == grid.freq_axis()[grid.n // 2]
    phase = np.exp(-1j * np.tensordot(y, np.where(nyquist, 0.0, xi), axes=(0, 0)))
    planes = nyquist.any(axis=0)
    phase[planes] *= np.cos(np.tensordot(y, np.where(nyquist, xi, 0.0), axes=(0, 0))[planes])
    return phase


def refine_field(f: Field, factor: int = 2) -> Field:
    """Resample f on a grid with factor*n points per axis (same L).

    Exact trigonometric refinement: coefficients are copied to the matching
    frequencies of the finer lattice.  Intended for content below Nyquist/2,
    where the coarse lattice determines the function.  A real f gives the real
    part of the exact result; as for :func:`spectral_shift`, the part dropped
    sits on the coarse lattice's self-paired Nyquist planes.
    """
    if _index(factor, "factor") < 1:
        raise ValueError("factor must be a positive integer")
    g = f.grid
    fine = GridSpec(g.dim, g.n * factor, g.half_extent)
    if not np.isrealobj(f.values):
        # the centred coarse spectrum sits in the middle of the centred fine one
        centred = np.pad(np.fft.fftshift(_spectrum(f)), (fine.n - g.n) // 2)
        return Field(fine, _synthesize(fine, np.fft.ifftshift(centred)))
    # The real part is the synthesis of the Hermitian part of the padded
    # spectrum, which splits each coarse Nyquist index -n/2 into halves at the
    # fine -n/2 and +n/2.  On the half lattice that is the mean of two
    # placements of the coarse half spectrum: one sends the coarse Nyquist to
    # -n/2 (off the half lattice on the last axis unless factor is 1), the
    # other to +n/2.  A corner with Nyquist components of both signs gets
    # neither placement, so it stays 0, as it must.
    h = g.n // 2
    F = 0.5 * _spectrum(f, half=True)
    X = np.zeros(fine.shape[:-1] + (fine.n // 2 + 1,), dtype=complex)
    for top in (h, h + 1):  # the coarse Nyquist sent to the fine -n/2, then to +n/2
        rows = np.r_[0:top, fine.n - g.n + top:fine.n]
        cols = rows[rows <= fine.n // 2]
        X[np.ix_(*[rows] * (g.dim - 1), cols)] += F[..., :cols.size]
    return Field(fine, _synthesize(fine, X, half=True))
