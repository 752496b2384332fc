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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

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


def _synthesize(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Natural-order samples of fft-order coefficients times the synthesis
    factor (2 pi)^(d/2) / spacing^d: the package's one inverse transform."""
    return np.fft.fftshift(np.fft.ifftn(coeffs)) * (_two_pi_pow(grid.dim) / grid.cell_measure)


def inverse_transform(F: SpectralField) -> Field:
    """Exact inverse of :func:`forward_transform` (up to round-off)."""
    return Field(F.grid, _synthesize(F.grid, F.coeffs))


def _multiply(f: Field, mult: np.ndarray) -> Field:
    """Finv(mult * F(f)); a real f gives the real part of the result.

    This real-part rule fits multipliers conjugate-symmetric by construction
    off the self-paired Nyquist planes (real radial profiles, a shift phase,
    the principal-value multiplier): it drops round-off and content on those
    planes.  Evolutions, of unknown symmetry, take the residue rule of
    :func:`speclp.evolution._drop_residue` instead.
    """
    return _real_part(f, f.grid, _synthesize(f.grid, _spectrum(f) * mult))


def _real_part(f: Field, grid: GridSpec, vals: np.ndarray) -> Field:
    """The real-part rule: Field of vals on grid, cut to their real part when
    the input f is real."""
    return Field(grid, vals.real if np.isrealobj(f.values) else vals)


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
    Hermitian on the self-paired Nyquist planes, so only content there is
    dropped.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (f.grid.dim,):
        raise ValueError(f"shift vector must have length {f.grid.dim}")
    return _multiply(f, np.exp(-1j * np.tensordot(y, f.grid.xi_stack(), axes=(0, 0))))


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
    # the centred coarse spectrum sits in the middle of the centred fine one
    centred = np.pad(np.fft.fftshift(_spectrum(f)), (fine.n - g.n) // 2)
    return _real_part(f, fine, _synthesize(fine, np.fft.ifftshift(centred)))
