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

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MultiplierError

__all__ = [
    "GridSpec",
    "Field",
    "SpectralField",
    "forward_transform",
    "inverse_transform",
    "apply_multiplier",
    "apply_multiplier_array",
    "lp_norm",
    "mean_remove",
    "spectral_shift",
    "refine_field",
    "save_field",
    "load_field",
    "export_field_csv",
]


def _two_pi_pow(d: int) -> float:
    return (2.0 * np.pi) ** (d / 2.0)


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
        L > 0; the domain is the torus [-L, L)^d.
    """

    dim: int
    n: int
    half_extent: float

    def __post_init__(self):
        if self.dim < 1 or self.dim > 3:
            raise ValueError(f"dim must be in 1..3, got {self.dim}")
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")

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

    def x_stack(self) -> np.ndarray:
        """Coordinates as an array of shape (dim,) + shape, natural order."""
        return _x_stack(self)

    def x_norm(self) -> np.ndarray:
        return _x_norm(self)

    def xi_stack(self) -> np.ndarray:
        """Frequencies as an array of shape (dim,) + shape, fft order."""
        return _xi_stack(self)

    def xi_norm(self) -> np.ndarray:
        return _xi_norm(self)


@lru_cache(maxsize=32)
def _x_stack(grid: GridSpec) -> np.ndarray:
    axes = np.meshgrid(*([grid.x_axis()] * grid.dim), indexing="ij")
    out = np.stack(axes, axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _x_norm(grid: GridSpec) -> np.ndarray:
    out = np.sqrt((_x_stack(grid) ** 2).sum(axis=0))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _xi_stack(grid: GridSpec) -> np.ndarray:
    axes = np.meshgrid(*([grid.freq_axis()] * grid.dim), indexing="ij")
    out = np.stack(axes, axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _xi_norm(grid: GridSpec) -> np.ndarray:
    out = np.sqrt((_xi_stack(grid) ** 2).sum(axis=0))
    out.setflags(write=False)
    return out


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


def forward_transform(f: Field) -> SpectralField:
    """Discrete Fourier transform approximating the continuum F(f).

    The result samples (2 pi)^(-d/2) * sum_x e^(-i x.xi) f(x) spacing^d on
    the frequency lattice, coefficients in fft order.
    """
    g = np.fft.ifftshift(f.values)
    d = f.grid.dim
    coeffs = np.fft.fftn(g) * (f.grid.cell_measure / _two_pi_pow(d))
    return SpectralField(f.grid, coeffs)


def inverse_transform(F: SpectralField) -> Field:
    """Exact inverse of :func:`forward_transform` (up to round-off)."""
    d = F.grid.dim
    vals = np.fft.fftshift(np.fft.ifftn(F.coeffs)) * (_two_pi_pow(d) / F.grid.cell_measure)
    return Field(F.grid, vals)


# imaginary residue, relative to the result's largest magnitude, that the
# result of a real input may carry and still come out real
_RESIDUE = 1e-10


def _drop_residue(out: Field) -> Field:
    """The real part of out when its imaginary residue is negligible, else out.

    This is the real-output rule for multipliers of unknown symmetry: a
    result whose imaginary residue is at most 1e-10 of its own largest
    magnitude comes out real.  A conjugate-symmetric multiplier leaves only
    round-off there, unless the result itself is round-off.
    """
    scale = np.abs(out.values).max()
    if scale == 0.0 or np.abs(out.values.imag).max() <= _RESIDUE * scale:
        return Field(out.grid, out.values.real)
    return out


def _multiply(f: Field, mult: np.ndarray, real_part: bool = False) -> Field:
    """Finv(mult * F(f)), with a real-output rule for a real f.

    With ``real_part`` a real f gives the real part of the result: the rule
    for multipliers that are conjugate-symmetric by construction, at least
    off the self-paired Nyquist planes (real radial profiles, a shift
    phase).  Otherwise a real f gives a real result when
    :func:`_drop_residue` allows it.
    """
    out = inverse_transform(SpectralField(f.grid, forward_transform(f).coeffs * mult))
    if not np.isrealobj(f.values):
        return out
    return Field(f.grid, out.values.real) if real_part else _drop_residue(out)


def apply_multiplier(F: SpectralField, m) -> SpectralField:
    """Multiply coefficients pointwise by m(xi).

    ``m`` is called with the stacked frequency array of shape (dim,) + shape
    and must return a complex array of the grid shape (broadcasting allowed).
    """
    values = np.broadcast_to(np.asarray(m(F.grid.xi_stack()), dtype=np.complex128), F.grid.shape)
    return apply_multiplier_array(F, values)


def apply_multiplier_array(F: SpectralField, values: np.ndarray) -> SpectralField:
    """Multiply coefficients by a precomputed multiplier array (fft order)."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != F.grid.shape:
        raise ValueError("multiplier array shape does not match grid")
    bad = ~np.isfinite(values)
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        xi = tuple(F.grid.xi_stack()[(slice(None),) + idx])
        raise MultiplierError(f"multiplier non-finite at xi={xi}")
    return SpectralField(F.grid, F.coeffs * values)


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm, (sum |f|^p spacing^d)^(1/p)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
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
    xi = f.grid.xi_stack()
    return _multiply(f, np.exp(-1j * np.tensordot(y, xi, axes=(0, 0))), real_part=True)


def refine_field(f: Field, factor: int = 2) -> Field:
    """Resample f on a grid with factor*n points per axis (same L).

    Exact trigonometric refinement: coefficients are copied to the matching
    frequencies of the finer lattice.  Intended for content below Nyquist/2,
    where the coarse lattice determines the function.  A real f gives the real
    part of the exact result; as for :func:`spectral_shift`, the part dropped
    sits on the coarse lattice's self-paired Nyquist planes.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    g = f.grid
    fine = GridSpec(g.dim, g.n * factor, g.half_extent)
    coarse = forward_transform(f).coeffs
    shifted = np.fft.fftshift(coarse)
    out = np.zeros(fine.shape, dtype=np.complex128)
    lo = fine.n // 2 - g.n // 2
    sl = tuple(slice(lo, lo + g.n) for _ in range(g.dim))
    out_sh = np.fft.fftshift(out)
    out_sh[sl] = shifted
    vals = inverse_transform(SpectralField(fine, np.fft.ifftshift(out_sh)))
    return Field(fine, vals.values.real) if np.isrealobj(f.values) else vals


# --- serialization ----------------------------------------------------------

_MAGIC = b"SPLF"
_HEADER = "<4sII d"  # magic, dim, n, L


def save_field(f: Field, path) -> None:
    """Write a field as little-endian complex64 with a (d, n, L) header."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(_HEADER, _MAGIC, f.grid.dim, f.grid.n, f.grid.half_extent))
        fh.write(np.ascontiguousarray(f.values.astype("<c8")).tobytes())


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(_HEADER))
        magic, dim, n, L = struct.unpack(_HEADER, head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field file")
        grid = GridSpec(dim, n, L)
        raw = np.frombuffer(fh.read(), dtype="<c8")
    if raw.size != n**dim:
        raise ValueError(f"{path}: truncated payload")
    return Field(grid, raw.reshape(grid.shape))


def export_field_csv(f: Field, path) -> None:
    """Write (flat index, re, im) rows for plotting."""
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        for i, v in enumerate(flat):
            fh.write(f"{i},{v.real!r},{v.imag!r}\n")
