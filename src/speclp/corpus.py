"""Deterministic test-function corpora on periodic grids.

Every entry is effectively supported inside the torus (boundary samples of
the raw bump below 1e-14 of the peak, checked before any mean removal - a
constant offset is exactly periodic and harmless) and band-limited below
half the Nyquist frequency, so periodization and aliasing sit far below the
verification tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConfigError
from .spectral import Field, GridSpec, forward_transform, mean_remove

__all__ = ["CorpusEntry", "generate_corpus", "GAUSSIAN_MIX", "BANDLIMITED_RANDOM", "ANNULUS"]

GAUSSIAN_MIX = "GAUSSIAN_MIX"
BANDLIMITED_RANDOM = "BANDLIMITED_RANDOM"
ANNULUS = "ANNULUS"

_BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class CorpusEntry:
    id: int
    field: Field
    band: Tuple[float, float]
    mean_removed: bool


def _check_boundary(grid: GridSpec, raw: np.ndarray) -> None:
    r = grid.x_norm() if grid.dim > 1 else np.abs(grid.x_axis())
    mask = r > 0.9 * grid.half_extent
    peak = np.abs(raw).max()
    if mask.any() and np.abs(raw[mask]).max() > _BOUNDARY_TOL * peak:
        raise ConfigError("corpus entry violates the boundary-decay envelope; "
                          "grid too small for the requested content")


def _check_band(grid: GridSpec, band: Tuple[float, float]) -> None:
    lo, hi = band
    if not (0.0 < lo < hi):
        raise ConfigError(f"band must satisfy 0 < lo < hi, got {band}")
    if hi > grid.nyquist / 2.0:
        raise ConfigError(f"band upper edge {hi} exceeds Nyquist/2 = {grid.nyquist / 2.0}")


def _flat_top(grid: GridSpec, width_frac: float = 0.35) -> np.ndarray:
    r = grid.x_norm()
    return np.exp(-((r / (width_frac * grid.half_extent)) ** 8))


def _gaussian_mix(rng, grid: GridSpec) -> Tuple[np.ndarray, Tuple[float, float]]:
    L = grid.half_extent
    sigma_min = 16.06 / grid.nyquist   # |spectrum| < 1e-14 beyond Nyquist/2
    sigma_max = min(3.0 * sigma_min, 0.078 * L)  # decays inside the box
    if sigma_max < sigma_min:
        raise ConfigError("grid cannot host a bump that is both band-limited "
                          "and boundary-decaying; increase n or L")
    x = grid.x_stack()
    n_bumps = int(rng.integers(2, 5))
    vals = np.zeros(grid.shape)
    smallest = np.inf
    for _ in range(n_bumps):
        c = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
        sig = rng.uniform(sigma_min, sigma_max)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        smallest = min(smallest, sig)
        r2 = ((x - c.reshape((-1,) + (1,) * grid.dim)) ** 2).sum(axis=0)
        vals = vals + amp * np.exp(-r2 / (2.0 * sig**2))
    band_hi = min(np.sqrt(2.0 * np.log(1e14)) / smallest, grid.nyquist / 2.0)
    return vals, (grid.min_freq, band_hi)


def _bandlimited_random(rng, grid: GridSpec,
                        band: Optional[Tuple[float, float]]) -> Tuple[np.ndarray, Tuple[float, float]]:
    lo, hi = band if band is not None else (grid.nyquist / 16.0, grid.nyquist / 4.0)
    xi = grid.xi_norm()
    env = np.exp(-1.0 / np.maximum(1e-12, 1.0 - (2.0 * (xi - lo) / (hi - lo) - 1.0) ** 2))
    env[(xi <= lo) | (xi >= hi)] = 0.0
    coeffs = env * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    raw = np.fft.ifftn(coeffs).real  # Hermitian part only; just a random draw
    raw = raw / max(np.abs(raw).max(), 1e-300)
    vals = raw * _flat_top(grid)
    return vals, (lo, hi)


def _annulus(rng, grid: GridSpec, j0: Optional[int]) -> Tuple[np.ndarray, Tuple[float, float]]:
    if j0 is None:
        # largest dyadic shell fitting under Nyquist/2
        j0 = int(np.floor(np.log2(grid.nyquist / 2.0) - 0.1))
    xi0 = 2.0**j0
    if xi0 * 2.0**0.1 > grid.nyquist / 2.0:
        raise ConfigError(f"annulus 2^{j0} exceeds Nyquist/2")
    half_width = xi0 * (2.0**0.1 - 2.0**-0.1) / 2.0
    sigma_e = 0.105 * grid.half_extent  # largest envelope still decaying by 0.9 L
    if sigma_e * half_width < 2.6:  # >= 99.97% of the energy inside the shell
        raise ConfigError("half extent too small to concentrate energy in the "
                          f"2^{j0} shell; increase L or j0")
    direction = rng.standard_normal(grid.dim)
    direction /= np.linalg.norm(direction)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x = grid.x_stack()
    envelope = np.exp(-(x**2).sum(axis=0) / (2.0 * sigma_e**2))
    carrier = np.cos(xi0 * np.tensordot(direction, x, axes=(0, 0)) + phase)
    return envelope * carrier, (xi0 * 2.0**-0.1, xi0 * 2.0**0.1)


def generate_corpus(seed: int, grid: GridSpec, kind: str, count: int,
                    mean_removed: bool = True,
                    band: Optional[Tuple[float, float]] = None,
                    j0: Optional[int] = None) -> List[CorpusEntry]:
    """Seed-deterministic corpus of ``count`` fields of the requested kind."""
    if count < 1:
        raise ValueError("count must be at least 1")
    kind = kind.upper().replace("-", "_")
    if kind not in (GAUSSIAN_MIX, BANDLIMITED_RANDOM, ANNULUS):
        raise ConfigError(f"unknown corpus kind {kind!r}")
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(count):
        if kind == GAUSSIAN_MIX:
            raw, b = _gaussian_mix(rng, grid)
        elif kind == BANDLIMITED_RANDOM:
            raw, b = _bandlimited_random(rng, grid, band)
        else:
            raw, b = _annulus(rng, grid, j0)
        _check_band(grid, b)
        _check_boundary(grid, raw)
        f = Field(grid, raw)
        if mean_removed:
            f = mean_remove(f)
        entries.append(CorpusEntry(id=i, field=f, band=b, mean_removed=mean_removed))
    return entries


def annulus_energy_fraction(entry: CorpusEntry) -> float:
    """Spectral energy fraction inside the entry's recorded band."""
    F = forward_transform(entry.field)
    xi = entry.field.grid.xi_norm()
    e = np.abs(F.coeffs) ** 2
    lo, hi = entry.band
    inside = e[(xi >= lo) & (xi <= hi)].sum()
    total = e.sum()
    return float(inside / total) if total > 0 else 0.0
