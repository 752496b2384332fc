"""Deterministic test-function corpora on periodic grids.

Every entry is effectively supported inside the torus (boundary samples of
the raw bump below 1e-14 of the peak, checked before any mean removal - a
constant offset is exactly periodic and harmless) and band-limited below
half the Nyquist frequency, so periodization and aliasing sit far below the
verification tolerances.  BANDLIMITED_RANDOM synthesizes its random draw by
:func:`speclp.spectral._synthesize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

import numpy as np

from .errors import ConfigError
from .spectral import Field, GridSpec, _sum_squares, _synthesize, mean_remove

__all__ = ["CorpusEntry", "generate_corpus", "GAUSSIAN_MIX", "BANDLIMITED_RANDOM"]

GAUSSIAN_MIX = "GAUSSIAN_MIX"
BANDLIMITED_RANDOM = "BANDLIMITED_RANDOM"

_BOUNDARY_TOL = 1e-14


@dataclass(frozen=True)
class CorpusEntry:
    id: int
    field: Field
    band: Tuple[float, float]
    mean_removed: bool


def _check_boundary(grid: GridSpec, raw: np.ndarray, entry: int, seed: int, kind: str) -> None:
    """ConfigError naming the draw when a sample beyond 0.9 L exceeds
    _BOUNDARY_TOL times the peak: the draw, not the grid, is at fault when
    other seeds draw on the same grid."""
    r = grid.x_norm() if grid.dim > 1 else np.abs(grid.x_axis())
    mask = r > 0.9 * grid.half_extent
    peak = np.abs(raw).max()
    if mask.any() and (edge := np.abs(raw[mask]).max()) > _BOUNDARY_TOL * peak:
        raise ConfigError(f"corpus entry {entry} (seed {seed}, {kind}) violates the "
                          f"boundary-decay envelope: boundary/peak = {edge / peak:.3g} > "
                          f"{_BOUNDARY_TOL:g}")


def _flat_top(grid: GridSpec) -> np.ndarray:
    r = grid.x_norm()
    return np.exp(-((r / (0.35 * grid.half_extent)) ** 8))


def _gaussian_mix(rng, grid: GridSpec) -> Tuple[np.ndarray, Tuple[float, float]]:
    L = grid.half_extent
    sigma_min = 16.06 / grid.nyquist   # |spectrum| < 1e-14 beyond Nyquist/2
    sigma_max = min(3.0 * sigma_min, 0.078 * L)  # decays inside the box
    if sigma_max < sigma_min:
        raise ConfigError("grid cannot host a bump that is both band-limited "
                          "and boundary-decaying; increase n or L")
    x = grid.x_axis()
    n_bumps = int(rng.integers(2, 5))
    vals = np.zeros(grid.shape)
    smallest = np.inf
    for _ in range(n_bumps):
        c = rng.uniform(-L / 4.0, L / 4.0, size=grid.dim)
        sig = rng.uniform(sigma_min, sigma_max)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        smallest = min(smallest, sig)
        r2 = _sum_squares([x - ck for ck in c])  # |x - c|^2 from the axes
        vals = vals + amp * np.exp(-r2 / (2.0 * sig**2))
    band_hi = min(np.sqrt(2.0 * np.log(1e14)) / smallest, grid.nyquist / 2.0)
    return vals, (grid.min_freq, band_hi)


def _bandlimited_random(grid: GridSpec):
    """The BANDLIMITED_RANDOM draw on grid, as a function of the generator:
    the band envelope and the flat top are built once per corpus."""
    lo, hi = grid.nyquist / 16.0, grid.nyquist / 4.0
    xi = grid.xi_norm()
    env = np.exp(-1.0 / np.maximum(1e-12, 1.0 - (2.0 * (xi - lo) / (hi - lo) - 1.0) ** 2))
    env[(xi <= lo) | (xi >= hi)] = 0.0
    top = _flat_top(grid)

    def draw(rng) -> Tuple[np.ndarray, Tuple[float, float]]:
        coeffs = env * (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
        raw = _synthesize(grid, coeffs).real  # a random draw: its scale is divided out
        return raw / max(np.abs(raw).max(), 1e-300) * top, (lo, hi)

    return draw


def _kind(kind: str) -> str:
    """The kind ``kind`` names, in any case and with '-' for '_'; else ConfigError."""
    kind = kind.upper().replace("-", "_")
    if kind not in (GAUSSIAN_MIX, BANDLIMITED_RANDOM):
        raise ConfigError(f"unknown corpus kind {kind!r}")
    return kind


def generate_corpus(seed: int, grid: GridSpec, kind: str, count: int,
                    mean_removed: bool = True) -> List[CorpusEntry]:
    """Seed-deterministic corpus of ``count`` fields; each band has 0 < lo < hi <= Nyquist/2."""
    if count < 1:
        raise ValueError("count must be at least 1")
    kind = _kind(kind)
    rng = np.random.default_rng(seed)
    draw = (_bandlimited_random(grid) if kind == BANDLIMITED_RANDOM
            else partial(_gaussian_mix, grid=grid))
    entries = []
    for i in range(count):
        raw, b = draw(rng)
        _check_boundary(grid, raw, i, seed, kind)
        f = Field(grid, raw)
        if mean_removed:
            f = mean_remove(f)
        entries.append(CorpusEntry(id=i, field=f, band=b, mean_removed=mean_removed))
    return entries
