"""Dyadic frequency decomposition, block operators, and Besov/Sobolev norms.

The radial cutoff chi is 1 on [0, 1], 0 on [2, inf), and in between equals
g(2 - rho) / (g(2 - rho) + g(rho - 1)) with g(u) = exp(-1/u) for u > 0 and 0
otherwise.  The bump is Phi(xi) = chi(|xi|) - chi(2|xi|), which is supported
exactly in {1/2 <= |xi| <= 2}, is nonnegative, and telescopes:

    sum_{j=m}^{M} Phi(2^-j xi) = chi(2^-M |xi|) - chi(2^(1-m) |xi|),

identically 1 for 2^m <= |xi| <= 2^M.  The low-frequency part is implemented
as the single multiplier chi(|xi|) (equal to the tail sum of blocks, with the
zero mode passed through).

All multipliers here are real radial profiles, conjugate-symmetric on the
lattice, so each is its own Hermitian part: a real field takes the profile on
the ``rfftn`` half lattice and gives float64 blocks (see
:func:`speclp.spectral._multiplied`).  :func:`besov_norm0` transforms its
field once for all its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, GridSpec, _lattice, _multiplied, _multiply, lp_norm

__all__ = [
    "DyadicDecomposition",
    "build_decomposition",
    "chi_profile",
    "bump_profile",
    "block",
    "block_multiplier",
    "low_part",
    "besov_norm0",
    "sobolev_norm",
    "block_energy_table",
]


def _g(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def chi_profile(rho) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0,1], 0 on [2,inf), exponential ratio between."""
    rho = np.asarray(rho, dtype=float)
    a = _g(2.0 - rho)
    b = _g(rho - 1.0)
    mid = (rho > 1.0) & (rho < 2.0)
    out = np.where(rho <= 1.0, 1.0, 0.0)
    out[mid] = a[mid] / (a[mid] + b[mid])
    return out


def bump_profile(rho) -> np.ndarray:
    """Phi as a function of radius: chi(rho) - chi(2 rho)."""
    rho = np.asarray(rho, dtype=float)
    return chi_profile(rho) - chi_profile(2.0 * rho)


@dataclass(frozen=True, eq=False)
class DyadicDecomposition:
    """Active dyadic range for one grid, with the fixed radial profiles."""

    grid: GridSpec
    j_min: int
    j_max: int

    @property
    def j_range(self):
        return range(self.j_min, self.j_max + 1)


def build_decomposition(grid: GridSpec) -> DyadicDecomposition:
    """Choose the dyadic range covering [min nonzero |xi|, max lattice |xi|]."""
    xi_lo = grid.min_freq
    xi_hi = np.sqrt(grid.dim) * grid.nyquist
    j_min = int(np.floor(np.log2(xi_lo) + 1e-12))
    j_max = int(np.ceil(np.log2(xi_hi) - 1e-12))
    return DyadicDecomposition(grid=grid, j_min=j_min, j_max=j_max)


def block_multiplier(D: DyadicDecomposition, j: int) -> np.ndarray:
    return bump_profile(D.grid.xi_norm() * 2.0 ** (-j))


def _radial(grid: GridSpec, profile):
    """profile(|xi|) as a ``mult(half)`` of :func:`speclp.spectral._multiplied`:
    on the half lattice too it is the profile itself, its own Hermitian part."""
    return lambda half: profile(grid.xi_norm()[_lattice(grid, half)])


def _bump(D: DyadicDecomposition, j: int):
    """Block j's multiplier Phi(2^-j xi) as a ``mult(half)``."""
    return _radial(D.grid, lambda rho: bump_profile(rho * 2.0 ** (-j)))


def _partition_defect(D: DyadicDecomposition) -> float:
    """Largest |sum_j Phi(2^-j xi) - 1| over the nonzero lattice frequencies."""
    xi = D.grid.xi_norm()
    total = np.zeros(D.grid.shape)
    for j in D.j_range:
        total += block_multiplier(D, j)
    return float(np.abs(total[xi > 0] - 1.0).max())


def block(f: Field, j: int, D: DyadicDecomposition) -> Field:
    """Dyadic block: inverse transform of Phi(2^-j xi) * F(f)."""
    if j < D.j_min or j > D.j_max:
        raise ValueError(f"j={j} outside active range [{D.j_min}, {D.j_max}]")
    if f.grid != D.grid:
        raise ValueError("field and decomposition grids do not match")
    return _multiply(f, _bump(D, j))


def low_part(f: Field, D: DyadicDecomposition) -> Field:
    """Low-frequency part: multiplier chi(|xi|); passes the zero mode through."""
    if f.grid != D.grid:
        raise ValueError("field and decomposition grids do not match")
    return _multiply(f, _radial(f.grid, chi_profile))


def _low_and_blocks(f: Field, D: DyadicDecomposition, j_lo: int):
    """low_part(f, D), then block(f, j, D) for j = j_lo..j_max, from one
    transform of f (an iterator of Fields)."""
    if f.grid != D.grid:
        raise ValueError("field and decomposition grids do not match")
    return _multiplied(f, [_radial(f.grid, chi_profile)]
                       + [_bump(D, j) for j in range(j_lo, D.j_max + 1)])


def besov_norm0(f: Field, q: float, D: DyadicDecomposition) -> float:
    """Zero-order Besov norm ||S0 f||_q + (sum_{j>=1} ||block_j f||_q^q)^(1/q)."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    parts = _low_and_blocks(f, D, max(1, D.j_min))
    low = lp_norm(next(parts), q)
    hi = sum(lp_norm(g, q) ** q for g in parts)
    return low + hi ** (1.0 / q)


def sobolev_norm(f: Field, alpha: float, p: float) -> float:
    """|| (1 - Laplacian)^(alpha/2) f ||_p via the (1 + |xi|^2)^(alpha/2) multiplier."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return lp_norm(_multiply(f, _radial(f.grid, lambda rho: (1.0 + rho**2) ** (alpha / 2.0))), p)


def block_energy_table(f: Field, q: float, D: DyadicDecomposition):
    """Rows (j, ||block_j f||_q) across the active range."""
    return [(j, lp_norm(block(f, j, D), q)) for j in D.j_range]
