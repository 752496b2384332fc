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
:func:`speclp.spectral._multiplied`).  The norms transform their field once
for all their multipliers (:func:`_multiplied_norms`).  For a real field at
exponent 2 each norm is a sum of the weighted half-spectrum power |F f|^2
against m^2, by the discrete Plancherel identity, with no inverse transform
(:func:`speclp.spectral._energies`); every other case sums the samples of
each synthesized block.  Each cutoff chi(2^-j |xi|) is evaluated once for the
two blocks that share it (:func:`_dyadic`, which
:func:`speclp.kernel_audit.dyadic_l1_envelope` uses too).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, GridSpec, _energies, _lattice, _multiplied, _multiply, lp_norm

__all__ = [
    "DyadicDecomposition",
    "build_decomposition",
    "chi_profile",
    "bump_profile",
    "block",
    "low_part",
    "besov_norm0",
    "sobolev_norm",
    "block_energy_table",
]


def chi_profile(rho) -> np.ndarray:
    """Smooth radial cutoff: 1 on [0,1], 0 on [2,inf), exponential ratio between.

    Both exponentials are evaluated on the transition band 1 < rho < 2 only,
    where both arguments of g are positive.
    """
    rho = np.asarray(rho, dtype=float)
    return _chi(rho, np.empty(rho.shape))


def _chi(rho: np.ndarray, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """chi_profile(scale * rho) written into out, and out returned.  scale is
    a power of two, so scale * rho is exact and compares with 1 and 2 as rho
    compares with 1 / scale and 2 / scale: only the band is scaled."""
    lo, hi = 1.0 / scale, 2.0 / scale
    mid = (rho > lo) & (rho < hi)
    band = rho[mid] * scale
    a = np.exp(-1.0 / (2.0 - band))
    b = np.exp(-1.0 / (band - 1.0))
    np.copyto(out, rho <= lo)
    out[mid] = a / (a + b)
    return out


def bump_profile(rho) -> np.ndarray:
    """Phi as a function of radius: chi(rho) - chi(2 rho).

    Both cutoffs are evaluated on the support 1/2 <= rho <= 2 only; the
    difference is exactly 0.0 elsewhere.
    """
    rho = np.asarray(rho, dtype=float)
    support = (rho >= 0.5) & (rho <= 2.0)
    out = np.zeros(rho.shape)
    out[support] = chi_profile(rho[support]) - chi_profile(2.0 * rho[support])
    return out


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
    for bump in _dyadic(xi, D.j_range):
        total += bump
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


def _dyadic(rho: np.ndarray, js, low: bool = False):
    """chi(rho) if ``low``, then Phi(2^-j rho) for each j of the increasing
    ``js``, as arrays of rho's shape, with the bits of :func:`chi_profile` and
    :func:`bump_profile`.

    Block j's bump chi(2^-j rho) - chi(2 (2^-j rho)) takes its second cutoff
    at 2^(1-j) rho exactly (doubling is exact), which is block j - 1's first:
    each cutoff is evaluated once per scale.  Two cutoff buffers are held for
    the call, the bump overwriting the cutoff it no longer needs: a yielded
    bump is the caller's, to read or overwrite, until it draws the next, and
    chi(rho), block 1's second cutoff, is only to be read.
    """
    cut, spare = np.empty(rho.shape), np.empty(rho.shape)
    at = None  # the scale j whose cutoff chi(2^-j rho) `cut` holds
    if low:
        yield _chi(rho, cut)
        at = 0
    for j in js:
        if at != j - 1:
            _chi(rho, cut, 2.0 ** (1 - j))
        _chi(rho, spare, 2.0 ** (-j))
        yield np.subtract(spare, cut, out=cut)
        cut, spare, at = spare, cut, j


def _cutoffs(f: Field, D: DyadicDecomposition, js, low: bool = False):
    """:func:`_dyadic`'s multipliers on D's lattice as a ``mults(half)`` of
    :func:`speclp.spectral._multiplied`, for a field f on D's grid."""
    if f.grid != D.grid:
        raise ValueError("field and decomposition grids do not match")
    return lambda half: _dyadic(D.grid.xi_norm()[_lattice(D.grid, half)], js, low)


def _low_and_blocks(f: Field, D: DyadicDecomposition, j_lo: int):
    """low_part(f, D), then block(f, j, D) for j = j_lo..j_max, from one
    transform of f and one evaluation of each cutoff (an iterator of Fields)."""
    return _multiplied(f, _cutoffs(f, D, range(j_lo, D.j_max + 1), True))


def _multiplied_norms(f: Field, q: float, mults):
    """||Finv(m F(f))||_q for each m of ``mults(half)``, from one transform of
    f: by Parseval for a real f at q = 2 (:func:`speclp.spectral._energies`),
    else as :func:`lp_norm` of each block's samples."""
    if q == 2 and np.isrealobj(f.values):
        return (e ** 0.5 for e in _energies(f, mults))
    return (lp_norm(g, q) for g in _multiplied(f, mults))


def besov_norm0(f: Field, q: float, D: DyadicDecomposition) -> float:
    """Zero-order Besov norm ||S0 f||_q + (sum_{j>=1} ||block_j f||_q^q)^(1/q)."""
    if not q >= 1:
        raise ValueError(f"q must be >= 1, got {q}")
    js = range(max(1, D.j_min), D.j_max + 1)
    norms = _multiplied_norms(f, q, _cutoffs(f, D, js, True))
    low = next(norms)
    hi = sum(g ** q for g in norms)
    return low + hi ** (1.0 / q)


def sobolev_norm(f: Field, alpha: float, p: float) -> float:
    """|| (1 - Laplacian)^(alpha/2) f ||_p via the (1 + |xi|^2)^(alpha/2) multiplier."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    mult = _radial(f.grid, lambda rho: (1.0 + rho**2) ** (alpha / 2.0))
    return next(_multiplied_norms(f, p, lambda half: (mult(half),)))


def block_energy_table(f: Field, q: float, D: DyadicDecomposition):
    """Rows (j, ||block_j f||_q) across the active range."""
    return list(zip(D.j_range, _multiplied_norms(f, q, _cutoffs(f, D, D.j_range))))
