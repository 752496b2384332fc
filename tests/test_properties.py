"""Identities that must hold on every grid, checked over dimension, grid size
and seed with hypothesis.

Examples are derandomized and few, and no example database is kept, so the
suite runs the same examples on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speclp import (Field, GridSpec, build_decomposition, forward_transform, get_symbol,
                    verify_composition)
from speclp.acceptance import _scaling_identity_error
from speclp.lp_decomp import _partition_defect

FEW = settings(derandomize=True, database=None, deadline=None, max_examples=10)

dims = st.integers(1, 3)
sizes = st.sampled_from([8, 16, 32])
extents = st.sampled_from([4.0, 16.0, 64.0])
seeds = st.integers(0, 2**32 - 1)


@FEW
@given(dims, sizes, extents, seeds)
def test_plancherel(d, n, L, seed):
    grid = GridSpec(d, n, L)
    rng = np.random.default_rng(seed)
    f = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    F = forward_transform(f)
    physical = (np.abs(f.values) ** 2).sum() * grid.cell_measure
    spectral = (np.abs(F.coeffs) ** 2).sum() * grid.freq_measure
    assert abs(physical - spectral) <= 1e-12 * physical


@FEW
@given(dims, sizes, extents, st.sampled_from(["heat", "poisson", "power:1.5", "frac-lap:0.5"]),
       st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_composition_law_time_constant(d, n, L, name, r, t):
    # M(s + r + t, s) = M(s + r + t, s + r) M(s + r, s) with s = 0.25
    s = 0.25
    assert verify_composition(get_symbol(name), s, s + r, s + r + t, GridSpec(d, n, L)) <= 1e-12


@FEW
@given(dims, sizes, extents)
def test_partition_of_unity(d, n, L):
    assert _partition_defect(build_decomposition(GridSpec(d, n, L))) <= 1e-14


@FEW
@given(dims, sizes, extents, seeds, st.sampled_from(["heat", "poisson"]), st.floats(1.5, 4.0))
def test_dilation_identity(d, n, L, seed, name, b):
    # criterion 9's identity, which holds sample for sample on any field
    grid = GridSpec(d, n, L)
    f = Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    sym = get_symbol(name)
    assert _scaling_identity_error(f, sym, sym, b, s=0.3, t=0.7) <= 1e-6
