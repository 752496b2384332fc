"""The stacked symbol audits against per-point loops kept as the reference.

The reference evaluates one sample at a time, as a (d, 1) stack reduced to a
Python scalar, and keeps the first largest defect in loop order (time or
multi-index, then sample).  The stacked audits must report the same worst
defect bit for bit, at the same point, with the same count and verdict.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from speclp import SymbolSpec, audit_s1, audit_s2, check_homogeneity, eval_symbol, get_symbol
from speclp.symbols import (HOMOGENEITY_DEFAULT_TOL, S1_DEFAULT_TOL, S2_DEFAULT_STEP,
                            S2_DEFAULT_TOL)


def _at(spec, t, x):
    return eval_symbol(spec, t, x[:, None]).item()


def _ref_s1(spec, ts, xis):
    worst, point, count = -np.inf, None, 0
    for t in ts:
        for x in xis:
            defect = float(_at(spec, t, x).real + spec.kappa * np.linalg.norm(x) ** spec.gamma)
            count += 1
            if defect > worst:
                worst, point = defect, (float(t), tuple(x), None)
    return worst, point, count, worst <= S1_DEFAULT_TOL


def _ref_partial(spec, t, xi, alpha, h):
    for i, a in enumerate(alpha):
        if a > 0:
            step = np.zeros_like(xi)
            step[i] = h[i]
            lower = tuple(a - 1 if j == i else b for j, b in enumerate(alpha))
            return (_ref_partial(spec, t, xi + step, lower, h)
                    - _ref_partial(spec, t, xi - step, lower, h)) / (2.0 * h[i])
    return _at(spec, t, xi)


def _ref_s2(spec, max_order, ts, xis):
    d = xis[0].size
    worst, point, count, passed = -np.inf, None, 0, True
    for order in range(max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=d):
            if sum(alpha) != order:
                continue
            for t in ts:
                for x in xis:
                    r = np.linalg.norm(x)
                    h = np.full(d, S2_DEFAULT_STEP * max(r, 1.0))
                    est = abs(_ref_partial(spec, t, x, alpha, h))
                    bound = spec.mu * r ** (spec.gamma - order)
                    defect = est - bound
                    count += 1
                    if defect > S2_DEFAULT_TOL * max(bound, 1e-300):
                        passed = False
                    if defect > worst:
                        worst, point = defect, (float(t), tuple(x), alpha)
    return worst, point, count, passed


def _ref_homogeneity(spec, lambdas, xis):
    worst, point, count = -np.inf, None, 0
    for lam in lambdas:
        for x in xis:
            ref = lam**spec.gamma * _at(spec, 0.0, x)
            defect = abs(_at(spec, 0.0, lam * x) - ref) / (abs(ref) + 1e-30)
            count += 1
            if defect > worst:
                worst, point = defect, (float(lam), tuple(x), None)
    return worst, point, count, worst <= HOMOGENEITY_DEFAULT_TOL


DRIFT = SymbolSpec("drift", lambda t, xi: -(xi**2).sum(axis=0) + 1j * xi[0],
                   kappa=1.0, mu=10.0, gamma=2.0, n_cert=2, time_constant=True)
SYMBOLS = [get_symbol(name) for name in ("heat", "poisson", "power:1.5", "power-t:2",
                                         "frac-lap:0.5")]
SYMBOLS += [DRIFT, dataclasses.replace(get_symbol("poisson"), name="weak-poisson", mu=0.5)]


def _samples(d, seed):
    rng = np.random.default_rng(seed)
    out = []
    for mag in np.geomspace(0.05, 40.0, 12):
        v = rng.standard_normal(d)
        v = np.where(np.abs(v) < 0.1, 0.1, v)  # off the coordinate hyperplanes
        out.append(mag * v / np.linalg.norm(v))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_audits_match_per_point_loops(d, seed):
    xis = _samples(d, seed)
    ts = [0.0, 0.5, 1.0, 2.0]
    lambdas = [0.5, 2.0, 3.0]
    for sym in SYMBOLS:
        pairs = [(_ref_s1(sym, ts, xis), audit_s1(sym, ts, xis)),
                 (_ref_s2(sym, 2, ts, xis), audit_s2(sym, 2, ts, xis))]
        if sym.time_constant:
            pairs.append((_ref_homogeneity(sym, lambdas, xis),
                          check_homogeneity(sym, lambdas, xis)))
        for (worst, point, count, passed), rep in pairs:
            where = (sym.name, rep.condition)
            assert type(rep.worst_violation) is float, where
            assert rep.worst_violation == worst, where
            assert rep.worst_point == point, where
            assert rep.sample_count == count, where
            assert rep.passed is passed, where


def test_ties_resolve_to_the_first_in_loop_order():
    # S1 defect 1 at (t = 0, xi = 2) and at (t = 1, xi = 1): the loops meet t = 0 first
    bump = SymbolSpec("bump", lambda t, xi: -(xi**2).sum(axis=0) + (np.abs(xi[0]) == 2.0 - t),
                      kappa=1.0, mu=10.0, gamma=2.0, n_cert=2)
    xis = [np.array([1.0]), np.array([2.0])]
    rep = audit_s1(bump, [0.0, 1.0], xis)
    assert rep.worst_violation == 1.0
    assert rep.worst_point == _ref_s1(bump, [0.0, 1.0], xis)[1] == (0.0, (2.0,), None)
