"""Separable symbols against the per-node evaluation kept as the reference.

The reference integrates a time-dependent symbol as ``integrate_symbol`` did
before symbols declared a separable form: one ``eval_symbol`` call per Gauss
node, summed in node order, with the order doubled while the adaptive rule
asks.  The separable path evaluates the spatial part once per integral; it
must give the same bits and raise the same errors with the same messages.
"""

import dataclasses

import numpy as np
import pytest

from speclp import (Field, GridSpec, SymbolEvalError, SymbolSpec, TimeIntegralRule, eval_symbol,
                    g_function, generate_corpus, get_symbol, power_t_symbol)
from speclp.evolution import _TOLERANCE, _legendre, integrate_symbol
from speclp.gfunction import _grid_window

GRIDS = {1: GridSpec(1, 256, 16.0), 2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 12, 6.0)}
RULES = {"gauss8": TimeIntegralRule.gauss_legendre(8, adaptive=False),
         "gauss16": TimeIntegralRule.gauss_legendre(16, adaptive=False),
         "adaptive": TimeIntegralRule()}


def _ref_gauss(psi, s, t, xi, order):
    nodes, weights = _legendre(order)
    mid, half = 0.5 * (s + t), 0.5 * (t - s)
    acc = 0.0
    for z, w in zip(nodes, weights):
        acc = acc + w * eval_symbol(psi, mid + half * z, xi)
    return half * acc


def ref_integral(psi, s, t, xi, rule):
    est = _ref_gauss(psi, s, t, xi, rule.order)
    if not rule.adaptive:
        return est
    order = rule.order
    for _ in range(10):
        order *= 2
        nxt = _ref_gauss(psi, s, t, xi, order)
        if (np.abs(nxt - est) / (np.abs(nxt) + 1e-280)).max() < _TOLERANCE:
            return nxt
        est = nxt
    raise AssertionError("reference did not converge")


def separable(name, time_factor, spatial):
    return SymbolSpec(name=name, eval_fn=lambda t, xi: time_factor(t) * spatial(xi),
                      kappa=1.0, mu=10.0, gamma=2.0, n_cert=2,
                      time_factor=time_factor, spatial=spatial)


def _norm_sq(xi):
    return (xi**2).sum(axis=0)


def _inv_norm_sq(xi):  # inf at xi = 0
    r2 = _norm_sq(xi)
    return np.divide(1.0, r2, out=np.full_like(r2, np.inf), where=r2 > 0.0)


@pytest.mark.parametrize("rule", list(RULES), ids=list(RULES))
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_t_integral_matches_per_node_eval(d, gamma, rule):
    psi = power_t_symbol(gamma)
    assert psi.time_factor is not None and psi.spatial is not None
    xi = GRIDS[d].xi_stack()
    for s, t in ((0.0, 1.0), (0.3, 0.35), (1.0, 3.0)):
        got = integrate_symbol(psi, s, t, xi, RULES[rule])
        want = ref_integral(psi, s, t, xi, RULES[rule])
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), (s, t)


def test_complex_separable_integral_matches_per_node_eval():
    psi = separable("skew-t", lambda t: -(1.0 + t), lambda xi: _norm_sq(xi) + 0.5j * xi[0])
    xi = GRIDS[2].xi_stack()
    for rule in RULES.values():
        got, want = integrate_symbol(psi, 0.2, 1.5, xi, rule), ref_integral(psi, 0.2, 1.5, xi, rule)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == want.tobytes()


def test_spatial_part_evaluated_once_per_integral():
    calls = []

    def spatial(xi):
        calls.append(xi.shape)
        return _norm_sq(xi)

    psi = separable("counted", lambda t: -(1.0 + t), spatial)
    integrate_symbol(psi, 0.0, 2.0, GRIDS[1].xi_stack(), TimeIntegralRule())  # adaptive
    assert len(calls) == 1


def _raised(fn):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises((SymbolEvalError, ValueError)) as exc:
        fn()
    return exc.type, str(exc.value)


@pytest.mark.parametrize("case", ["non-finite spatial", "overflow", "overflow at late nodes",
                                  "zero times inf", "negative time"])
def test_errors_match_per_node_eval(case):
    xi = GRIDS[2].xi_stack()
    s, t = 0.0, 1.0
    if case == "non-finite spatial":
        psi = separable(case, lambda t: -(1.0 + t), _inv_norm_sq)
    elif case == "overflow":  # several modes overflow; the first in order is named
        psi = separable(case, lambda t: -1e307 * (1.0 + t), _norm_sq)
    elif case == "overflow at late nodes":
        psi = separable(case, lambda t: -1e307 * t**4, _norm_sq)
    elif case == "zero times inf":
        psi = separable(case, lambda t: 0.0 * t, _inv_norm_sq)
    else:
        psi, s = power_t_symbol(2.0), -0.5
    for rule in RULES.values():
        kind, message = _raised(lambda: integrate_symbol(psi, s, t, xi, rule))
        assert (kind, message) == _raised(lambda: ref_integral(psi, s, t, xi, rule))
        assert "t=" in message if kind is SymbolEvalError else "nonnegative" in message


def test_separable_overflow_is_checked_at_each_node():
    # 1e306 t^4 |xi|^2 overflows from t = 0.73 on at the Nyquist mode (|xi|^2 = 625):
    # the sixth of the eight Gauss nodes on [0, 1], t = 0.7628
    psi = separable("late", lambda t: -1e306 * t**4, _norm_sq)
    xi = GRIDS[1].xi_stack()
    with np.errstate(over="ignore"), pytest.raises(SymbolEvalError, match="non-finite at t=0.76"):
        integrate_symbol(psi, 0.0, 1.0, xi, RULES["gauss8"])
    assert np.isfinite(integrate_symbol(psi, 0.0, 0.5, xi, RULES["gauss8"])).all()


@pytest.mark.parametrize("given", ["time_factor", "spatial"])
def test_spec_needs_both_parts(given):
    parts = {"time_factor": lambda t: -(1.0 + t), "spatial": _norm_sq}
    with pytest.raises(ValueError, match="both time_factor and spatial"):
        SymbolSpec(name="half", eval_fn=lambda t, xi: -(1.0 + t) * _norm_sq(xi), kappa=1.0,
                   mu=10.0, gamma=2.0, n_cert=2, **{given: parts[given]})


def test_power_t_eval_is_its_parts():
    psi = get_symbol("power-t:1.5")
    xi = GRIDS[3].xi_stack()
    for t in (0.0, 0.25, 3.0):
        assert eval_symbol(psi, t, xi).tobytes() == (psi.time_factor(t) * psi.spatial(xi)).tobytes()


def test_g_function_evaluates_the_spatial_part_at_most_twice():
    # criterion 10's a = 1 window (96 nodes): one evaluation on the whole
    # lattice for the Hermitian test, then for real input one on the half
    # lattice for every node; complex input reuses the whole-lattice one
    grid = GridSpec(1, 1024, 32.0)
    heat, psi = get_symbol("heat"), power_t_symbol(2.0)
    calls = []

    def spatial(xi):
        calls.append(xi.shape)
        return psi.spatial(xi)

    counted = dataclasses.replace(psi, spatial=spatial)
    w = _grid_window(grid, heat, psi, a=1.0, q=2.0)
    f = generate_corpus(110, grid, "GAUSSIAN_MIX", 1, mean_removed=True)[0].field
    assert w.nodes.size == 96
    for field, shapes in ((f, [(1, 1024), (1, 513)]),
                          (Field(grid, f.values * (1.0 + 0.5j)), [(1, 1024)])):
        calls.clear()
        G = g_function(field, heat, 0.0, counted, w, 2.0)
        assert calls == shapes
        assert G.values.tobytes() == g_function(field, heat, 0.0, psi, w, 2.0).values.tobytes()
