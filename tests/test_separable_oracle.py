"""Separable symbols: the scalar time integral against two oracles.

A separable symbol psi(t, xi) = a(t) phi(xi) is integrated as A phi, with
A = int_s^t a summed over Python scalars in Gauss node order and phi
evaluated once.  The first oracle writes that arithmetic out, adaptive
doubling included (its test runs on the scalars at P = max|phi|); the
library must give its bits.  The second is the per-node evaluation kept as
the reference: one ``eval_symbol`` call per Gauss node, summed in node order
on the lattice.  Sum w (c phi) and (sum w c) phi differ by round-off only;
the two must agree within 4 eps relative on the fixed cases, and within the
error bound of two sums of same-sign terms on random ones.  Errors must be
raised as the reference raises them, with the same messages.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclp import (Field, GridSpec, SymbolEvalError, SymbolSpec, TimeIntegralRule, eval_symbol,
                    g_function, generate_corpus, get_symbol, multiplier_values, power_t_symbol)
from speclp import gfunction
from speclp.evolution import _REL_FLOOR, _TOLERANCE, _legendre, integrate_symbol
from speclp.gfunction import _grid_window

EPS = np.finfo(float).eps
GRIDS = {1: GridSpec(1, 256, 16.0), 2: GridSpec(2, 32, 8.0), 3: GridSpec(3, 12, 6.0)}
RULES = {"gauss8": TimeIntegralRule.gauss_legendre(8, adaptive=False),
         "gauss16": TimeIntegralRule.gauss_legendre(16, adaptive=False),
         "adaptive": TimeIntegralRule()}
INTERVALS = ((0.0, 1.0), (0.3, 0.35), (1.0, 3.0))


# --- oracle 1: the scalar arithmetic, written out -----------------------------

def _scalar_gauss(a, s, t, order):
    nodes, weights = _legendre(order)
    mid, half = 0.5 * (s + t), 0.5 * (t - s)
    acc = 0.0
    for z, w in zip(nodes, weights):
        acc = acc + float(w) * a(mid + half * float(z))
    return half * acc


def scalar_integral(psi, s, t, xi, rule):
    """(A phi, final order): A by the rule on time_factor, doubled while
    |dA| P / (|A| P + floor) >= _TOLERANCE with P = max|phi|."""
    phi = np.asarray(psi.spatial(xi))
    phi = phi.astype(np.result_type(phi, np.float64), copy=False)
    order = rule.order
    A = _scalar_gauss(psi.time_factor, s, t, order)
    if rule.adaptive:
        P = float(np.abs(phi).max())
        for _ in range(10):
            order *= 2
            nxt = _scalar_gauss(psi.time_factor, s, t, order)
            done = abs(nxt - A) * P / (abs(nxt) * P + _REL_FLOOR) < _TOLERANCE
            A = nxt
            if done:
                break
        else:
            raise AssertionError("scalar oracle did not converge")
    return A * phi, order


# --- oracle 2: the per-node lattice evaluation --------------------------------

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


def rel_defect(got, want):
    """max |got - want| / |want| in units of eps; 0 where both are 0."""
    diff = np.abs(got - want)
    assert not diff[want == 0].any()
    return float((diff[want != 0] / np.abs(want[want != 0])).max()) / EPS


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
    for s, t in INTERVALS:
        got = integrate_symbol(psi, s, t, xi, RULES[rule])
        want = ref_integral(psi, s, t, xi, RULES[rule])
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == scalar_integral(psi, s, t, xi, RULES[rule])[0].tobytes(), (s, t)
        assert rel_defect(got, want) <= 4.0, (s, t)


def test_complex_separable_integral_matches_per_node_eval():
    psi = separable("skew-t", lambda t: -(1.0 + t), lambda xi: _norm_sq(xi) + 0.5j * xi[0])
    xi = GRIDS[2].xi_stack()
    for rule in RULES.values():
        got, want = integrate_symbol(psi, 0.2, 1.5, xi, rule), ref_integral(psi, 0.2, 1.5, xi, rule)
        assert got.dtype == want.dtype == np.complex128
        assert got.tobytes() == scalar_integral(psi, 0.2, 1.5, xi, rule)[0].tobytes()
        assert rel_defect(got, want) <= 4.0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from([1, 2, 3]), st.floats(0.25, 3.0), st.floats(0.0, 3.0),
       st.floats(1e-3, 3.0), st.integers(1, 16), st.booleans())
def test_scalar_integral_property(d, gamma, s, length, order, adaptive):
    # bytes of the scalar oracle, and the per-node reference within the
    # round-off of two m-term sums of same-sign terms, 2 (m + 2) eps relative
    psi, xi = power_t_symbol(gamma), GRIDS[d].xi_stack()
    rule = TimeIntegralRule.gauss_legendre(order, adaptive)
    got = integrate_symbol(psi, s, s + length, xi, rule)
    want, m = scalar_integral(psi, s, s + length, xi, rule)
    assert got.tobytes() == want.tobytes()
    assert rel_defect(got, ref_integral(psi, s, s + length, xi, rule)) <= 2.0 * (m + 2)


def test_spatial_part_evaluated_once_per_integral():
    calls = []

    def spatial(xi):
        calls.append(xi.shape)
        return _norm_sq(xi)

    psi = separable("counted", lambda t: -(1.0 + t), spatial)
    integrate_symbol(psi, 0.0, 2.0, GRIDS[1].xi_stack(), TimeIntegralRule())  # adaptive
    assert len(calls) == 1


def spied(psi):
    """psi with its parts recorded: eval_fn calls (shape of xi), spatial calls
    (shape of xi) and the type of every time handed to time_factor."""
    log = {"eval_fn": [], "spatial": [], "time_factor": set()}

    def eval_fn(t, xi):
        log["eval_fn"].append(np.shape(xi))
        return psi.eval_fn(t, xi)

    def spatial(xi):
        log["spatial"].append(np.shape(xi))
        return psi.spatial(xi)

    def time_factor(t):
        log["time_factor"].add(type(t))
        return psi.time_factor(t)

    return dataclasses.replace(psi, eval_fn=eval_fn, spatial=spatial,
                               time_factor=time_factor), log


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_separable_symbol_never_evaluated_on_a_lattice(complex_input):
    grid = GridSpec(2, 32, 8.0)
    xi = grid.xi_stack()
    heat = get_symbol("heat")
    psi, log = spied(power_t_symbol(2.0))
    integrate_symbol(psi, 0.1, 0.9, xi, TimeIntegralRule())
    integrate_symbol(psi, 0.1, 0.9, xi, TimeIntegralRule.gauss_legendre(8, adaptive=False))
    multiplier_values(psi, 0.1, 0.9, grid)
    f = generate_corpus(70, grid, "BANDLIMITED_RANDOM", 1, mean_removed=True)[0].field
    if complex_input:
        f = Field(grid, f.values * (1.0 + 0.5j))
    w = _grid_window(grid, heat, psi, a=1.0, q=2.0)
    chunks = list(gfunction._node_fields(heat, 0.0, psi, w, grid, f))
    assert sum(wk.size for wk, _ in chunks) == w.nodes.size
    assert log["eval_fn"] == []
    assert log["spatial"] == [xi.shape] * 4  # once per integral, once per node engine call
    assert log["time_factor"] == {float}


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_g_function_evaluates_the_spatial_part_once(complex_input):
    # criterion 10's a = 1 window (96 nodes): one evaluation on the whole
    # lattice serves the Hermitian test, the real path's half lattice and all
    # 96 node exponents
    grid = GridSpec(1, 1024, 32.0)
    heat, psi = get_symbol("heat"), power_t_symbol(2.0)
    counted, log = spied(psi)
    w = _grid_window(grid, heat, psi, a=1.0, q=2.0)
    f = generate_corpus(110, grid, "GAUSSIAN_MIX", 1, mean_removed=True)[0].field
    if complex_input:
        f = Field(grid, f.values * (1.0 + 0.5j))
    assert w.nodes.size == 96
    G = g_function(f, heat, 0.0, counted, w, 2.0)
    assert log["spatial"] == [(1, 1024)] and log["eval_fn"] == []
    assert G.values.tobytes() == g_function(f, heat, 0.0, psi, w, 2.0).values.tobytes()


def test_node_exponents_are_scalar_integrals_times_phi():
    # the node engine's exponent at node i is A_i phi, A_i the running sum of
    # 16-node scalar integrals over the node intervals, in node order
    grid = GridSpec(1, 64, 8.0)
    heat, psi = get_symbol("heat"), power_t_symbol(1.5)
    w = _grid_window(grid, heat, psi, a=1.0, q=2.0)
    rs = np.concatenate([[w.s], w.nodes])
    A = np.cumsum([_scalar_gauss(psi.time_factor, a, b, gfunction._NODE_ORDER)
                   for a, b in zip(rs[:-1], rs[1:])])
    phi = psi.spatial(grid.xi_stack())
    kernels = np.concatenate([K.copy()  # each stack is valid until the next chunk
                              for _, K in gfunction._node_fields(heat, 0.0, psi, w, grid)])
    pre = heat(0.0, grid.xi_stack())
    want = np.fft.ifft(pre * np.exp(np.multiply.outer(A, phi)), axis=-1)
    assert kernels.dtype == np.float64
    assert np.abs(kernels - want.real).max() <= 1e-14 * np.abs(want).max()


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


def test_node_engine_checks_each_node():
    # the same overflow raised from inside the node engine's interval sums
    grid = GridSpec(1, 32, 2.0)
    psi = separable("late", lambda t: -1e306 * t**4, _norm_sq)
    heat = get_symbol("heat")
    w = _grid_window(grid, heat, psi, a=1.0, q=2.0)
    with np.errstate(over="ignore"), pytest.raises(SymbolEvalError, match="non-finite at t="):
        list(gfunction._node_fields(heat, 0.0, psi, w, grid))


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


def test_power_t_integral_is_exact():
    # a(t) = -(1 + t) is linear: every Gauss rule integrates it exactly
    psi, xi = power_t_symbol(2.0), GRIDS[1].xi_stack()
    s, t = 0.25, 1.75
    want = -((t - s) + 0.5 * (t * t - s * s)) * _norm_sq(xi)
    for rule in RULES.values():
        got = integrate_symbol(psi, s, t, xi, rule)
        assert np.abs(got - want).max() <= 4.0 * EPS * np.abs(want).max()
    assert _scalar_gauss(psi.time_factor, s, t, 1) == -3.0
