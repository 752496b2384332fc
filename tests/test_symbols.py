import dataclasses

import numpy as np
import pytest

from speclp import (SymbolSpec, audit_s1, audit_s2, check_homogeneity, eval_symbol,
                    get_symbol)
from speclp.errors import SymbolEvalError


def vec(*xs):
    return np.array(xs, dtype=float)


def test_registry_names():
    assert get_symbol("heat").gamma == 2.0
    assert get_symbol("poisson").gamma == 1.0
    assert get_symbol("power:1.5").gamma == 1.5
    assert get_symbol("frac-lap:0.5").gamma == 0.5
    assert not get_symbol("power-t:2").time_constant
    with pytest.raises(ValueError):
        get_symbol("unknown")
    with pytest.raises(ValueError):
        get_symbol("power:abc")


def test_eval_examples():
    heat = get_symbol("heat")
    assert eval_symbol(heat, 0.0, vec(1.0, 0.0)) == pytest.approx(-1.0)
    poisson = get_symbol("poisson")
    assert eval_symbol(poisson, 3.0, vec(0.0, 2.0)) == pytest.approx(-2.0)
    pt = get_symbol("power-t:1.5")  # -(1 + t)|xi|^1.5
    assert eval_symbol(pt, 1.0, vec(1.0)) == pytest.approx(-2.0)


def test_eval_at_origin_and_purity():
    heat = get_symbol("heat")
    assert eval_symbol(heat, 0.0, vec(0.0)) == 0.0
    a = eval_symbol(heat, 0.3, vec(0.7, -0.2))
    b = eval_symbol(heat, 0.3, vec(0.7, -0.2))
    assert a == b  # bit-identical


def test_time_constant_families_ignore_t():
    for name in ("heat", "poisson", "power:1.5"):
        sym = get_symbol(name)
        assert sym.time_constant
        assert eval_symbol(sym, 0.0, vec(1.3)) == eval_symbol(sym, 5.0, vec(1.3))


@pytest.mark.parametrize("name", ["heat", "poisson", "power:1.5", "power-t:2", "frac-lap:0.5"])
def test_builtin_symbols_evaluate_to_float64(name):
    sym = get_symbol(name)
    assert sym(0.5, np.ones((2, 3, 4))).dtype == np.float64
    point = eval_symbol(sym, 0.5, vec(1.0, 2.0))  # a point is a stack with no sample axes
    assert point.shape == () and point.dtype == np.float64


def test_symbol_values_keep_their_kind():
    lat = np.ones((1, 5))
    drift = SymbolSpec(name="drift", eval_fn=lambda t, xi: -(xi**2).sum(axis=0) + 1j * xi[0],
                       kappa=1.0, mu=10.0, gamma=2.0, n_cert=2, time_constant=True)
    assert drift(0.0, lat).dtype == np.complex128
    assert eval_symbol(drift, 0.0, vec(2.0)) == -4.0 + 2.0j
    # narrower or integer values widen to float64, never to complex
    single = dataclasses.replace(drift, eval_fn=lambda t, xi: -np.float32(1.0) * xi[0] ** 2)
    assert single(0.0, lat).dtype == np.float64
    ints = dataclasses.replace(drift, eval_fn=lambda t, xi: np.zeros(xi.shape[1:], dtype=int))
    assert ints(0.0, lat).dtype == np.float64


def test_eval_rejects_negative_time_and_nonfinite():
    heat = get_symbol("heat")
    with pytest.raises(ValueError):
        eval_symbol(heat, -1.0, vec(1.0))
    bad = dataclasses.replace(heat, eval_fn=lambda t, xi: np.full(xi.shape[1:], np.nan))
    with pytest.raises(SymbolEvalError, match="xi="):
        eval_symbol(bad, 0.0, vec(1.0))


def test_audit_s1_equality_case():
    rep = audit_s1(get_symbol("heat"), [0.0, 1.0], [vec(0.5), vec(1.0), vec(3.0)])
    assert rep.passed
    assert abs(rep.worst_violation) < 1e-12


def test_audit_s1_sign_flip_fails():
    flipped = dataclasses.replace(get_symbol("heat"), name="anti-heat",
                                  eval_fn=lambda t, xi: (xi**2).sum(axis=0))
    rep = audit_s1(flipped, [0.0], [vec(1.0)])
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(2.0)


def test_audit_s1_time_dependent_passes():
    rep = audit_s1(get_symbol("power-t:2"), [0.0, 0.5, 2.0], [vec(0.3), vec(2.0)])
    assert rep.passed
    assert rep.worst_violation <= 0.0


def test_audit_s1_empty_samples():
    with pytest.raises(ValueError):
        audit_s1(get_symbol("heat"), [], [vec(1.0)])
    with pytest.raises(ValueError):
        audit_s1(get_symbol("heat"), [0.0], [])


def test_audit_s2_power_first_derivative():
    # d/dxi of -|xi|^1.5 has magnitude 1.5 |xi|^0.5: passes with mu = gamma
    spec = dataclasses.replace(get_symbol("power:1.5"), mu=1.5)
    rep = audit_s2(spec, 1, [0.0], [vec(0.5), vec(1.0), vec(4.0)])
    assert rep.passed


def test_audit_s2_heat_second_derivative_d2():
    spec = dataclasses.replace(get_symbol("heat"), mu=2.0)
    rep = audit_s2(spec, 2, [0.0], [vec(1.0, 0.7), vec(2.0, -1.0)])
    assert rep.passed


def test_audit_s2_understated_mu_fails():
    spec = dataclasses.replace(get_symbol("poisson"), mu=0.5)
    rep = audit_s2(spec, 0, [0.0], [vec(1.0)])
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.5, abs=1e-9)


def test_audit_s2_preconditions():
    heat = get_symbol("heat")
    with pytest.raises(ValueError):
        audit_s2(heat, heat.n_cert + 1, [0.0], [vec(1.0)])
    with pytest.raises(ValueError, match="max_order -1 outside"):
        audit_s2(heat, -1, [0.0], [vec(1.0)])
    with pytest.raises(ValueError):
        audit_s2(heat, 1, [0.0], [vec(1.0, 0.0)])  # on a coordinate hyperplane


def test_homogeneity_exact_families():
    rep = check_homogeneity(get_symbol("poisson"), [2.0], [vec(1.0, 0.0)])
    assert rep.passed and rep.worst_violation < 1e-12
    rep = check_homogeneity(get_symbol("heat"), [3.0], [vec(0.4), vec(2.0)])
    assert rep.passed


def test_homogeneity_mixed_order_fails():
    def mixed(t, xi):
        r = np.sqrt((xi**2).sum(axis=0))
        return -r - r**2

    spec = SymbolSpec("mixed", mixed, kappa=1.0, mu=6.0, gamma=2.0, n_cert=4,
                      time_constant=True, homogeneous=False)
    rep = check_homogeneity(spec, [2.0], [vec(1.0)])
    assert not rep.passed
    # |psi(2) - 2^2 psi(1)| / |2^2 psi(1)| = |-6 + 8| / 8
    assert rep.worst_violation == pytest.approx(0.25, abs=1e-12)


def test_homogeneity_requires_time_constant():
    with pytest.raises(ValueError):
        check_homogeneity(get_symbol("power-t:2"), [2.0], [vec(1.0)])


@pytest.mark.parametrize("name", ["heat", "poisson", "power:1.5", "power-t:2", "frac-lap:0.5"])
@pytest.mark.parametrize("d", [1, 2])
def test_builtin_certificates_hold(name, d):
    sym = get_symbol(name)
    rng = np.random.default_rng(5)
    xis = []
    for mag in (0.3, 1.0, 3.7, 11.0):
        v = rng.uniform(0.3, 1.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        xis.append(mag * v / np.linalg.norm(v))
    ts = [0.0, 1.0, 3.5]
    assert audit_s1(sym, ts, xis).passed
    assert audit_s2(sym, 2, ts, xis).passed
    if sym.time_constant:
        hom = check_homogeneity(sym, [0.5, 2.0, 5.0], xis)
        assert hom.passed == sym.homogeneous
