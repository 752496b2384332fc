import time

import numpy as np
import pytest

from speclp import (Field, GridSpec, SymbolSpec, TimeIntegralRule, apply_evolution,
                    build_multiplier, get_symbol, kernel_field, multiplier_values,
                    verify_composition)
from speclp.acceptance import _scaling_identity_error
from speclp.corpus import generate_corpus
from speclp.errors import MultiplierError, QuadratureError
from speclp.evolution import _legendre, integrate_symbol

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")


@pytest.fixture
def unit_freq_grid():
    # half extent 8 pi puts xi = k/8 on the lattice: |xi| = 1 at k = 8
    return GridSpec(1, 256, 8.0 * np.pi)


def test_multiplier_time_constant_value(unit_freq_grid):
    mult = build_multiplier(HEAT, 0.0, 1.0, unit_freq_grid)
    assert mult.values[8] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_multiplier_time_dependent_value(unit_freq_grid):
    pt = get_symbol("power-t:2")  # -(1 + r)|xi|^2, integral over [0,1] is 3/2
    mult = build_multiplier(pt, 0.0, 1.0, unit_freq_grid)
    assert mult.values[8] == pytest.approx(np.exp(-1.5), rel=1e-10)


def test_multiplier_nonfinite_named():
    # exp(t |xi|^2) of an anti-heat symbol overflows at the lattice's top frequencies
    anti = SymbolSpec("anti-heat", lambda t, xi: (xi**2).sum(axis=0), kappa=1.0, mu=4.0,
                      gamma=2.0, n_cert=2, time_constant=True)
    with np.errstate(over="ignore"), pytest.raises(MultiplierError, match="xi="):
        multiplier_values(anti, 0.0, 2.0, GridSpec(1, 256, 16.0))


def test_multiplier_with_pre_symbol(unit_freq_grid):
    mult = build_multiplier(HEAT, 0.0, 1.0, unit_freq_grid, pre=(POISSON, 5.0))
    # |xi| = 2 at k = 16: value (-2) e^(-4)
    assert mult.values[16] == pytest.approx(-2.0 * np.exp(-4.0), rel=1e-12)


def test_multiplier_rejects_bad_interval(unit_freq_grid):
    with pytest.raises(ValueError):
        build_multiplier(HEAT, 1.0, 1.0, unit_freq_grid)
    with pytest.raises(ValueError):
        build_multiplier(HEAT, 1.0, 0.5, unit_freq_grid)
    with pytest.raises(ValueError):
        build_multiplier(HEAT, -0.5, 1.0, unit_freq_grid)


def test_heat_evolution_of_gaussian():
    g = GridSpec(1, 1024, 32.0)
    x = g.x_axis()
    f = Field(g, np.exp(-(x**2) / 2))
    out = apply_evolution(f, build_multiplier(HEAT, 0.0, 1.0, g))
    exact = 3.0**-0.5 * np.exp(-(x**2) / 6.0)
    assert np.abs(out.values - exact).max() <= 1e-6
    assert np.abs(out.values.imag).max() == 0.0  # real in, real out


def test_poisson_evolution_of_cauchy():
    g = GridSpec(1, 65536, 1024.0)
    x = g.x_axis()
    cauchy = lambda a: a / (np.pi * (a**2 + x**2))
    out = apply_evolution(Field(g, cauchy(1.0)), build_multiplier(POISSON, 0.0, 1.0, g))
    assert np.abs(out.values - cauchy(2.0)).max() <= 1e-6


def test_identity_limit():
    g = GridSpec(1, 512, 16.0)
    x = g.x_axis()
    f = Field(g, np.exp(-(x**2) / 2))
    out = apply_evolution(f, build_multiplier(HEAT, 0.0, 1e-8, g))
    assert np.abs(out.values - f.values).max() <= 1e-5 * np.abs(f.values).max()


def test_grid_mismatch_rejected():
    g1, g2 = GridSpec(1, 512, 16.0), GridSpec(1, 512, 17.0)
    f = Field(g1, np.zeros(512))
    with pytest.raises(ValueError):
        apply_evolution(f, build_multiplier(HEAT, 0.0, 1.0, g2))


def test_heat_kernel_closed_form():
    g = GridSpec(1, 1024, 32.0)
    x = g.x_axis()
    K = kernel_field(None, HEAT, 0.0, 1.0, g)
    exact = (4.0 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0)
    assert np.abs(K.values - exact).max() <= 1e-8


def test_kernel_zero_mode_identity():
    g = GridSpec(1, 1024, 32.0)
    plain = kernel_field(None, HEAT, 0.0, 1.0, g)
    assert plain.values.sum().real * g.spacing == pytest.approx(1.0, abs=1e-12)
    pre = kernel_field((POISSON, 0.0), HEAT, 0.0, 1.0, g)
    assert abs(pre.values.sum() * g.spacing) <= 1e-12


def test_composition_time_constant_roundoff():
    g = GridSpec(1, 256, 64.0)  # modest frequencies keep exponents small
    for sym in (HEAT, POISSON, get_symbol("power:1.5")):
        assert verify_composition(sym, 0.0, 0.4, 1.0, g) <= 1e-14
    assert verify_composition(HEAT, 0.5, 0.5, 1.2, g) <= 1e-15  # degenerate r = s


def test_composition_time_dependent_gl8():
    g = GridSpec(1, 256, 64.0)
    rule = TimeIntegralRule.gauss_legendre(8, adaptive=False)
    err = verify_composition(get_symbol("power-t:2"), 0.0, 0.4, 1.0, g, rule)
    assert err <= 1e-12


# Hermitian on the lattice except at the Nyquist index, where i xi is not real
DRIFT = SymbolSpec(name="drift", eval_fn=lambda t, xi: -(xi**2).sum(axis=0) + 1j * xi[0],
                   kappa=1.0, mu=10.0, gamma=2.0, n_cert=2, time_constant=True)
# its time-dependent twin, -(1 + t)|xi|^2 + i xi: linear in t, so every Gauss rule is exact
DRIFT_T = SymbolSpec(name="drift-t",
                     eval_fn=lambda t, xi: -(1.0 + t) * (xi**2).sum(axis=0) + 1j * xi[0],
                     kappa=1.0, mu=30.0, gamma=2.0, n_cert=2)
RULES = {"gauss": TimeIntegralRule(), "gauss8": TimeIntegralRule.gauss_legendre(8, adaptive=False)}


@pytest.mark.parametrize("method", list(RULES))
def test_real_symbols_integrate_to_float64(unit_freq_grid, method):
    xi = unit_freq_grid.xi_stack()
    rule = RULES[method]
    for sym in (HEAT, POISSON, get_symbol("power-t:2")):
        assert integrate_symbol(sym, 0.2, 1.4, xi, rule).dtype == np.float64
        assert multiplier_values(sym, 0.2, 1.4, unit_freq_grid, rule).dtype == np.float64
        mult = multiplier_values(sym, 0.2, 1.4, unit_freq_grid, rule, pre=(POISSON, 0.0))
        assert mult.dtype == np.float64


@pytest.mark.parametrize("method", list(RULES))
def test_complex_symbol_stays_complex128(unit_freq_grid, method):
    xi = unit_freq_grid.xi_stack()
    rule = RULES[method]
    # at xi = 1: int_0.2^1.4 of -1 + i is 1.2 (-1 + i); of -(1 + r) + i, -2.16 + 1.2 i
    for drift, value in ((DRIFT, 1.2 * (-1.0 + 1.0j)), (DRIFT_T, -2.16 + 1.2j)):
        integral = integrate_symbol(drift, 0.2, 1.4, xi, rule)
        assert integral.dtype == np.complex128
        assert integral[8] == pytest.approx(value, rel=1e-12)
        mult = multiplier_values(drift, 0.2, 1.4, unit_freq_grid, rule)
        assert mult.dtype == np.complex128
        assert np.abs(mult.imag).max() > 0.1
        assert verify_composition(drift, 0.2, 0.7, 1.4, unit_freq_grid, rule) <= 1e-12


@pytest.mark.parametrize("rule", [TimeIntegralRule(), TimeIntegralRule.gauss_legendre(3),
                                  TimeIntegralRule.gauss_legendre(16, adaptive=False)],
                         ids=["default", "gauss3", "gauss16"])
def test_time_constant_symbol_integrates_in_closed_form(unit_freq_grid, rule):
    xi = unit_freq_grid.xi_stack()
    for sym in (HEAT, POISSON, DRIFT):
        expected = (1.4 - 0.2) * sym(0.2, xi)
        assert np.array_equal(integrate_symbol(sym, 0.2, 1.4, xi, rule), expected)
        assert np.array_equal(multiplier_values(sym, 0.2, 1.4, unit_freq_grid, rule),
                              np.exp(expected))


def test_multiplier_ellipticity_envelope():
    g = GridSpec(1, 512, 16.0)
    xi = g.xi_norm()
    for name in ("heat", "poisson", "power:1.5", "power-t:2"):
        sym = get_symbol(name)
        vals = multiplier_values(sym, 0.2, 1.4, g)
        bound = np.exp(-sym.kappa * 1.2 * xi**sym.gamma)
        assert np.all(np.abs(vals) <= bound * (1.0 + 1e-12))


def test_kinked_time_factor_exhausts_the_doubling():
    # sqrt|t - 0.37| defeats Gauss-Legendre: the estimates change by about
    # n^-1.5, so every doubling 16..8192 misses _TOLERANCE.  The rules are
    # built fresh; an O(n^3) builder would take over a minute at order 8192.
    def time_factor(t):
        return -(1.0 + abs(t - 0.37) ** 0.5)

    def spatial(xi):
        return (xi**2).sum(axis=0)

    kink = SymbolSpec("kink", lambda t, xi: time_factor(t) * spatial(xi), kappa=1.0, mu=4.0,
                      gamma=2.0, n_cert=2, time_factor=time_factor, spatial=spatial)
    xi = GridSpec(1, 8, 4.0).xi_stack()
    _legendre.cache_clear()
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match=r"did not converge; worst xi=\("):
        integrate_symbol(kink, 0.0, 1.0, xi, TimeIntegralRule())
    assert time.perf_counter() - start < 30.0
    assert _legendre.cache_info().currsize == 11  # orders 8, 16, ..., 8192


def test_composition_adaptive_converges_tightly():
    g = GridSpec(1, 512, 16.0)
    err = verify_composition(get_symbol("power-t:1.5"), 0.1, 0.9, 2.0, g,
                             TimeIntegralRule.gauss_legendre(8))
    assert err <= 1e-10


def test_scaling_identity_field_level():
    g = GridSpec(1, 1024, 32.0)
    f = generate_corpus(42, g, "GAUSSIAN_MIX", 1, mean_removed=True)[0].field
    for sym in (HEAT, POISSON):
        for b in (2.0, 4.0):
            assert _scaling_identity_error(f, sym, sym, b, s=0.3, t=0.7) <= 1e-6
