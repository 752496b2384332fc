import math

import numpy as np
import pytest
from scipy.integrate import quad

from speclp import (INF, AuditError, Field, GridSpec, SpectralField, WindowError,
                    build_decomposition, build_time_window, decay_fit_space, decay_fit_time,
                    dyadic_l1_envelope, forward_transform, fractional_laplacian_pv, g_function,
                    generate_corpus, get_symbol, gradient_kernel, hormander_report,
                    inverse_transform, kernel_field, mean_remove, pv_normalization)
from speclp.evolution import KERNEL_SCALE, _kernel_multiplier
from speclp.lp_decomp import _bump
from speclp.spectral import _synthesize
from speclp.symbols import SymbolSpec

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")


def test_gradient_kernel_symmetry_and_zero_mode():
    g = GridSpec(1, 4096, 64.0)
    comps, mag = gradient_kernel(HEAT, 0.0, HEAT, 0.0, 1.0, g)
    v = comps[0].values.real
    assert abs(v[g.n // 2]) < 1e-14  # odd at the origin
    assert abs(v.sum() * g.spacing) < 1e-12
    assert np.all(mag.values.real >= 0.0)


def test_gradient_matches_finite_difference_oracle():
    g = GridSpec(1, 4096, 64.0)
    comps, _ = gradient_kernel(HEAT, 0.0, HEAT, 0.0, 1.0, g)
    K = kernel_field((HEAT, 0.0), HEAT, 0.0, 1.0, g).values.real
    i0 = g.n // 2 + int(round(1.0 / g.spacing))  # x = 1
    h = g.spacing
    fd = (-K[i0 + 2] + 8 * K[i0 + 1] - 8 * K[i0 - 1] + K[i0 - 2]) / (12 * h)
    assert abs(fd - comps[0].values.real[i0]) <= 1e-6 * abs(fd)


def test_space_decay_poisson_pair():
    g = GridSpec(1, 4096, 64.0)
    rep = decay_fit_space(POISSON, 0.0, POISSON, 0.0, 1.0, g, fit_window=(4.0, 32.0))
    assert rep.target_exponent == -3.0
    assert -3.2 <= rep.fitted_exponent <= -2.7
    # tail constant of the explicit kernel derivative is 2/pi
    assert 0.5 <= rep.fitted_constant <= 0.75
    assert rep.max_pointwise_excess <= 1e-12


def test_space_decay_heat_pair_superpolynomial():
    g = GridSpec(1, 4096, 64.0)
    rep = decay_fit_space(HEAT, 0.0, HEAT, 0.0, 1.0, g, fit_window=(1.0, 32.0))
    assert rep.fitted_exponent <= -4.0


def test_space_decay_constant_stable_across_t():
    g = GridSpec(1, 4096, 64.0)
    consts = [decay_fit_space(POISSON, 0.0, POISSON, 0.0, t, g,
                              fit_window=(4.0, 32.0)).fitted_constant
              for t in (0.5, 1.0, 2.0)]
    assert (max(consts) - min(consts)) / min(consts) < 0.10


def test_space_decay_window_too_short():
    g = GridSpec(1, 512, 8.0)
    with pytest.raises(AuditError):
        decay_fit_space(POISSON, 0.0, POISSON, 0.0, 1.0, g, fit_window=(1.0, 4.0))


@pytest.mark.parametrize("r_lo", [0.0, -1.0])
def test_space_decay_window_must_start_at_a_positive_radius(r_lo):
    g = GridSpec(1, 512, 8.0)
    with pytest.raises(AuditError, match="positive radius"):
        decay_fit_space(POISSON, 0.0, POISSON, 0.0, 1.0, g, fit_window=(r_lo, 4.0))


def test_time_decay_heat_pair():
    g = GridSpec(1, 4096, 64.0)
    rep = decay_fit_time(HEAT, 0.0, HEAT, 0.0, g, [0.5, 1.0, 2.0, 4.0])
    assert rep.target_exponent == -2.0
    assert abs(rep.fitted_exponent - rep.target_exponent) <= 0.02 * 2.0


def test_time_decay_needs_three_octaves():
    g = GridSpec(1, 1024, 32.0)
    with pytest.raises(AuditError):
        decay_fit_time(HEAT, 0.0, HEAT, 0.0, g, [1.0, 2.0])


def hormander_window(grid, q=2.0):
    return build_time_window(0.0, INF, q, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                             xi_min=grid.min_freq, xi_max=grid.nyquist)


def test_hormander_profile_flat():
    g = GridSpec(1, 8192, 32.0)
    w = hormander_window(g)
    ys = [np.array([2.0**k]) for k in range(-4, 3)]  # 6 octaves
    rep = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, ys, g)
    assert np.isfinite(rep.sup)
    assert abs(rep.trend_slope) <= 0.15
    # kernel differences fall out of the region |x| >= 2|y| as |y| grows
    h_at = dict(zip(rep.y_values, rep.integrals))
    assert h_at[4.0] < 0.8 * h_at[0.0625]


def test_hormander_preconditions():
    g = GridSpec(1, 4096, 32.0)
    w = hormander_window(g)
    with pytest.raises(ValueError):
        hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([0.0])], g)
    with pytest.raises(AuditError, match="resolve"):
        hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([g.spacing])], g)
    # unchecked, y = [1, 3] on a 1-D grid rolls by 1 only and reports H at |y| = 3.162
    with pytest.raises(ValueError, match="length 1"):
        hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([1.0, 3.0])], g)


def test_hormander_y_list_matches_single_calls():
    # the y list sets only which integrals come back: each equals its own call's
    g = GridSpec(1, 4096, 32.0)
    w = hormander_window(g)
    ys = [np.array([1.0]), np.array([2.0])]
    both = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, ys, g).integrals
    single = [hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [y], g).integrals[0] for y in ys]
    assert both == single


def test_hormander_needs_a_region_beyond_2y():
    # |x| >= 2|y| holds no lattice point once 2|y| >= L: H would read 0.0
    g = GridSpec(1, 8192, 32.0)
    w = build_time_window(0.0, INF, 2.0, 2.0, 2.0, n_nodes=2, kappa2=1.0,
                          xi_min=g.min_freq, xi_max=g.nyquist)
    for y in (40.0, 16.0):
        with pytest.raises(AuditError, match="L/2"):
            hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([y])], g)
    rep = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([15.5])], g)
    assert rep.integrals[0] > 0.0


def test_hormander_shift_paths_agree():
    # just below a lattice value the two-roll blend meets the single roll;
    # from above, the cutoff r >= 2|y| would drop a lattice point
    g = GridSpec(1, 2048, 32.0)
    w = hormander_window(g)
    rolled = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([0.5])], g).integrals[0]
    blended = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0,
                               [np.array([0.5 * (1.0 - 1e-6)])], g).integrals[0]
    assert blended == pytest.approx(rolled, rel=2e-6)


def test_hormander_off_lattice_stays_near_lattice_value():
    # kernels at the window's smallest t are narrower than a cell; a
    # spectral-phase shift rang them across the region (H up to 3.9x)
    g = GridSpec(1, 8192, 64.0)
    w = hormander_window(g)
    ys = [np.array([0.125 + theta * g.spacing]) for theta in (0.0, 0.07, 0.25, 0.5, 0.75, 0.93)]
    H = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, ys, g).integrals
    assert all(abs(h - H[0]) <= 0.08 * H[0] for h in H[1:])


def _heat_pair_v2(a, b):
    """int_0^inf t K(t, a) K(t, b) dt for the heat pair's kernel K(t, x) = p_t''(x),
    p_t the 1-D heat kernel: (8 a^2 b^2 / S^3 - 1 / S) / (4 pi), S = a^2 + b^2."""
    S = a * a + b * b
    return (8.0 * a * a * b * b / S**3 - 1.0 / S) / (4.0 * math.pi)


def continuum_hormander(y):
    """H(y) of the heat pair at q = 2 on the real line: the t integral of
    t |K(t, x - y) - K(t, x)|^2 in closed form, the x integral by quad."""
    def v(x):
        a, b = x - y, x
        return math.sqrt(max(_heat_pair_v2(a, a) + _heat_pair_v2(b, b)
                             - 2.0 * _heat_pair_v2(a, b), 0.0))
    return sum(quad(v, lo, hi, limit=200)[0] for lo, hi in ((2.0 * y, math.inf),
                                                            (-math.inf, -2.0 * y)))


def test_hormander_converges_to_the_continuum_value():
    # the closed-form t integral against quad over t at two points
    def p2(t, x):
        return (4.0 * math.pi * t) ** -0.5 * math.exp(-x * x / (4.0 * t)) \
            * (x * x / (4.0 * t * t) - 1.0 / (2.0 * t))
    for a, b in ((1.7, 2.7), (-3.0, 4.5)):
        by_quad = quad(lambda t: t * p2(t, a) * p2(t, b), 0.0, math.inf, limit=200)[0]
        assert _heat_pair_v2(a, b) == pytest.approx(by_quad, rel=1e-8)
    # dilation makes H the same for every y, so y = 1 stands for all
    H = continuum_hormander(1.0)
    assert abs(H - 0.51060) <= 1e-4
    # criterion 7's grid: the lattice H(y) misses about y/L of it, the region
    # beyond |x| = L where the integrand falls off like y/|x|^2; the rest is
    # the boundary cut at r = 2|y| (O(h/|y|)) and the torus tail beyond first
    # order (O((y/L)^2)).  Measured residuals 2.1e-3 at y = 1/8 .. -1.9e-3 at y = 4
    g = GridSpec(1, 32768, 32.0)
    w = build_time_window(0.0, INF, 2.0, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                          xi_min=g.min_freq, xi_max=g.nyquist)
    ys = [2.0**k for k in range(-3, 3)]
    rep = hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([y]) for y in ys], g)
    L = g.half_extent
    for y, h in zip(ys, rep.integrals):
        assert abs(h - (H - y / L)) <= 0.2 * g.spacing / y + 0.2 * (y / L) ** 2, y


@pytest.mark.parametrize("psi1, psi2, window_q, kappa2, q", [
    (HEAT, HEAT, 2.0, 1.0, 4.0),
    (POISSON, HEAT, 2.0, 1.0, 2.0),
    (HEAT, HEAT, 2.0, 2.0, 2.0),  # psi2's kappa 1 does not cover the truncation
    (HEAT, get_symbol("power-t:2"), 4.0, 1.0, 4.0),  # infinite, q = 4, time-dependent
], ids=["q", "orders", "kappa", "infinite"])
def test_hormander_rejects_the_windows_g_function_rejects(psi1, psi2, window_q, kappa2, q):
    g = GridSpec(1, 512, 16.0)
    w = build_time_window(0.0, INF, window_q, 2.0, 2.0, n_nodes=2, kappa2=kappa2,
                          xi_min=g.min_freq, xi_max=g.nyquist)
    f = generate_corpus(3, g, "GAUSSIAN_MIX", 1, mean_removed=True)[0].field
    with pytest.raises((ValueError, WindowError)) as want:
        g_function(f, psi1, 0.0, psi2, w, q)
    with pytest.raises(want.type) as got:
        hormander_report(psi1, 0.0, psi2, 0.0, w, q, [np.array([1.0])], g)
    assert str(got.value) == str(want.value)


def test_hormander_rejects_another_start_than_the_window_s():
    g = GridSpec(1, 512, 16.0)
    w = build_time_window(0.5, 1.0, 2.0, 2.0, 2.0, n_nodes=2, xi_max=g.nyquist)
    with pytest.raises(ValueError, match="s=0.0 does not match window s=0.5"):
        hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [np.array([1.0])], g)
    assert hormander_report(HEAT, 0.0, HEAT, 0.5, w, 2.0, [np.array([1.0])], g).integrals[0] > 0.0


def test_dyadic_envelope_heat_pair():
    g = GridSpec(1, 4096, 64.0)
    D = build_decomposition(g)
    rep = dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, range(-2, 6), g, D)
    assert rep.rate > 0.0
    for row in rep.rows:
        assert row.l1_norm <= row.envelope * (1.0 + 1e-12)
    vals = {r.j: r.l1_norm for r in rep.rows}
    # super-exponential collapse past the decay knee
    assert vals[5] < 1e-40 * vals[0]


def test_dyadic_envelope_time_scaling():
    # homogeneous pair: measured(j, 4) = 2^(-g1) measured(j+1, 1); needs a
    # lattice fine enough in frequency to resolve the lowest annulus
    g = GridSpec(1, 16384, 256.0)
    D = build_decomposition(g)
    m1 = {r.j: r.l1_norm for r in dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0,
                                                     range(-2, 3), g, D).rows}
    m4 = {r.j: r.l1_norm for r in dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 4.0,
                                                     range(-3, 2), g, D).rows}
    for j in range(-3, 2):
        assert m4[j] == pytest.approx(0.25 * m1[j + 1], rel=0.05)


# Hermitian except at the Nyquist index: its kernels take the complex route
DRIFT = SymbolSpec(name="drift", eval_fn=lambda t, xi: -(xi**2).sum(axis=0) + 1j * xi[0],
                   kappa=1.0, mu=10.0, gamma=2.0, n_cert=2, time_constant=True)


@pytest.mark.parametrize("d, psi2", [(1, HEAT), (1, DRIFT), (2, HEAT)], ids=["1d", "drift", "2d"])
def test_dyadic_envelope_rows_match_the_allocating_expression(d, psi2):
    # each block's product, kernel factor and abs share buffers; the rows
    # keep the bits of one fresh array per step
    # the drift's Nyquist mode, exp(-|xi|^2) = 4.7e-275 at t = 1, must not underflow
    g = GridSpec(2, 128, 16.0) if d == 2 else GridSpec(1, 256, 16.0)
    D = build_decomposition(g)
    js = range(max(D.j_min, -2), D.j_max + 1)
    mult, half = _kernel_multiplier(psi2, 0.0, 1.0, g, (HEAT, 0.0))
    assert half == (psi2 is HEAT)
    want = [float(np.abs(_synthesize(g, mult * _bump(D, j)(half) * KERNEL_SCALE(d), half)).sum()
                  * g.cell_measure) for j in js]
    rep = dyadic_l1_envelope(HEAT, 0.0, psi2, 0.0, 1.0, js, g, D)
    assert [r.l1_norm for r in rep.rows] == want


def test_dyadic_envelope_range_checked():
    g = GridSpec(1, 1024, 32.0)
    D = build_decomposition(g)
    with pytest.raises(ValueError):
        dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, range(D.j_max, D.j_max + 4), g, D)


def test_pv_normalization_classic_value():
    assert pv_normalization(1, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-12)


@pytest.mark.parametrize("eta", [0.0, 2.0, -0.5, 3.0, float("nan")])
def test_pv_normalization_rejects_eta_outside_0_2(eta):
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 2\)"):
        pv_normalization(1, eta)


def test_fraclap_dual_route_eta_1():
    g = GridSpec(1, 8192, 256.0)
    x = g.x_axis()
    f = Field(g, np.exp(-(x**2) / 2))
    F = forward_transform(f)
    xi = g.freq_axis()
    A = inverse_transform(SpectralField(g, -np.abs(xi) ** 1.0 * F.coeffs))
    B = fractional_laplacian_pv(f, 1.0)
    rel = np.linalg.norm(A.values - B.values) / np.linalg.norm(A.values)
    assert rel < 1e-3


def test_fraclap_small_eta_limit():
    g = GridSpec(1, 8192, 256.0)
    x = g.x_axis()
    f = mean_remove(Field(g, np.exp(-(x**2) / 2)))
    F = forward_transform(f)
    xi = g.freq_axis()
    for eta, tol in ((0.01, 2e-2), (0.001, 2e-3)):
        out = inverse_transform(SpectralField(g, np.abs(xi) ** eta * F.coeffs))
        rel = np.linalg.norm(out.values - f.values) / np.linalg.norm(f.values)
        assert rel < tol


def test_fraclap_linearity():
    g = GridSpec(1, 2048, 128.0)
    x = g.x_axis()
    f1 = Field(g, np.exp(-(x**2) / 2))
    f2 = Field(g, x * np.exp(-(x**2) / 3))
    lhs = fractional_laplacian_pv(Field(g, f1.values + f2.values), 0.8).values
    rhs = fractional_laplacian_pv(f1, 0.8).values + fractional_laplacian_pv(f2, 0.8).values
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_fraclap_eta_range_checked():
    g = GridSpec(1, 512, 32.0)
    f = Field(g, np.zeros(g.n))
    for eta in (0.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            fractional_laplacian_pv(f, eta)


def test_fraclap_grid_must_hold_the_split_at_one():
    # L / 4 = 0.5 < 1: the far range [1, L] has no room on this grid
    f = Field(GridSpec(1, 64, 2.0), np.zeros(64))
    with pytest.raises(ValueError, match=r"spacing <= 1 <= L/4"):
        fractional_laplacian_pv(f, 1.0)


def test_dyadic_envelope_rejects_a_decomposition_of_another_grid():
    g = GridSpec(1, 64, 32.0)
    D = build_decomposition(GridSpec(1, 128, 32.0))  # same j_min, one more block
    js = range(D.j_min, D.j_min + 4)
    with pytest.raises(ValueError, match="grids do not match"):
        dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, js, g, D)
    rep = dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, js, D.grid, D)
    assert [r.j for r in rep.rows] == list(js)
