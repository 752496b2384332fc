import os

import numpy as np
import pytest

from speclp import (INF, Field, GridSpec, WindowError, build_time_window,
                    explicit_q2_constant, g_function, get_symbol, lp_norm, mean_remove,
                    ratio_report, refine_field, spectral_shift)
from speclp.corpus import generate_corpus
from speclp.evolution import _legendre
from speclp.gfunction import _grid_window, _jacobi, _ratios
from speclp.harness import ScenarioConfig, _measure_gfun_ratio, parse_config
from test_lattice_radius import x_stack

GFUN_RATIO_CFG = os.path.join(os.path.dirname(__file__), "..", "demos", "gfun_ratio.cfg")

HEAT = get_symbol("heat")
POISSON = get_symbol("poisson")


@pytest.fixture
def grid():
    return GridSpec(1, 1024, 32.0)


@pytest.fixture
def corpus(grid):
    return [e.field for e in generate_corpus(21, grid, "GAUSSIAN_MIX", 3, mean_removed=True)]


def window_inf(grid, q, psi1, psi2, n_nodes=16):
    return build_time_window(0.0, INF, q, psi1.gamma, psi2.gamma, n_nodes=n_nodes,
                             kappa2=psi2.kappa, xi_min=grid.min_freq, xi_max=grid.nyquist)


def test_weight_integral_monomial(grid):
    w = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, xi_max=grid.nyquist)
    assert w.weight_exponent == 1.0
    assert w.weights.sum() == pytest.approx(0.5, abs=1e-10)


def test_weight_integral_flat_measure(grid):
    # q = 2, g1 = 1, g2 = 2: weight exponent zero, plain dt
    w = build_time_window(0.0, 1.0, 2.0, 1.0, 2.0, xi_max=grid.nyquist)
    assert w.weight_exponent == 0.0
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_nodes_inside_window(grid):
    w = build_time_window(0.5, 2.0, 2.0, 2.0, 2.0, xi_max=grid.nyquist)
    assert np.all(np.diff(w.nodes) > 0)
    assert w.nodes[0] > 0.5 and w.nodes[-1] < 2.5


def _oracle_window(s, T, omega, n_nodes, n_panels):
    """A per-panel loop: Gauss-Jacobi on [0, t_b] in t with the weight
    t^(omega - 1), then Gauss-Legendre in u = ln t on [T_k / 4, T_k],
    T_k = 4^-k T, each node taken from its own panel's top edge and the
    weight and dt = t du folded into its weights."""
    import math

    t_b = T * 2.0 ** (-2.0 * n_panels)
    x, v = _jacobi(n_nodes, omega - 1.0)
    nodes, weights = [s + 0.5 * t_b * (1.0 + x)], [(0.5 * t_b) ** omega * v]
    z, w = _legendre(n_nodes)
    h = math.log(2.0)  # half a panel's width in u
    for k in range(n_panels - 1, -1, -1):
        t = T * 2.0 ** (-2.0 * k) * np.exp(h * (z - 1.0))
        nodes.append(s + t)
        weights.append(h * w * t * t ** (omega - 1.0))
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("s, a, q, g1, g2, n_nodes", [
    (0.0, INF, 2.0, 2.0, 2.0, 16), (0.0, INF, 2.0, 1.0, 1.0, 8),
    (0.3, 1.0, 4.0, 2.0, 2.0, 4), (0.5, 2.0, 3.0, 1.0, 2.0, 5)])
def test_window_matches_per_panel_loop(grid, s, a, q, g1, g2, n_nodes):
    w = build_time_window(s, a, q, g1, g2, n_nodes, xi_min=grid.min_freq, xi_max=grid.nyquist)
    n_panels = w.nodes.size // n_nodes - 1  # Gauss-Legendre panels over the bottom panel
    assert w.n_panels == n_panels
    assert w.nodes[n_nodes - 1] - s < w.bottom_t < w.nodes[n_nodes] - s
    nodes, weights = _oracle_window(s, w.truncation_t, q * g1 / g2, n_nodes, n_panels)
    assert w.nodes.tobytes() == nodes.tobytes()
    assert w.weights.tobytes() == weights.tobytes()


@pytest.mark.parametrize("n_nodes", [0, -1, 2.5])
def test_window_rejects_bad_n_nodes(grid, n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be a positive integer"):
        build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, n_nodes, xi_max=grid.nyquist)


def test_window_accepts_numpy_integer_n_nodes(grid):
    a = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, np.int64(4), xi_max=grid.nyquist)
    b = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, 4, xi_max=grid.nyquist)
    assert a.nodes.tobytes() == b.nodes.tobytes()


def test_infinite_window_truncation(grid):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    # truncation solves exp(-kappa T ximin^gamma) = 1e-16
    assert np.exp(-w.truncation_t * grid.min_freq**2) == pytest.approx(1e-16, rel=1e-10)


def test_infinite_window_needs_spectral_gap(grid):
    with pytest.raises(WindowError, match="gap"):
        build_time_window(0.0, INF, 2.0, 2.0, 2.0, xi_max=grid.nyquist)


@pytest.mark.parametrize("xi_max", [0.0, -1.0, INF, float("nan")])
def test_window_rejects_bad_xi_max(grid, xi_max):
    with pytest.raises(ValueError, match="xi_max"):
        build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, xi_min=grid.min_freq, xi_max=xi_max)


@pytest.mark.parametrize("bad", ["q", "gamma1", "gamma2", "kappa2"])
@pytest.mark.parametrize("value", [INF, float("nan")])
def test_window_rejects_non_finite_parameters(bad, value):
    args = dict(q=2.0, gamma1=2.0, gamma2=2.0, kappa2=1.0)
    args[bad] = value
    kappa2 = args.pop("kappa2")
    match = "must be finite" if value == INF else "must be"
    with pytest.raises(ValueError, match=match):
        build_time_window(0.0, 1.0, *args.values(), kappa2=kappa2, xi_max=1.0)


@pytest.mark.parametrize("gamma1, kappa2, xi_max", [
    (2000.0, 1.0, 1.0),  # omega = 2000: 2^(omega) overflows in the Jacobi weights
    (1e-300, 1.0, 1.0),  # omega = 1e-300: the Jacobi matrix is not finite
    (2.0, 1e300, 1e10),  # t_fast underflows to 0
    (2.0, 1e-320, 1.0),  # t_fast overflows to inf
])
def test_window_without_finite_rule_raises_window_error(gamma1, kappa2, xi_max):
    with pytest.raises(WindowError, match=r"no finite time window \(omega = "):
        build_time_window(0.0, 1.0, 2.0, gamma1, 2.0, kappa2=kappa2, xi_max=xi_max)
    # omega = 1020 has a finite rule, but no certified one
    with pytest.raises(WindowError, match=r"not certified for omega = q gamma1/gamma2 = 1020: "):
        build_time_window(0.0, 1.0, 2.0, 1020.0, 2.0, xi_max=1.0)


@pytest.mark.parametrize("n_nodes", [None, 8])
def test_window_beyond_certified_omega_raises_window_error(n_nodes):
    # _ORDERS certifies omega <= 8; at order 15 the weights' sum misses 1/omega
    # by 2e-5 at omega = 50 (a = 1, xi_max = 1)
    assert build_time_window(0.0, 1.0, 2.0, 8.0, 2.0, n_nodes, xi_max=1.0).order == (n_nodes or 15)
    for gamma1, shown in ((8.000001, "8.000001"), (50.0, "50")):
        with pytest.raises(WindowError, match=(rf"omega = q gamma1/gamma2 = {shown}: the panel "
                                               r"orders are certified up to omega = 8$")):
            build_time_window(0.0, 1.0, 2.0, gamma1, 2.0, n_nodes, xi_max=1.0)


def test_window_needs_xi_max():
    with pytest.raises(TypeError, match="xi_max"):
        build_time_window(0.0, 1.0, 2.0, 2.0, 2.0)


def test_zero_field_maps_to_zero(grid):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    G = g_function(Field(grid, np.zeros(grid.n)), HEAT, 0.0, HEAT, w, 2.0)
    assert np.abs(G.values).max() == 0.0
    assert np.all(G.values.real >= 0.0)


def test_heat_pair_exact_ratio(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    for f in corpus:
        G = g_function(f, HEAT, 0.0, HEAT, w, 2.0)
        assert lp_norm(G, 2) / lp_norm(f, 2) == pytest.approx(0.5, abs=1e-3)


def test_poisson_pair_exact_ratio(grid, corpus):
    w = window_inf(grid, 2.0, POISSON, POISSON)
    for f in corpus:
        G = g_function(f, POISSON, 0.0, POISSON, w, 2.0)
        assert lp_norm(G, 2) / lp_norm(f, 2) == pytest.approx(0.5, abs=1e-3)


def test_q2_bound_invariant(grid, corpus):
    pairs = ((HEAT, HEAT), (POISSON, POISSON), (get_symbol("power:2"), POISSON))
    for psi1, psi2 in pairs:
        w = window_inf(grid, 2.0, psi1, psi2)
        c = explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma)
        for f in corpus:
            G = g_function(f, psi1, 0.0, psi2, w, 2.0)
            assert lp_norm(G, 2) ** 2 <= c * (1.0 + 1e-3) * lp_norm(f, 2) ** 2


def per_mode_sums(grid, psi1, psi2, w, q=2.0):
    """sum_i w_i |psi1 e^(t_i psi2)|^q at every nonzero mode, with its psi1
    and psi2 values there."""
    xi = grid.xi_stack()
    nonzero = grid.xi_norm() > 0.0
    pre, psi = psi1(0.0, xi)[nonzero], psi2(0.0, xi)[nonzero]
    return w.weights @ np.abs(pre * np.exp(np.multiply.outer(w.nodes - w.s, psi))) ** q, pre, psi


@pytest.mark.parametrize("names, n_nodes", [(("heat", "heat"), 168), (("poisson", "poisson"), 120),
                                             (("power:2", "poisson"), 130)])
def test_q2_window_identity_per_mode(grid, names, n_nodes):
    # Plancherel turns the q = 2 ratio into one time sum per mode: on the
    # windows of criteria 1 and 2, sum_i w_i |psi1 e^(t_i psi2)|^2 is the
    # closed-form constant at every nonzero mode, with no transform involved
    psi1, psi2 = (get_symbol(n) for n in names)
    w = _grid_window(grid, psi1, psi2)
    assert w.nodes.size == n_nodes
    per_mode = per_mode_sums(grid, psi1, psi2, w)[0]
    c = explicit_q2_constant(1.0, psi2.kappa, psi1.gamma, psi2.gamma)
    assert np.abs(per_mode - c).max() <= 1e-14 * c


def test_q2_window_identity_per_mode_in_two_dimensions():
    # the heat-pair window on 256^2 (156 nodes at order 12)
    grid = GridSpec(2, 256, 32.0)
    w = _grid_window(grid, HEAT, HEAT)
    assert w.nodes.size == 156
    per_mode = per_mode_sums(grid, HEAT, HEAT, w)[0]
    assert np.abs(per_mode - 0.25).max() <= 1e-14 * 0.25


@pytest.mark.parametrize("a, q", [(1.0, 2.0), (0.1, 2.0), (1.0, 4.0)])
def test_finite_window_identity_per_mode(grid, a, q):
    # on [0, a] the time sum has a closed form at every mode: with
    # omega = q g1/g2 and c = -q Re psi2,
    # int_0^a t^(omega-1) |psi1 e^(t psi2)|^q dt = |psi1|^q gamma(omega, c a) / c^omega
    w = _grid_window(grid, HEAT, HEAT, a=a, q=q)
    per_mode, pre, psi = per_mode_sums(grid, HEAT, HEAT, w, q)
    omega, c = q * HEAT.gamma / HEAT.gamma, -q * psi.real
    want = np.abs(pre) ** q * truncated_gamma_integral(omega, a, c)
    assert np.abs(per_mode / want - 1.0).max() <= 1e-14


# below x = c T the time-sum reference sums the series of gamma(omega, x);
# there scipy's gammainc is off by up to 1.5e-14 (omega = 6, against mpmath)
SERIES_X = 2.0


def truncated_gamma_integral(omega, T, c):
    """int_0^T t^(omega-1) e^(-c t) dt = gamma(omega, c T) / c^omega, per rate c.

    For x = c T < SERIES_X the positive series
    T^omega e^(-x) sum_k x^k / (omega (omega+1) ... (omega+k)), summed in long
    double until its terms fall below its eps; elsewhere scipy's
    Gamma(omega) P(omega, x) / c^omega."""
    from scipy.special import gamma, gammainc

    c = np.asarray(c, dtype=float)
    out = gamma(omega) * gammainc(omega, c * T) / c**omega
    small = c * T < SERIES_X
    x = np.longdouble(T) * c[small].astype(np.longdouble)
    term = np.full(x.shape, 1 / np.longdouble(omega))
    total, k = term.copy(), 0
    while (term > np.finfo(np.longdouble).eps * total).any():
        k += 1
        term *= x / (np.longdouble(omega) + k)
        total += term
    out[small] = np.longdouble(T) ** np.longdouble(omega) * np.exp(-x) * total
    return out


def test_truncated_gamma_integral_matches_mpmath():
    import mpmath
    for omega in (0.25, 1.0, 4.0, 6.0, 8.0):
        for T, c in ((1e-3, 3e-3), (0.01, 50.0), (1.0, 1.9), (1.0, 2.1), (10.0, 7.0)):
            got = truncated_gamma_integral(omega, T, [c])[0]
            with mpmath.workdps(40):
                c_mp = mpmath.mpf(c)
                want = mpmath.gammainc(omega, 0, c_mp * mpmath.mpf(T)) / c_mp**omega
                assert abs(mpmath.mpf(got) / want - 1) <= 1e-15, (omega, T, c)


def time_sum_defect(w, psi2, q, grid):
    """Worst relative defect, over the grid's decay rates c = -q Re psi2 > 0,
    of sum_i w_i e^(-c (t_i - s)) against its closed form
    int_0^T t^(omega-1) e^(-c t) dt (:func:`truncated_gamma_integral`), T the
    window's truncation time.  Up to |psi1|^q, which cancels, that sum is the
    per-mode q-th power of G."""
    omega, T = w.weight_exponent + 1.0, w.truncation_t
    c = np.unique(-q * psi2(0.0, grid.xi_stack())[grid.xi_norm() > 0.0].real)
    worst = 0.0
    for cc in np.array_split(c, -(-c.size // 2048)):  # at most 2048 rates at a time
        got = w.weights @ np.exp(-np.multiply.outer(w.nodes - w.s, cc))
        worst = max(worst, np.abs(got / truncated_gamma_integral(omega, T, cc) - 1.0).max())
    return worst


@pytest.mark.parametrize("omega", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0])
def test_time_sum_identity_per_mode_sweep(omega):
    # power:omega over heat at q = 2 has weight exponent omega - 1; every
    # decay rate of the lattice, on short, long and infinite windows
    psi1 = get_symbol(f"power:{omega:g}")
    for n in (256, 1024, 4096, 32768):
        grid = GridSpec(1, n, 32.0)
        for a in (0.001, 0.01, 1.0, 10.0, INF):
            w = _grid_window(grid, psi1, HEAT, a=a)
            assert time_sum_defect(w, HEAT, 2.0, grid) <= 1e-14, (n, a)


@pytest.mark.parametrize("omega, order", [(1.0, 11), (2.0, 12), (4.0, 13), (6.0, 14)])
def test_panel_order_follows_omega(grid, omega, order):
    # the order table of build_time_window, at each edge and just above it
    for gamma1, want in ((omega, order), (np.nextafter(omega, INF), order + 1)):
        w = build_time_window(0.0, 1.0, 2.0, gamma1, 2.0, xi_max=grid.nyquist)
        assert w.order == want
        assert w.nodes.size == want * (w.n_panels + 1)


@pytest.mark.parametrize("n", [32768, 8192])
def test_hormander_window_identity_per_mode(n):
    # the heat-pair windows (q = 2) of criterion 7, GridSpec(1, 32768, 32),
    # and of the HORMANDER runs on GridSpec(1, 8192, 32)
    cfg = ScenarioConfig(scenario="HORMANDER", n=n, L=32.0)
    assert time_sum_defect(cfg.window(), HEAT, 2.0, cfg.grid()) <= 1e-14


@pytest.mark.parametrize("names, n, L", [(("power:3", "heat"), 4096, 64.0),
                                         (("power:2", "poisson"), 32768, 32.0),
                                         (("heat", "heat"), 32768, 32.0)])
def test_q4_infinite_window_resolves_every_mode(names, n, L):
    # omega = 6, 8 and 4: these windows span more than 120 octaves of
    # (t - s)^omega, and every lattice mode still gets its closed form
    psi1, psi2 = (get_symbol(name) for name in names)
    grid = GridSpec(1, n, L)
    w = _grid_window(grid, psi1, psi2, q=4.0)
    assert time_sum_defect(w, psi2, 4.0, grid) <= 1e-14


def test_q4_window_converged_under_node_doubling(grid):
    # q = 4 has no per-mode identity: G on criterion 10's window matches the
    # same window at twice its order, at n = 1024 and refined to 2048
    f = generate_corpus(110, grid, "GAUSSIAN_MIX", 1, mean_removed=True)[0].field
    w = _grid_window(grid, HEAT, HEAT, a=1.0, q=4.0)
    windows = [w, build_time_window(0.0, 1.0, 4.0, 2.0, 2.0, 2 * w.order, xi_max=grid.nyquist)]
    for field in (f, refine_field(f, 2)):
        G, G2 = (g_function(field, HEAT, 0.0, HEAT, v, 4.0).values for v in windows)
        assert np.abs(G - G2).max() <= 1e-10 * np.abs(G2).max()


def plancherel_ratios(fields, psi1, psi2, w):
    """||G(f)||_2 / ||f||_2 at q = 2 with no inverse transform and no FFT.

    Plancherel turns the ratio squared into sum_xi |F(xi)|^2 S(xi) over
    sum_xi |F(xi)|^2, with S(xi) = sum_i w_i |psi1 e^(t_i psi2)|^2(xi) and F
    the plain DFT sum of the samples (1-D)."""
    grid = fields[0].grid
    x, xi = x_stack(grid)[0], grid.xi_stack()[0]
    power = np.abs(np.stack([f.values for f in fields]) @ np.exp(-1j * np.outer(x, xi))) ** 2
    pre, psi = psi1(0.0, grid.xi_stack()), psi2(0.0, grid.xi_stack())
    S = w.weights @ np.abs(pre * np.exp(np.multiply.outer(w.nodes - w.s, psi))) ** 2
    return np.sqrt(power @ S / power.sum(axis=1))


@pytest.mark.parametrize("seed, count, names", [(101, 16, ("heat", "heat")),
                                                (102, 8, ("poisson", "poisson")),
                                                (102, 8, ("power:2", "poisson"))])
def test_q2_ratios_match_plancherel_route(grid, seed, count, names):
    # the fields and windows of criteria 1 and 2 (GridSpec(1, 1024, 32.0))
    psi1, psi2 = (get_symbol(n) for n in names)
    fields = [e.field for e in generate_corpus(seed, grid, "GAUSSIAN_MIX", count,
                                               mean_removed=True)]
    w = _grid_window(grid, psi1, psi2)
    pointwise = np.array(_ratios(fields, (2.0,), 2.0, psi1, 0.0, psi2, w)[2.0])
    assert np.abs(pointwise / plancherel_ratios(fields, psi1, psi2, w) - 1.0).max() <= 1e-12


def test_gfun_ratio_scenario_matches_plancherel_route():
    cfg = parse_config(GFUN_RATIO_CFG)
    assert (cfg.p, cfg.q, cfg.d) == (2.0, 2.0, 1)
    grid, psi1, psi2 = cfg.grid(), get_symbol(cfg.symbol1), get_symbol(cfg.symbol2)
    fields = [e.field for e in generate_corpus(cfg.seed, grid, cfg.corpus_kind,
                                               cfg.corpus_count, mean_removed=True)]
    summary = _measure_gfun_ratio(cfg)[1]
    want = plancherel_ratios(fields, psi1, psi2, _grid_window(grid, psi1, psi2, cfg.s, cfg.a,
                                                              cfg.q))
    assert np.abs(np.array(summary["per_field"]) / want - 1.0).max() <= 1e-12


def test_explicit_constant_values():
    assert explicit_q2_constant(1.0, 1.0, 2.0, 2.0) == pytest.approx(0.25)
    assert explicit_q2_constant(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25)
    assert explicit_q2_constant(2.0, 1.0, 2.0, 2.0) == pytest.approx(1.0)  # mu^2 scaling
    with pytest.raises(ValueError):
        explicit_q2_constant(0.0, 1.0, 1.0, 1.0)


def test_explicit_constant_overflows_to_inf():
    # Gamma(200) is past the float range: the bound is +inf, not an error
    assert explicit_q2_constant(1.0, 1.0, 100.0, 1.0) == INF


def test_mean_removal_enforced(grid):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    x = grid.x_axis()
    f = Field(grid, np.exp(-(x**2) / 2))  # nonzero mean
    with pytest.raises(WindowError, match="mean"):
        g_function(f, HEAT, 0.0, HEAT, w, 2.0)


def test_infinite_window_legality_table(grid, corpus):
    pt = get_symbol("power-t:2")
    w = build_time_window(0.0, INF, 4.0, 2.0, 2.0, kappa2=1.0,
                          xi_min=grid.min_freq, xi_max=grid.nyquist)
    with pytest.raises(WindowError, match="q = 2"):
        g_function(corpus[0], HEAT, 0.0, pt, w, 4.0)
    # homogeneous time-constant pair is allowed at q = 4
    G = g_function(corpus[0], HEAT, 0.0, HEAT, w, 4.0)
    assert np.all(np.isfinite(G.values))


def test_window_pairing_validated(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    with pytest.raises(ValueError):
        g_function(corpus[0], HEAT, 0.0, HEAT, w, 4.0)  # q mismatch
    with pytest.raises(ValueError):
        g_function(corpus[0], POISSON, 0.0, HEAT, w, 2.0)  # order mismatch


def test_translation_commutation(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    f = corpus[0]
    shift = 9 * grid.spacing
    a = g_function(spectral_shift(f, shift), HEAT, 0.0, HEAT, w, 2.0).values
    b = spectral_shift(g_function(f, HEAT, 0.0, HEAT, w, 2.0), shift).values
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_monotone_in_window_length(grid, corpus):
    f = corpus[0]
    prev = None
    for a in (0.25, 1.0, 4.0):
        w = build_time_window(0.0, a, 2.0, 2.0, 2.0, kappa2=1.0, xi_max=grid.nyquist)
        G = g_function(f, HEAT, 0.0, HEAT, w, 2.0).values.real
        if prev is not None:
            assert np.all(G >= prev - 1e-12 * np.abs(G).max())
        prev = G


def test_node_doubling_already_converged(grid, corpus):
    r = []
    for n_nodes in (16, 32):
        w = window_inf(grid, 2.0, HEAT, HEAT, n_nodes=n_nodes)
        G = g_function(corpus[0], HEAT, 0.0, HEAT, w, 2.0)
        r.append(lp_norm(G, 2) / lp_norm(corpus[0], 2))
    assert abs(r[1] - r[0]) < 1e-4


def test_ratio_report(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    rep = ratio_report(corpus, 2.0, 2.0, HEAT, 0.0, HEAT, w)
    assert rep.max_ratio == pytest.approx(0.5, abs=1e-3)
    assert rep.refinement_drift < 1e-4
    assert len(rep.per_field) == len(corpus)
    assert min(rep.per_field) <= rep.median_ratio <= rep.max_ratio
    d = rep.to_json_dict()
    assert d["a"] == "inf"


def test_ratio_report_workers_deterministic(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    serial = ratio_report(corpus, 2.0, 2.0, HEAT, 0.0, HEAT, w, refine=False)
    threaded = ratio_report(corpus, 2.0, 2.0, HEAT, 0.0, HEAT, w, refine=False, workers=3)
    assert serial.per_field == threaded.per_field


def test_ratio_report_argument_errors(grid, corpus):
    w = window_inf(grid, 2.0, HEAT, HEAT)
    with pytest.raises(ValueError):
        ratio_report([], 2.0, 2.0, HEAT, 0.0, HEAT, w)
    with pytest.raises(ValueError):
        ratio_report(corpus, 1.0, 2.0, HEAT, 0.0, HEAT, w)


def test_time_dependent_symbol_finite_window(grid):
    # finite windows accept time-dependent evolutions
    pt = get_symbol("power-t:2")
    f = mean_remove(Field(grid, np.exp(-(grid.x_axis() ** 2) / 2)))
    w = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                          xi_max=grid.nyquist)
    G = g_function(f, HEAT, 0.0, pt, w, 2.0)
    # stronger damping than the time-constant heat evolution
    w_ref = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, n_nodes=8, kappa2=1.0,
                              xi_max=grid.nyquist)
    G_ref = g_function(f, HEAT, 0.0, HEAT, w_ref, 2.0)
    assert lp_norm(G, 2) < lp_norm(G_ref, 2)
