"""Every input check of the public API raises its named error type and message.

Each case is a call that breaks exactly one check; the message is matched
literally (``re.escape``), from its start.
"""

import re

import numpy as np
import pytest

from speclp import (AuditError, ConfigError, Field, GridSpec, SymbolSpec, TimeIntegralRule,
                    WindowError, audit_s1, audit_s2, besov_norm0, block, build_decomposition,
                    build_time_window, check_homogeneity, decay_fit_space, dyadic_l1_envelope,
                    fractional_laplacian_pv, generate_corpus, get_symbol, hormander_report,
                    low_part, power_symbol, power_t_symbol, sobolev_norm, spectral_shift,
                    verify_composition)
from speclp.harness import ScenarioConfig

HEAT = get_symbol("heat")
G1 = GridSpec(1, 64, 8.0)
G2 = GridSpec(2, 16, 8.0)
D1 = build_decomposition(G1)
D2 = build_decomposition(GridSpec(1, 128, 8.0))
F1 = Field(G1, np.exp(-G1.x_axis() ** 2))
F2 = Field(G2, np.exp(-G2.x_norm() ** 2))
SYMBOL = dict(name="s", eval_fn=lambda t, xi: -(xi**2).sum(axis=0), kappa=1.0, mu=1.0,
              gamma=2.0, n_cert=2)


def _hormander_empty_y():
    w = build_time_window(0.0, 1.0, 2.0, 2.0, 2.0, xi_max=G1.nyquist)
    hormander_report(HEAT, 0.0, HEAT, 0.0, w, 2.0, [], G1)


def _field_nan_last():
    values = np.zeros((128,) * 3)
    values[-1, -1, -1] = np.nan
    Field(GridSpec(3, 128, 8.0), values)


def _symbol(**changes):
    SymbolSpec(**{**SYMBOL, **changes})


CASES = {
    "rule-order-0": (lambda: TimeIntegralRule(order=0), ValueError, "order must be positive"),
    "composition-r-outside": (lambda: verify_composition(HEAT, 0.0, 2.0, 1.0, G1), ValueError,
                              "need s <= r <= t, got 0.0, 2.0, 1.0"),
    "hormander-empty-y": (_hormander_empty_y, ValueError, "empty y list"),
    "envelope-empty-j": (lambda: dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 1.0, [], G1, D1),
                         ValueError, "empty j range"),
    # at t = 100 the top blocks' heat kernels exp(-100 |xi|^2) underflow
    "envelope-underflow": (lambda: dyadic_l1_envelope(HEAT, 0.0, HEAT, 0.0, 100.0,
                                                      range(D1.j_max - 2, D1.j_max + 1), G1, D1),
                           AuditError, "fewer than two blocks above underflow; shrink j range"),
    # spacing 1/8: no lattice point has 0.01 <= |x| <= 0.1
    "fit-few-points": (lambda: decay_fit_space(HEAT, 0.0, HEAT, 0.0, 1.0, G1, (0.01, 0.1)),
                       AuditError, "too few usable points in the fit window; enlarge the grid"),
    "pv-d2": (lambda: fractional_laplacian_pv(F2, 1.0), ValueError,
              "principal-value route is implemented for d = 1"),
    "block-grid": (lambda: block(F1, 0, D2), ValueError,
                   "field and decomposition grids do not match"),
    "low-part-grid": (lambda: low_part(F1, D2), ValueError,
                      "field and decomposition grids do not match"),
    "besov-grid": (lambda: besov_norm0(F1, 2.0, D2), ValueError,
                   "field and decomposition grids do not match"),
    "besov-q": (lambda: besov_norm0(F1, 0.5, D1), ValueError, "q must be >= 1, got 0.5"),
    "sobolev-p": (lambda: sobolev_norm(F1, 1.0, 0.5), ValueError, "p must be >= 1, got 0.5"),
    "field-shape": (lambda: Field(G1, np.zeros(63)), ValueError,
                    "array shape (63,) does not match grid shape (64,)"),
    "field-non-finite": (lambda: Field(G1, np.full(64, np.nan)), ValueError,
                         "array contains non-finite entries"),
    # 128^3 samples are tested in pieces; the NaN sits in the last one
    "field-non-finite-last-piece": (_field_nan_last, ValueError,
                                    "array contains non-finite entries"),
    "shift-length": (lambda: spectral_shift(F1, [0.1, 0.2]), ValueError,
                     "shift vector must have length 1"),
    "symbol-kappa": (lambda: _symbol(kappa=0.0), ValueError, "kappa, mu, gamma must be positive"),
    "symbol-mu": (lambda: _symbol(mu=-1.0), ValueError, "kappa, mu, gamma must be positive"),
    "symbol-gamma": (lambda: _symbol(gamma=0.0), ValueError, "kappa, mu, gamma must be positive"),
    "symbol-n-cert": (lambda: _symbol(n_cert=0), ValueError, "n_cert must be at least 1"),
    "power-gamma": (lambda: power_symbol(0.0), ValueError, "gamma must be positive"),
    "power-t-gamma": (lambda: power_t_symbol(-1.0), ValueError, "gamma must be positive"),
    "s1-empty-t": (lambda: audit_s1(HEAT, [], [[1.0]]), ValueError, "empty time sample set"),
    "s1-empty-xi": (lambda: audit_s1(HEAT, [0.0], []), ValueError, "empty frequency sample set"),
    "s1-zero-xi": (lambda: audit_s1(HEAT, [0.0], [[1.0, 0.0], [0.0, 0.0]]), ValueError,
                   "samples must avoid xi = 0"),
    "s2-empty-t": (lambda: audit_s2(HEAT, 1, [], [[1.0]]), ValueError, "empty time sample set"),
    "s2-empty-xi": (lambda: audit_s2(HEAT, 1, [0.0], []), ValueError,
                    "empty frequency sample set"),
    "s2-zero-xi": (lambda: audit_s2(HEAT, 1, [0.0], [[0.0]]), ValueError,
                   "samples must avoid xi = 0"),
    "s2-hyperplane": (lambda: audit_s2(HEAT, 1, [0.0], [[1.0, 0.0]]), ValueError,
                      "samples must avoid the coordinate hyperplanes"),
    "homogeneity-empty-lambda": (lambda: check_homogeneity(HEAT, [], [[1.0]]), ValueError,
                                 "empty lambda sample set"),
    "homogeneity-empty-xi": (lambda: check_homogeneity(HEAT, [2.0], []), ValueError,
                             "empty frequency sample set"),
    "homogeneity-zero-xi": (lambda: check_homogeneity(HEAT, [2.0], [[0.0]]), ValueError,
                            "samples must avoid xi = 0"),
    "s1-inf-xi": (lambda: audit_s1(HEAT, [0.0], [[np.inf], [1.0]]), ValueError,
                  "samples must be finite"),
    "s1-nan-xi": (lambda: audit_s1(HEAT, [0.0], [[1.0], [np.nan]]), ValueError,
                  "samples must be finite"),
    "s1-overflow-xi": (lambda: audit_s1(HEAT, [0.0], [[1e200], [1.0]]), ValueError,
                       "samples must have |xi|^2 within the float range"),
    "s2-inf-xi": (lambda: audit_s2(HEAT, 1, [0.0], [[np.inf], [1.0]]), ValueError,
                  "samples must be finite"),
    "s2-nan-xi": (lambda: audit_s2(HEAT, 1, [0.0], [[1.0], [np.nan]]), ValueError,
                  "samples must be finite"),
    "s2-overflow-xi": (lambda: audit_s2(HEAT, 1, [0.0], [[1e200], [1.0]]), ValueError,
                       "samples must have |xi|^2 within the float range"),
    "homogeneity-inf-xi": (lambda: check_homogeneity(HEAT, [2.0], [[np.inf], [1.0]]), ValueError,
                           "samples must be finite"),
    "homogeneity-nan-xi": (lambda: check_homogeneity(HEAT, [2.0], [[1.0], [np.nan]]), ValueError,
                           "samples must be finite"),
    "homogeneity-overflow-xi": (lambda: check_homogeneity(HEAT, [2.0], [[1e200], [1.0]]),
                                ValueError, "samples must have |xi|^2 within the float range"),
    "homogeneity-lambda": (lambda: check_homogeneity(HEAT, [2.0, 0.0], [[1.0]]), ValueError,
                           "lambdas must be positive"),
    "config-workers": (lambda: ScenarioConfig(workers=0).validate(), ConfigError,
                       "workers must be at least 1"),
    # a = 1e300: the top panel's weights t^omega overflow
    "window-weights": (lambda: build_time_window(0.0, 1e300, 2.0, 2.0, 2.0, xi_max=1.0),
                       WindowError, "no finite time window (omega = q gamma1/gamma2 = 2): "
                                    "its weights are not finite"),
    # the grid hosts GAUSSIAN_MIX bumps (seed 0 draws), but seed 1 puts one too
    # near the boundary: the message names the draw, not the grid
    "corpus-boundary": (lambda: generate_corpus(1, GridSpec(2, 160, 16.0), "GAUSSIAN_MIX", 1),
                        ConfigError, "corpus entry 0 (seed 1, GAUSSIAN_MIX) violates the "
                                     "boundary-decay envelope: boundary/peak = 1.36e-14 > 1e-14"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_error(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


def test_corpus_boundary_case_grid_hosts_other_seeds():
    assert len(generate_corpus(0, GridSpec(2, 160, 16.0), "GAUSSIAN_MIX", 1)) == 1


def test_corpus_boundary_rejects_the_same_draws():
    # the check, not only its message: 6 of seeds 0-29 draw a bump too near the boundary
    rejected = []
    for seed in range(30):
        try:
            generate_corpus(seed, GridSpec(2, 160, 16.0), "GAUSSIAN_MIX", 1)
        except ConfigError as exc:
            assert str(exc).startswith(f"corpus entry 0 (seed {seed}, GAUSSIAN_MIX) ")
            rejected.append(seed)
    assert rejected == [1, 7, 16, 18, 20, 22]
