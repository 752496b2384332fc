"""Full verification gate: one test per criterion, each printing a
PASS/FAIL line with its headline measurements (visible with pytest -s)."""

import dataclasses
import itertools

from speclp import acceptance
from speclp.harness import _MEASURES


def _run(fn):
    res = fn()
    status = "PASS" if res.passed else "FAIL"
    detail = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in res.details.items())
    print(f"[{status}] criterion {res.cid}: {res.name} | {detail}")
    assert res.passed, f"criterion {res.cid} failed: {res.details}"
    return res


def test_criteria_registered_in_order():
    names = [fn.__name__ for fn in acceptance.CRITERIA]
    assert [int(n.split("_")[1]) for n in names] == list(range(1, 12))
    assert all(getattr(acceptance, n) is fn for n, fn in zip(names, acceptance.CRITERIA))


def test_wall_time_gate_fails_a_slow_criterion(monkeypatch):
    clock = itertools.count(0.0, 31.0)  # each reading 31 s after the last
    monkeypatch.setattr(acceptance.time, "perf_counter", lambda: next(clock))
    res = acceptance.criterion_3_composition()
    assert res.runtime_s >= 31.0 and not res.passed


def test_criterion_01_exact_q2_constant():
    res = _run(acceptance.criterion_1_exact_q2_constant)
    assert res.details["worst_ratio_err"] <= 1e-3
    assert res.runtime_s < 30.0


def test_criterion_02_poisson_cases():
    res = _run(acceptance.criterion_2_poisson_cases)
    assert res.details["k1_worst_err"] <= 1e-3
    assert res.details["k2_worst_err"] <= 1e-3


def test_criterion_03_evolution_composition():
    res = _run(acceptance.criterion_3_composition)
    assert res.details["worst_time_constant"] <= 1e-12
    assert res.details["worst_time_dependent"] <= 1e-10


def test_criterion_04_closed_form_kernels():
    res = _run(acceptance.criterion_4_closed_form_kernels)
    assert res.details["heat_sup_err"] <= 1e-6
    assert res.details["poisson_sup_err"] <= 1e-6


def test_criterion_05_partition_orthogonality_reconstruction():
    res = _run(acceptance.criterion_5_partition_orthogonality)
    assert res.details["partition_defect"] <= 1e-14
    assert res.details["worst_orthogonality"] <= 1e-12
    assert res.details["worst_reconstruction"] <= 1e-10


def test_criterion_06_time_decay_exponents():
    res = _run(acceptance.criterion_6_time_decay)
    for tag in ("heat_heat", "poisson_poisson", "poisson_heat"):
        assert res.details[f"{tag}_rel_err"] <= 0.02


def test_criterion_07_hormander_uniformity():
    res = _run(acceptance.criterion_7_hormander)
    assert abs(res.details["trend_slope"]) <= 0.1


def test_criterion_08_dyadic_envelope():
    res = _run(acceptance.criterion_8_dyadic_envelope)
    assert res.details["rate"] > 0.0
    assert res.details["low_j_slope_rel_err"] <= 0.05


def test_criterion_08_reads_its_twins_order(monkeypatch):
    # the low-j slope error is taken against psi1's own order, not heat's 2
    cfg = dataclasses.replace(acceptance.TWINS[8], symbol1="power:1.5")
    monkeypatch.setitem(acceptance.TWINS, 8, cfg)
    res = acceptance.criterion_8_dyadic_envelope()
    passed, summary = _MEASURES[cfg.scenario](cfg)
    assert res.details["low_j_slope"] == summary["low_j_slope"]
    assert res.details["low_j_slope_rel_err"] == abs(summary["low_j_slope"] - 1.5) / 1.5
    assert res.passed == passed


def test_criterion_09_scaling_identity():
    res = _run(acceptance.criterion_9_scaling_identity)
    assert res.details["worst_rel_err"] <= 1e-6


def test_criterion_10_ratio_stability():
    res = _run(acceptance.criterion_10_ratio_stability)
    for p, q in ((1.5, 2.0), (3.0, 2.0), (4.0, 4.0)):
        assert res.details[f"p{p}_q{q}_drift"] < 0.05


def test_criterion_11_fractional_laplacian_dual_route():
    res = _run(acceptance.criterion_11_fraclap_dual_route)
    for eta in (0.5, 1.0, 1.5):
        assert res.details[f"eta_{eta}_rel_l2"] < 1e-3
