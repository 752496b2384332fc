import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from speclp import (acceptance, decay_fit_time, generate_corpus, get_symbol, harness,
                    ratio_report)
from speclp.cli import main
from speclp.evolution import _legendre
from speclp.errors import AuditError, ConfigError
from speclp.harness import _MEASURES, ScenarioConfig, _time_fit, parse_config, run_scenario

ROOT = Path(__file__).resolve().parents[1]

def write_cfg(path, **kv):
    lines = ["# test config"]
    for k, v in kv.items():
        lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_parse_config_round_trip(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", scenario="GFUN_RATIO", symbol1="heat",
                  symbol2="poisson", d=1, n=512, L=16, p=2, q=2, s=0, a="inf",
                  seed=3, corpus_kind="GAUSSIAN_MIX", corpus_count=2,
                  output_dir=str(tmp_path / "out"))
    cfg = parse_config(p)
    assert cfg.symbol2 == "poisson"
    assert math.isinf(cfg.a)
    assert cfg.n == 512 and cfg.seed == 3


def test_demo_config_parses():
    # the strict parser reads the shipped demo config without an unknown key
    cfg = parse_config(str(ROOT / "demos" / "gfun_ratio.cfg"))
    assert cfg.scenario == "GFUN_RATIO" and cfg.corpus_count == 16
    assert math.isinf(cfg.a) and cfg.output_dir == "out/gfun_ratio"


def test_parse_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        parse_config(str(p))


def test_illegal_infinite_window_combination(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", scenario="GFUN_RATIO", symbol1="heat",
                  symbol2="power-t:2", q=4, a="inf")
    with pytest.raises(ConfigError, match="q"):
        parse_config(p)


def test_unknown_scenario_rejected():
    cfg = ScenarioConfig(scenario="NOPE")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_audit_symbol_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="AUDIT_SYMBOL", symbol1="heat", symbol2="poisson",
                         n=256, L=16.0, output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["schema_version"] == "1"
    # both symbols are time-constant and homogeneous: every check is run and passes
    for name in ("heat", "poisson"):
        checks = summary["symbols"][name]
        assert sorted(checks) == ["HOMOGENEITY", "S1", "S2"]
        assert all(c["passed"] and math.isfinite(c["worst_violation"]) for c in checks.values())


def test_gfun_ratio_scenario_and_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        cfg = ScenarioConfig(scenario="GFUN_RATIO", symbol1="heat", symbol2="heat",
                             n=512, L=16.0, corpus_count=2, seed=5,
                             output_dir=str(tmp_path / tag))
        assert run_scenario(cfg) == 0
        outs.append(tmp_path / tag)
    s = json.loads((outs[0] / "summary.json").read_text())
    assert abs(s["max"] - 0.5) <= 1e-3
    # byte-identical summaries; only the timestamped run_meta differs
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    meta = json.loads((outs[0] / "run_meta.json").read_text())
    assert "timestamp" in meta


def test_reproduce_summary_is_byte_reproducible(tmp_path, monkeypatch):
    # two fast criteria; wall times go to run_meta.json, never to summary.json
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_3_composition,
                                                acceptance.criterion_4_closed_form_kernels])
    summaries = []
    for tag in ("a", "b"):
        assert run_scenario(ScenarioConfig(scenario="REPRODUCE",
                                           output_dir=str(tmp_path / tag))) == 0
        summaries.append((tmp_path / tag / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert b"runtime_s" not in summaries[0]
    assert [c["cid"] for c in json.loads(summaries[0])["criteria"]] == [3, 4]
    assert json.loads((tmp_path / "a" / "run_meta.json").read_text())["measure_s"] > 0.0


def test_lp_decomp_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="LP_DECOMP", n=512, L=16.0, corpus_count=2,
                         corpus_kind="BANDLIMITED_RANDOM",
                         output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0


def test_fraclap_scenario_via_cli(tmp_path):
    p = write_cfg(tmp_path / "c.cfg", scenario="FRACLAP_XCHECK", n=8192, L=256,
                  output_dir=str(tmp_path / "o1"))
    assert main(["fraclap-xcheck", "--config", p, "--out", str(tmp_path / "o2")]) == 0
    summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert summary["passed"] is True


def test_cli_requires_config_for_scenarios(capsys):
    assert main(["gfun-ratio"]) == 2
    assert "config" in capsys.readouterr().err


def test_cli_has_no_seed_flag(tmp_path, capsys):
    # the corpus seed is the config key ``seed``; the command line does not override it
    p = write_cfg(tmp_path / "c.cfg", scenario="GFUN_RATIO")
    with pytest.raises(SystemExit) as exc:
        main(["gfun-ratio", "--config", p, "--seed", "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    p = write_cfg(tmp_path / "c.cfg", scenario="GFUN_RATIO", symbol1="heat",
                  symbol2="power-t:2", q=4, a="inf")
    assert main(["gfun-ratio", "--config", p]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("n", "abc", "c.cfg:3: n must be an integer, got 'abc'"),
    ("L", "wide", "c.cfg:3: L must be a number, got 'wide'"),
    ("L", "inf", "half_extent must be positive and finite, got inf"),
    ("a", "forever", "c.cfg:3: a must be a number, got 'forever'"),
    ("symbol1", "nope", "unknown symbol 'nope'"),
    ("symbol2", "power:x", "cannot parse symbol parameter in 'power:x'"),
    ("n", "511", "n must be even"),
    ("y_oct_lo", "-3", "c.cfg:3: unknown key 'y_oct_lo'"),
    ("corpus_cnt", "4", "c.cfg:3: unknown key 'corpus_cnt'"),
    ("q", "nan", "q must be >= 1, got nan"),
    ("q", "0.5", "q must be >= 1, got 0.5"),
    ("a", "-1", "a must be positive"),
    ("s", "-1", "s must be finite and nonnegative, got -1.0"),
    ("s", "inf", "s must be finite and nonnegative, got inf"),
    ("p", "0", "p must exceed 1, got 0.0"),
    ("p", "inf", "p must be finite, got inf"),
    ("t", "0", "t must be positive, got 0.0"),
    ("l", "-1", "l must be nonnegative, got -1.0"),
    ("seed", "-1", "seed must be nonnegative, got -1"),
    ("corpus_count", "0", "corpus_count must be at least 1, got 0"),
    ("corpus_kind", "ANNULUS", "unknown corpus kind 'ANNULUS'"),
    ("q", "inf", "q, gamma1, gamma2, kappa2 must be finite"),
    ("symbol1", "power:inf", "q, gamma1, gamma2, kappa2 must be finite"),
    ("symbol1", "power:2000", "no finite time window (omega = q gamma1/gamma2 = 2000)"),
    ("symbol1", "power:50", "time window not certified for omega = q gamma1/gamma2 = 50"),
])
def test_cli_bad_config_exits_2(tmp_path, capsys, key, value, message):
    p = write_cfg(tmp_path / "c.cfg", scenario="GFUN_RATIO", **{key: value})
    assert main(["gfun-ratio", "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()


def test_cli_unknown_corpus_kind_exits_2_without_a_corpus(tmp_path, capsys):
    # AUDIT_SYMBOL draws no corpus; the config check still rejects the kind
    p = write_cfg(tmp_path / "c.cfg", corpus_kind="NOISE")
    assert main(["audit-symbol", "--config", p, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: unknown corpus kind 'NOISE'\n"
    assert not (tmp_path / "o").exists()


def test_cli_hormander_coarse_grid_exits_2(tmp_path, capsys):
    # 8 * spacing <= 2^k <= L/8 spans under 6 octaves (no k at all on n = 64, L = 4)
    for n, L, ks in ((1024, 32, "k = -1..2"), (64, 4, "k = 0..-1")):
        p = write_cfg(tmp_path / f"{n}.cfg", n=n, L=L)
        assert main(["hormander", "--config", p, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: HORMANDER shifts |y| = 2^k with 8*spacing <= 2^k "
                              "<= L/8 must span at least 6 octaves") and ks in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, keys, message", [
    ("fraclap-xcheck", {"d": 2}, "FRACLAP_XCHECK runs in d = 1 only, got d = 2"),
    ("fraclap-xcheck", {"L": 2}, "grid must have spacing <= 1 <= L/4 for the split at y = 1, "
                                 "got spacing 0.00390625 and L/4 = 0.5"),
    ("fraclap-xcheck", {"n": 32, "L": 32}, "grid must have spacing <= 1 <= L/4 for the split "
                                           "at y = 1, got spacing 2.0 and L/4 = 8.0"),
    ("lp-decomp", {"d": 3, "n": 32, "L": 16, "corpus_kind": "BANDLIMITED_RANDOM"},
     "LP_DECOMP's block pairs need j = [4], outside the grid's dyadic range [-3, 3]"),
    ("lp-decomp", {"n": 16, "L": 4, "corpus_kind": "BANDLIMITED_RANDOM"},
     "LP_DECOMP's block pairs need j = [4], outside the grid's dyadic range [-1, 3]"),
], ids=["fraclap-d2", "fraclap-L2", "fraclap-n32-L32", "lp-d3", "lp-d1"])
def test_cli_bad_grid_exits_2(tmp_path, capsys, scenario, keys, message):
    p = write_cfg(tmp_path / "c.cfg", **keys)
    assert main([scenario, "--config", p, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_kernel_decay_time_fit_starts_at_s(monkeypatch, s):
    # a time-constant pair's kernels depend on t - s only, and s + t 2^k - s
    # is exact here, so the fit keeps the s = 0 bits (criterion 6's value)
    t_lists = []

    def spy(psi1, l, psi2, s, grid, t_list):
        t_lists.append(list(t_list))
        return decay_fit_time(psi1, l, psi2, s, grid, t_list)
    monkeypatch.setattr(harness, "decay_fit_time", spy)

    def fit(s):
        return _time_fit(ScenarioConfig(scenario="KERNEL_DECAY", symbol1="poisson",
                                        symbol2="poisson", n=4096, L=64.0, s=s))
    rep, _, ok = fit(s)
    assert t_lists == [[s + 0.5, s + 1.0, s + 2.0, s + 4.0]] and ok
    assert rep == fit(0.0)[0]
    assert rep.fitted_exponent == -2.998824184000926


def test_bad_symbol_rejected_for_every_scenario():
    for scenario in ("AUDIT_SYMBOL", "LP_DECOMP", "FRACLAP_XCHECK"):
        with pytest.raises(ConfigError, match="unknown symbol"):
            ScenarioConfig(scenario=scenario, symbol2="nope").validate()


def test_hormander_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="HORMANDER", symbol1="heat", symbol2="heat",
                         n=8192, L=32.0, q=2.0, output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    H = {float(y): h for y, h in summary["H"].items()}
    assert sorted(H) == [2.0**k for k in range(-4, 3)]
    assert summary["sup"] == max(H.values())


@pytest.mark.parametrize("scenario, n, L", [("GFUN_RATIO", 512, 16.0),
                                            ("HORMANDER", 8192, 32.0)])
def test_window_geometry_goes_to_run_meta(tmp_path, scenario, n, L):
    cfg = ScenarioConfig(scenario=scenario, n=n, L=L, corpus_count=1,
                         output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0
    window = json.loads((tmp_path / "out" / "run_meta.json").read_text())["window"]
    grid = cfg.grid()
    # heat pair, q = 2, a = inf: T from exp(-T min_freq^2) = 1e-16, panels of
    # 2 octaves in log t down to 1 / (4 nyquist^2)
    T = math.log(1e16) / grid.min_freq**2
    octaves = math.log2(T * 4.0 * grid.nyquist**2)
    assert window["panels"] == math.ceil(octaves / 2.0)
    assert window["order"] == cfg.window().order
    assert window["nodes"] == window["order"] * (window["panels"] + 1)
    assert window["truncation_t"] == pytest.approx(T, rel=1e-12)
    assert window["bottom_t"] == pytest.approx(T * 2.0 ** (-2.0 * window["panels"]), rel=1e-12)
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert "window" not in summary and "bottom_t" not in summary


def test_pv_geometry_goes_to_run_meta(tmp_path):
    cfg = ScenarioConfig(scenario="FRACLAP_XCHECK", n=16384, L=256.0,
                         output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0
    pv = json.loads((tmp_path / "out" / "run_meta.json").read_text())["principal_value"]
    # criterion 11's grid: spacing 1/32, xi_max = 32 pi, near range (0, 31.5/32]
    # in 48 dyadic panels; a panel [e/2, e] goes to the moment series when its
    # top Gauss-Legendre node e (3 + z_8) / 4 has y xi_max / 2 <= 3e-3
    z8 = float(_legendre(8)[0].max())
    top = [31.5 / 32.0 * 2.0**-k * (3.0 + z8) / 4.0 for k in range(48)]
    moment = sum(0.5 * 32.0 * math.pi * y <= 3e-3 for y in top)
    assert moment == 34
    # float64 held for the grid: 384 nodes and weights, 8193 frequencies,
    # two 112 x 91 tables and the 336 x 91 right factor of the other 14
    # panels' nodes, 8162 cell edges and 19 rows of logarithms over 8161 cells
    held = 8 * (2 * 384 + 8193 + 5 * 112 * 91 + 8162 + 19 * 8161)
    assert pv == {"moment_panels": moment, "direct_panels": 48 - moment,
                  "nodes_per_panel": 8, "series_terms": 3,
                  "tail_direct_terms": 8, "tail_euler_maclaurin": "B12",
                  "geometry_bytes": held}
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert "principal_value" not in summary and "moment_panels" not in summary
    assert "geometry_bytes" not in summary


def test_kernel_decay_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="KERNEL_DECAY", symbol1="poisson", symbol2="poisson",
                         n=4096, L=64.0, t=1.0, output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0


def test_dyadic_envelope_scenario(tmp_path):
    cfg = ScenarioConfig(scenario="DYADIC_ENVELOPE", symbol1="heat", symbol2="heat",
                         n=131072, L=2048.0, t=1.0, output_dir=str(tmp_path / "out"))
    assert run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["rate"] > 0
    blocks = summary["blocks"]
    assert sorted(map(int, blocks)) == list(range(-6, 6))
    assert all(b["slack"] == b["envelope"] / b["l1_norm"] for b in blocks.values())


def test_criterion_8_blocks_sit_under_their_envelope(monkeypatch):
    # block j = 5 sits within round-off of its envelope on this config; every
    # block above underflow must still be covered, and a decay rate steep
    # enough to underflow a block's envelope factor fails by name
    _, summary = _MEASURES["DYADIC_ENVELOPE"](acceptance.TWINS[8])
    rows = [b for b in summary["blocks"].values() if b["l1_norm"] > 1e-280]
    assert len(rows) == 12 and all(b["slack"] >= 1.0 for b in rows)
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: np.array([-1e6, 0.0]))
    with pytest.raises(AuditError,
                       match="^envelope factor of block j=-5 underflows at rate c = 1e\\+06$"):
        _MEASURES["DYADIC_ENVELOPE"](acceptance.TWINS[8])


@pytest.mark.parametrize("cid, criterion", [
    (5, acceptance.criterion_5_partition_orthogonality),
    (7, acceptance.criterion_7_hormander),
    (8, acceptance.criterion_8_dyadic_envelope),
    (11, acceptance.criterion_11_fraclap_dual_route),
])
def test_twin_scenario_summary_equals_criterion_details(tmp_path, cid, criterion):
    # a criterion with a scenario twin reports exactly what the scenario does
    cfg = dataclasses.replace(acceptance.TWINS[cid], output_dir=str(tmp_path))
    assert run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    if cid == 7:
        summary = {"sup": summary["sup"], "trend_slope": summary["trend_slope"]}
    elif cid == 8:
        # heat's order is 2
        summary = {"rate": summary["rate"], "constant": summary["constant"],
                   "low_j_slope": summary["low_j_slope"],
                   "low_j_slope_rel_err": abs(summary["low_j_slope"] - 2.0) / 2.0}
    elif cid == 11:
        summary = {f"eta_{eta}_rel_l2": r for eta, r in summary["discrepancies"].items()}
    else:
        summary = {k: v for k, v in summary.items()
                   if k not in ("schema_version", "scenario", "passed")}
    res = criterion()
    assert res.passed
    assert summary == res.details


@pytest.mark.parametrize("keys", [{}, {"p": 3.0}, {"p": 4.0, "q": 4.0}, {"symbol2": "power-t:2"}],
                         ids=["a1", "p3", "p4-q4", "power-t"])
def test_gfun_ratio_drift_branch(tmp_path, keys):
    # off the exact q = 2 case the pass rule is the refinement drift of the max
    cfg = ScenarioConfig(scenario="GFUN_RATIO", n=512, L=16.0, a=1.0, corpus_count=2, seed=5,
                         output_dir=str(tmp_path), **keys)
    assert run_scenario(cfg) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    entries = generate_corpus(cfg.seed, cfg.grid(), cfg.corpus_kind, cfg.corpus_count,
                              mean_removed=True)
    rep = ratio_report([e.field for e in entries], cfg.p, cfg.q, get_symbol(cfg.symbol1), cfg.l,
                       get_symbol(cfg.symbol2), cfg.window())
    assert summary["passed"] is True and summary["a"] == 1.0
    assert summary["refinement_drift"] == rep.refinement_drift < 0.05


@pytest.mark.parametrize("scenario, keys", [
    ("audit-symbol", {"symbol2": "poisson", "n": 256, "L": 16}),
    ("kernel-decay", {"symbol1": "poisson", "symbol2": "poisson", "n": 4096, "L": 64}),
    ("hormander", {"n": 8192, "L": 32}),
    ("dyadic-envelope", {"n": 131072, "L": 2048}),
    ("gfun-ratio", {"n": 512, "L": 16, "corpus_count": 2, "seed": 5}),
    ("lp-decomp", {"n": 512, "L": 16, "corpus_count": 2, "corpus_kind": "BANDLIMITED_RANDOM"}),
    ("fraclap-xcheck", {"n": 8192, "L": 256}),
    ("reproduce", None),
])
def test_cli_scenario_writes_only_summary_and_run_meta(tmp_path, monkeypatch, scenario, keys):
    out = tmp_path / "o"
    if keys is None:  # reproduce takes no config; two fast criteria stand for all
        monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_3_composition,
                                                    acceptance.criterion_4_closed_form_kernels])
        argv = [scenario, "--out", str(out)]
    else:
        argv = [scenario, "--config", write_cfg(tmp_path / "c.cfg", **keys), "--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["run_meta.json", "summary.json"]
