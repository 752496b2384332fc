"""Reduced-size self-test of the benchmark.

    python3 -m pytest -q bench/smoke.py

Run from the root of the checkout.  The file name keeps it out of the
default pytest collection, so the tier-1 suite does not run it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    p = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--smoke")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert report["fail_frac"] == {"value": 0.0, "unit": "fraction"}
    assert report["machine"]["nproc"] >= 1
    if not trace:
        assert {k: v["unit"] for k, v in report["wall_clock"].items()} == \
            {"run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
        assert {k: v["unit"] for k, v in report["cpu_time"].items()} == \
            {"run_cpu_s": "s", "op_p50_cpu_ms": "ms", "op_tail_cpu_ms": "ms"}
        assert len(report["setup_samples_s"]) == len(report["setup_wall_samples_s"]) == 3


def test_reference_speed_scales_cpu_time_by_the_probes():
    ops = [workloads.Op("a", None, None), workloads.Op("b", None, None)]
    # (kind, criterion, wall, error, cpu); the probes ran at half the
    # reference speed, so the figures at reference speed are halved
    passes = [[("a", None, 1.0, None, 0.1), ("b", None, 1.0, None, 0.3)],
              [("a", None, 1.0, None, 0.2), ("b", None, 1.0, None, 0.6)]]
    figures, report = worker.end_to_end("kernel", ops, passes, [0.02, 0.03, 0.02], 0.01)
    assert report["cpu_time"]["run_cpu_s"]["value"] == pytest.approx(0.6)
    assert figures["run_ref_s"] == pytest.approx(0.3)
    assert figures["op_p50_ref_ms"] == pytest.approx(150.0)  # median of op medians 0.15, 0.45
    assert report["wall_clock"]["run_s"]["value"] == pytest.approx(2.0)


def test_wrong_reference_is_a_failed_op(tmp_path):
    ops = workloads.build("sqfun", 3, True, str(tmp_path))
    good = next(op for op in ops if op.kind == "c01.heat_inf")
    wrong = workloads.Op(good.kind, good.run,
                         lambda r: workloads._within("ratio", r, 0.5 + 0.01, 1e-3), 1)
    raising = workloads.Op("c01.heat_inf", lambda: 1.0 / 0.0, good.check, 1)
    results = worker.run_pass([good, wrong, raising])
    assert [r[3] is None for r in results] == [True, False, False]
    assert "reference 0.51" in results[1][3]
    assert "ZeroDivisionError" in results[2][3]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    p = _run("--workload", "kernel", "--seed", "1", "--seconds", "1", "--trace", "0",
             cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout == ""
