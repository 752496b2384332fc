"""Every benchmark op at smoke size runs once and passes its own check, so an
op failure (which the benchmark counts in its failure share) shows in the
test suite too."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_bench_op_passes_its_check(workload, tmp_path):
    ops = workloads.build(workload, 1, True, str(tmp_path))
    assert ops
    failures = [(op.kind, reason) for op in ops
                if (reason := op.check(op.run())) is not None]
    assert failures == []
