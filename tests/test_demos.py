"""Every demo runs to completion, silently on stderr, with warnings as errors.

Each ``demos/*.py`` runs in its own interpreter (``python -W error``) from a
scratch directory, with the repo's ``src`` first on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
