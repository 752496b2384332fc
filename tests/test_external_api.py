"""The speclp API used by the demos and the benchmark still exists.

The scripts in ``demos/`` and ``bench/`` import speclp but run outside the
test suite, so a deletion in ``src/`` could break them silently.  This test
reads their syntax trees and checks that every speclp name they import or
reference exists, and that every call of a speclp callable binds to its
signature: no keyword it lacks, no more positional arguments than it takes.
Calls that unpack ``*args`` or ``**kwargs`` cannot be checked and are skipped.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))

_MISSING = object()


def _speclp_bindings(tree):
    """Names the script binds to speclp objects: {local name: object}."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "speclp" or a.name.startswith("speclp."):
                    mod = importlib.import_module(a.name)
                    if a.asname is None:  # import speclp.x binds speclp
                        mod = importlib.import_module("speclp")
                    bound[a.asname or "speclp"] = mod
        elif isinstance(node, ast.ImportFrom) and node.module and \
                (node.module == "speclp" or node.module.startswith("speclp.")):
            mod = importlib.import_module(node.module)
            for a in node.names:
                obj = getattr(mod, a.name, _MISSING)
                if obj is _MISSING:
                    try:
                        obj = importlib.import_module(f"{node.module}.{a.name}")
                    except ImportError:
                        pass
                assert obj is not _MISSING, f"{node.module} has no {a.name}"
                bound[a.asname or a.name] = obj
    return bound


def _resolve(node, bound):
    """The speclp object an expression names (sp.X, harness.X.Y, X), else None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, bound)
        if base is None:
            return None
        obj = getattr(base, node.attr, _MISSING)
        assert obj is not _MISSING, f"{getattr(base, '__name__', base)} has no {node.attr}"
        return obj
    return None


@pytest.mark.parametrize("path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_speclp_names_and_keywords_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = _speclp_bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            _resolve(node, bound)
        if isinstance(node, ast.Call):
            fn = _resolve(node.func, bound)
            if fn is None or not callable(fn):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(kw.arg is None for kw in node.keywords):
                continue
            try:
                inspect.signature(fn).bind_partial(*[None] * len(node.args),
                                                   **{kw.arg: None for kw in node.keywords})
            except TypeError as e:
                pytest.fail(f"{path.name}:{node.lineno}: {getattr(fn, '__qualname__', fn)}: {e}")


def test_scripts_found():
    names = {p.name for p in SCRIPTS}
    assert "workloads.py" in names and "demo_kernel_decay_audits.py" in names
