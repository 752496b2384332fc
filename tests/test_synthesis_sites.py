"""The coefficient-to-samples step and its factors each have one owner.

``spectral`` owns the synthesis step and its factor (2 pi)^(d/2) / spacing^d,
``evolution`` owns the kernel factor (2 pi)^(-d/2).  This test reads the
syntax trees of the package modules and fails when a module other than
``spectral.py`` builds a ``SpectralField`` or calls ``inverse_transform``,
when ``(2.0 * np.pi) **`` is spelled anywhere but in
``spectral._two_pi_pow`` and ``evolution.KERNEL_SCALE``, or when an inverse
FFT (``ifft*``, ``irfft*``) is named anywhere but in ``spectral._synthesize``,
the time-node engine ``gfunction._node_fields`` and the corpus's random draw
``corpus._bandlimited_random`` (a draw, scaled away after, whose bits every
BANDLIMITED_RANDOM corpus keeps).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "speclp"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _is_two_pi_power(node):
    """node is (2.0 * np.pi) ** (...)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
        return False
    base = node.left
    return (isinstance(base, ast.BinOp) and isinstance(base.op, ast.Mult)
            and isinstance(base.left, ast.Constant) and base.left.value == 2.0
            and isinstance(base.right, ast.Attribute) and base.right.attr == "pi"
            and isinstance(base.right.value, ast.Name) and base.right.value.id == "np")


def _functions(tree):
    """(qualified name, node) for every function, methods included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)
    return list(walk(tree, ""))


_INVERSE_FFT = re.compile(r"i(r)?fft(n|2)?")


def _is_inverse_fft(node):
    """node names an inverse FFT, such as np.fft.irfftn (fftshift and
    ifftshift are permutations, not transforms)."""
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name is not None and _INVERSE_FFT.fullmatch(name) is not None


def _sites(path, is_site):
    """{function name or '<module>'} of each node of the module with is_site."""
    tree = _tree(path)
    owner = {}
    for name, fn in _functions(tree):
        for node in ast.walk(fn):
            owner[id(node)] = name  # inner functions overwrite their outer owner
    return {owner.get(id(node), "<module>") for node in ast.walk(tree) if is_site(node)}


def test_modules_found():
    assert {"spectral.py", "evolution.py", "kernel_audit.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_spectral_synthesizes(path):
    calls = [(node.lineno, _called_name(node)) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and _called_name(node) in ("SpectralField", "inverse_transform")]
    if path.name == "spectral.py":
        assert calls, "the guard no longer sees spectral's own sites"
    else:
        assert not calls, f"{path.name} synthesizes outside spectral: {calls}"


def test_two_pi_power_has_two_owners():
    sites = {(p.name, name) for p in MODULES for name in _sites(p, _is_two_pi_power)}
    assert sites == {("spectral.py", "_two_pi_pow"), ("evolution.py", "KERNEL_SCALE")}


def test_inverse_ffts_have_three_owners():
    sites = {(p.name, name) for p in MODULES for name in _sites(p, _is_inverse_fft)}
    assert sites == {("spectral.py", "_synthesize"), ("gfunction.py", "_node_fields"),
                     ("corpus.py", "_bandlimited_random")}


@pytest.mark.parametrize("module, function", [("gfunction.py", "g_function"),
                                              ("kernel_audit.py", "hormander_report")])
def test_node_engines_take_the_synthesis_factor_from_spectral(module, function):
    fn = dict(_functions(_tree(SRC / module)))[function]
    assert any(isinstance(n, ast.Call) and _called_name(n) == "_two_pi_pow"
               for n in ast.walk(fn))
