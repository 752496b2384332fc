"""The lattice FFTs, the coefficient-to-samples step and its factors each
have one owner.

``spectral`` owns the synthesis step and its factor (2 pi)^(d/2) / spacing^d,
``evolution`` owns the kernel factor (2 pi)^(-d/2).  This test reads the
syntax trees of the package modules and fails when a module other than
``spectral.py`` builds a ``SpectralField`` or calls ``inverse_transform``,
when ``(2.0 * np.pi) **`` is spelled anywhere but in
``spectral._two_pi_pow`` and ``evolution.KERNEL_SCALE``, when an inverse FFT
(``ifft*``, ``irfft*``) is named anywhere but in ``spectral._ifft``, or when
a forward FFT (``fft*``, ``rfft*``) is named anywhere but in
``spectral._fft``.

Realness has one exact test, ``spectral._hermitian``: it is defined there
only, and its callers are the node engine and
``evolution._kernel_multiplier``, which tests each kernel multiplier once
for every kernel built from it.  The residue rule
``evolution._drop_residue`` is left to ``apply_evolution`` alone.

The Parseval weights and scale of an exponent-2 norm have one owner,
``spectral._energies``; ``lp_decomp._multiplied_norms`` alone calls it, and
only the three norms ``besov_norm0``, ``sobolev_norm`` and
``block_energy_table`` call ``_multiplied_norms``.

Coordinate stacks are built only where a symbol that is not a built-in
meets the lattice: ``GridSpec.xi_stack`` is called in
``symbols._on_lattice`` only, and no module contracts a stack with
``np.tensordot``.

The block budget ``spectral._CHUNK_BYTES`` is read only by
``spectral._pieces``, which cuts every piece-wise loop, and by
``spectral._power_sum``, which keeps numpy's pairwise split.  Cached arrays
are made read-only by ``spectral._frozen`` alone.
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


def _names(pattern):
    """node names a transform whose name fully matches pattern: ``<x>.fft.<name>``,
    such as np.fft.irfftn, or a bare imported name (the module ``np.fft``
    itself, fftshift, ifftshift and fftfreq are not transforms)."""
    def is_site(node):
        if isinstance(node, ast.Attribute):
            fft_module = isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
            name = node.attr if fft_module else None
        else:
            name = getattr(node, "id", None)
        return name is not None and re.fullmatch(pattern, name) is not None
    return is_site


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


def test_inverse_ffts_have_one_owner():
    sites = {(p.name, name) for p in MODULES for name in _sites(p, _names(r"i(r)?fft(n|2)?"))}
    assert sites == {("spectral.py", "_ifft")}


def test_numpy_fft_transform_references_at_most_four():
    # the design metric, counted as ROADMAP counts it:
    # grep -o 'np\.fft\.\(i\|r\|ir\)\?fftn\?\b' src/speclp/*.py | wc -l
    pattern = re.compile(r"np\.fft\.(i|r|ir)?fftn?\b")
    refs = [m.group() for p in MODULES for m in pattern.finditer(p.read_text())]
    assert 0 < len(refs) <= 4, refs


def test_forward_ffts_have_one_owner():
    sites = {(p.name, name) for p in MODULES for name in _sites(p, _names(r"(r)?fft(n|2)?"))}
    assert sites == {("spectral.py", "_fft")}


@pytest.mark.parametrize("module, function", [("gfunction.py", "g_function"),
                                              ("kernel_audit.py", "hormander_report")])
def test_node_engines_take_the_synthesis_factor_from_spectral(module, function):
    fn = dict(_functions(_tree(SRC / module)))[function]
    assert any(isinstance(n, ast.Call) and _called_name(n) == "_two_pi_pow"
               for n in ast.walk(fn))


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _called_name(node) == name


def test_one_hermitian_test_in_spectral():
    defined = {(p.name, name) for p in MODULES for name, _ in _functions(_tree(p))
               if name.rsplit(".", 1)[-1] == "_hermitian"}
    assert defined == {("spectral.py", "_hermitian")}
    callers = {(p.name, name) for p in MODULES for name in _sites(p, _calls("_hermitian"))}
    assert callers == {("gfunction.py", "_node_fields"), ("evolution.py", "_kernel_multiplier")}


def test_one_parseval_route_in_spectral():
    defined = {(p.name, name) for p in MODULES for name, _ in _functions(_tree(p))
               if name.rsplit(".", 1)[-1] in ("_energies", "_multiplied_norms")}
    assert defined == {("spectral.py", "_energies"), ("lp_decomp.py", "_multiplied_norms")}
    callers = {(p.name, name) for p in MODULES for name in _sites(p, _calls("_energies"))}
    assert callers == {("lp_decomp.py", "_multiplied_norms")}
    callers = {(p.name, name) for p in MODULES
               for name in _sites(p, _calls("_multiplied_norms"))}
    assert callers == {("lp_decomp.py", "besov_norm0"), ("lp_decomp.py", "sobolev_norm"),
                       ("lp_decomp.py", "block_energy_table")}


def test_residue_rule_only_for_evolutions():
    callers = {(p.name, name) for p in MODULES for name in _sites(p, _calls("_drop_residue"))}
    assert callers == {("evolution.py", "apply_evolution")}


def test_coordinate_stacks_only_for_symbols():
    callers = {(p.name, name) for p in MODULES for name in _sites(p, _calls("xi_stack"))}
    assert callers == {("symbols.py", "_on_lattice")}
    def names_tensordot(node):
        return (getattr(node, "attr", None) or getattr(node, "id", None)) == "tensordot"

    tensordots = {(p.name, name) for p in MODULES for name in _sites(p, names_tensordot)}
    assert not tensordots, f"tensordot in {sorted(tensordots)}"


def test_one_block_budget_rule_in_spectral():
    def reads_budget(node):
        # a Name, an Attribute or an imported alias, but not the definition
        names = {getattr(node, k, None) for k in ("id", "attr", "name")}
        return "_CHUNK_BYTES" in names and not isinstance(getattr(node, "ctx", None), ast.Store)

    readers = {(p.name, name) for p in MODULES for name in _sites(p, reads_budget)}
    assert readers == {("spectral.py", "_pieces"), ("spectral.py", "_power_sum")}


def test_one_seal_for_cached_arrays_in_spectral():
    sealers = {(p.name, name) for p in MODULES for name in _sites(p, _calls("setflags"))}
    assert sealers == {("spectral.py", "_frozen")}
