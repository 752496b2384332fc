"""The Gauss rules the library builds with numpy alone, against mpmath.

``evolution._legendre`` (Newton's method on the Legendre recurrence) and
``gfunction._jacobi`` (Golub-Welsch nodes for the weight (1 + x)^beta,
polished by the same Newton step) feed every time integral and every window.
The reference takes each node to 40 digits by Newton's method on the
three-term recurrence in mpmath, with P_n' carried through the same pass by
the recurrence differentiated term by term (not the derivative identity the
library uses), and its weight 2^(beta+1) / ((1 - x^2) P_n'(x)^2).  Each bound
is the error measured on numpy 2.4.6, and is at most scipy.special's own
error against the same reference over the same orders (Legendre 8-32:
6.4e-13, 128: 5.5e-11; Jacobi 2-16: 3.8e-13 in the weights).
"""

import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from speclp.errors import QuadratureError
from speclp.evolution import _gauss_rule, _legendre
from speclp.gfunction import _jacobi

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _recurrence(n, beta):
    """(a_j, b_j, c_j), j = 2..n, of the three-term recurrence
    P_j = (a_j x - b_j) P_(j-1) - c_j P_(j-2) of P_j^(0, beta), in mpmath."""
    coefs = []
    for j in range(2, n + 1):
        c = 2 * j + beta
        den = 2 * j * (j + beta) * (c - 2)
        coefs.append(((c - 1) * c * (c - 2) / den, (c - 1) * beta * beta / den,
                      2 * (j - 1) * (j + beta - 1) * c / den))
    return coefs


def _jacobi_with_derivative(coefs, beta, x):
    """P_n^(0, beta)(x) and its derivative, n >= 1, in one pass of the
    recurrence with the coefficients ``coefs`` and of its term-by-term
    derivative P_j' = (a_j x - b_j) P_(j-1)' + a_j P_(j-1) - c_j P_(j-2)'."""
    p0, p1 = mpmath.mpf(1), 1 + (beta + 2) * (x - 1) / 2
    d0, d1 = mpmath.mpf(0), (beta + 2) / 2
    for a, b, c in coefs:
        g = a * x - b
        p0, p1, d0, d1 = p1, g * p1 - c * p0, d1, g * d1 + a * p1 - c * d0
    return p1, d1


def reference_rule(n, beta, start):
    """40-digit nodes and weights, by Newton's method from the increasing
    ``start``."""
    with mpmath.workdps(40):
        beta = mpmath.mpf(beta)
        coefs = _recurrence(n, beta)
        nodes, weights = [], []
        for x in start:
            x = mpmath.mpf(float(x))
            for _ in range(2):  # from 1e-16, two quadratic steps pass 1e-40
                p, dp = _jacobi_with_derivative(coefs, beta, x)
                x -= p / dp
            dp = _jacobi_with_derivative(coefs, beta, x)[1]
            nodes.append(x)
            weights.append(2 ** (beta + 1) / ((1 - x * x) * dp * dp))
        # distinct roots, so no start converged onto its neighbour's root
        assert all(b - a > mpmath.mpf(10) ** -30 for a, b in zip(nodes, nodes[1:]))
        return nodes, weights


def rule_errors(nodes, weights, ref_nodes, ref_weights):
    """Largest absolute node error and largest relative weight error."""
    assert np.all(np.diff(nodes) > 0)
    node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(nodes, ref_nodes))
    weight_err = max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(weights, ref_weights))
    return float(node_err), float(weight_err)


@pytest.mark.parametrize("order, weight_bound", [(n, 5e-14) for n in range(8, 33)] + [(128, 3e-13)])
def test_legendre_matches_mpmath(order, weight_bound):
    nodes, weights = _legendre(order)
    # the rule is mirrored, so the nonnegative half carries every error
    half = slice(order // 2, None)
    ref_nodes, ref_weights = reference_rule(order, 0, nodes[half])
    node_err, weight_err = rule_errors(nodes[half], weights[half], ref_nodes, ref_weights)
    assert node_err <= 1e-16
    assert weight_err <= weight_bound


@pytest.mark.parametrize("beta", [-0.75, 0.0, 1.0, 3.0, 5.0, 7.0])
def test_jacobi_matches_mpmath(beta):
    for order in range(2, 17):
        nodes, weights = _jacobi(order, beta)
        node_err, weight_err = rule_errors(nodes, weights, *reference_rule(order, beta, nodes))
        assert node_err <= 1.5e-16, order
        assert weight_err <= 2.5e-14, order


@pytest.mark.parametrize("order", [1, 2, 7, 16, 33])
def test_legendre_is_mirrored_and_read_only(order):
    nodes, weights = _legendre(order)
    assert nodes.size == weights.size == order
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert abs(weights.sum() - 2.0) <= 1e-15
    if order % 2:
        assert nodes[order // 2] == 0.0 and not np.signbit(nodes[order // 2])


def test_order_one_rules_are_exact():
    assert _legendre(1)[0].tolist() == [0.0] and _legendre(1)[1].tolist() == [2.0]
    # P_1^(0, beta) has its root at beta / (beta + 2); the weight is the mass 2^(b+1)/(b+1)
    x, w = _jacobi(1, 3.0)
    assert x[0] == pytest.approx(0.6, rel=1e-15) and w[0] == pytest.approx(4.0, rel=1e-15)


def test_newton_that_cannot_converge_is_named():
    with pytest.raises(QuadratureError, match="order 4 did not converge"):
        _gauss_rule(4, 0.0, np.array([np.nan, 0.5]))


def _run(script, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
               **env)
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout.strip()


def test_rule_bytes_do_not_depend_on_blas_threads():
    # the Jacobi rule starts from LAPACK's eigenvalues; criterion 7's window
    # takes its bottom panel from it
    script = ("import hashlib\n"
              "from speclp.acceptance import TWINS\n"
              "from speclp.evolution import _legendre\n"
              "from speclp.gfunction import _jacobi\n"
              "digest = hashlib.sha256()\n"
              "for order in (8, 11, 15, 16, 128):\n"
              "    digest.update(b''.join(a.tobytes() for a in _legendre(order)))\n"
              "for order in (2, 11, 15, 16):\n"
              "    for beta in (-0.75, 0.0, 1.0, 7.0):\n"
              "        digest.update(b''.join(a.tobytes() for a in _jacobi(order, beta)))\n"
              "w = TWINS[7].window()\n"
              "digest.update(w.nodes.tobytes() + w.weights.tobytes())\n"
              "print(digest.hexdigest())\n")
    digests = [_run(script, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n) for n in ("1", "2")]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_import_loads_no_scipy():
    script = ("import sys\n"
              "import speclp, speclp.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _run(script) == "[]"
