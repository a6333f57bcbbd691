import json
import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from freeroots import Supergraph, clear_caches  # noqa: E402


@pytest.fixture(scope="session")
def tree6():
    """Six-vertex tree 1-2, 2-3, 2-4, 3-6, 4-5 with odd {3,5}, real {1,4}."""
    return Supergraph(["1", "2", "3", "4", "5", "6"],
                      [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4)],
                      psi=[2, 4], real=[0, 3])


@pytest.fixture(scope="session")
def tree6_plain():
    """The same tree in the plain regime (no real/psi0 annotations)."""
    return Supergraph(["1", "2", "3", "4", "5", "6"],
                      [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4)], psi=[2, 4])


@pytest.fixture(scope="session")
def path6():
    """Six-vertex path 1-2-3-4-5-6 with odd {3,5}, real {1,4}."""
    return Supergraph(["1", "2", "3", "4", "5", "6"],
                      [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                      psi=[2, 4], real=[0, 3])


@pytest.fixture(scope="session")
def p4():
    """Path on four vertices, all imaginary even."""
    return Supergraph(["1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3)])


@pytest.fixture(scope="session")
def p4_odd():
    """Path on four vertices with odd {1,2,3}."""
    return Supergraph(["1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3)],
                      psi=[0, 1, 2])


@pytest.fixture(scope="session")
def edge36():
    """Single edge 3-6 with 3 odd (the two-vertex core of the tree)."""
    return Supergraph(["3", "6"], [(0, 1)], psi=["3"])


TREE6_MATRIX = [
    [2, -1, 0, 0, 0, 0],
    [-1, -3, -4, -1, 0, 0],
    [0, -4, -4, 0, 0, -1],
    [0, -1, 0, 2, -1, 0],
    [0, 0, 0, -1, -2, 0],
    [0, 0, -1, 0, 0, -3],
]

PATH6_MATRIX = [
    [2, -1, 0, 0, 0, 0],
    [-1, -3, -1, 0, 0, 0],
    [0, -2, -4, -1, 0, 0],
    [0, 0, -1, 2, -1, 0],
    [0, 0, 0, -1, -2, -1],
    [0, 0, 0, 0, -1, -3],
]


# Graph documents of the wrong shape; each must be refused with InputError.
MALFORMED_DOCUMENTS = [
    {"vertices": ["a"], "matrix": 5},
    {"vertices": ["a"], "matrix": [5]},
    {"vertices": 5},
    {"vertices": ["a"], "psi": 3},
    {"vertices": ["a"], "psi": [True]},
    {"vertices": ["a", "b"], "edges": [["a"]]},
    {"vertices": ["a", "b"], "edges": "ab"},
    {"vertices": []},
    {"vertices": [], "matrix": []},
]


@pytest.fixture(scope="session")
def tree6_matrix():
    return TREE6_MATRIX


@pytest.fixture(scope="session")
def path6_matrix():
    return PATH6_MATRIX


@pytest.fixture()
def fresh_caches():
    """Caches emptied before and after a test that corrupts a cached kernel."""
    clear_caches()
    yield
    clear_caches()


def basis_document(command, inputs, basis) -> str:
    """The ``--json`` text of a basis command: the standard library's
    ``json.dumps`` of the document built from ``GradedBasis.to_json()``."""
    doc = {"certificates": [basis.certificate.to_json()], "command": command,
           "inputs": inputs, "result": basis.to_json()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def shifted_log_count(monkeypatch, w, shift):
    """``multiplicity._log_count`` with ``shift`` added at weight w; the
    chromatic routes keep the true counts."""
    import freeroots.multiplicity as mm
    real = mm._log_count

    def corrupted(graph, k):
        return real(graph, k) + (shift if k == w else 0)
    monkeypatch.setattr(mm, "_log_count", corrupted)


# Polynomials as Fraction coefficient lists, lowest degree first: the test
# side's own arithmetic, independent of the library's conversion.

def fraction_product(*factors) -> list[Fraction]:
    """The product of polynomials given as coefficient sequences."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def fraction_binomial(arg, d: int) -> list[Fraction]:
    """C(arg, d) = arg (arg-1) ... (arg-d+1) / d!, arg a coefficient sequence."""
    falling = fraction_product(*([arg[0] - j, *arg[1:]] for j in range(d)))
    return [c / math.factorial(d) for c in falling]
