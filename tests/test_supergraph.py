import itertools
import random

import pytest
from fractions import Fraction

from freeroots import (Supergraph, BkmSupermatrix, InputError,
                       validate_supermatrix, symmetrizer, quasi_dynkin,
                       is_free_weight, is_connected_support, join_graph,
                       independent_sets, graph_from_document, parse_weight,
                       enumerate_heaps, mult_free_root)
from freeroots.supergraph import plain, weights_up_to, support, ht
from conftest import MALFORMED_DOCUMENTS


def test_duplicate_vertex_names_rejected():
    with pytest.raises(InputError):
        Supergraph(["a", "a"])


def test_self_loop_rejected():
    with pytest.raises(InputError):
        Supergraph(["a", "b"], [("a", "a")])


def test_psi0_outside_psi_rejected():
    with pytest.raises(InputError):
        Supergraph(["a", "b"], psi=["a"], psi0=["b"])


def test_real_psi0_disjoint():
    with pytest.raises(InputError):
        Supergraph(["a"], psi=["a"], real=["a"], psi0=["a"])


# ---------------------------------------------------------------------------
# Supermatrix validation.

def test_tree6_matrix_valid(tree6_matrix):
    m = BkmSupermatrix(["1", "2", "3", "4", "5", "6"], tree6_matrix, psi=["3", "5"])
    assert validate_supermatrix(m) == []
    d = symmetrizer(m)
    assert d is not None and min(d) == 1 and all(x > 0 for x in d)
    for i in range(6):
        for j in range(6):
            assert d[i] * m[i, j] == d[j] * m[j, i]


def test_condition3_violation():
    m = BkmSupermatrix(["1", "2"], [[2, -1], [0, 2]])
    bad = validate_supermatrix(m)
    assert any("condition 3" in v for v in bad)


def test_condition5_violation():
    m = BkmSupermatrix(["1", "2"], [[2, -1], [-1, -1]], psi=["1"])
    bad = validate_supermatrix(m)
    assert any("condition 5" in v for v in bad)


def test_condition1_violation():
    m = BkmSupermatrix(["1"], [[1]])
    assert any("condition 1" in v for v in validate_supermatrix(m))


def test_condition2_violation():
    m = BkmSupermatrix(["1", "2"], [[2, 1], [1, 2]])
    assert any("condition 2" in v for v in validate_supermatrix(m))


def test_condition4_violation():
    m = BkmSupermatrix(["1", "2"], [[2, "-1/2"], [-1, -1]])
    assert any("condition 4" in v for v in validate_supermatrix(m))


def test_symmetrizability_violation():
    # the cycle 1-2-3 forces d2 = d1/2 and d3 = d1, inconsistent on edge 2-3
    m = BkmSupermatrix(["1", "2", "3"],
                       [[-1, -1, -1], [-2, -1, -1], [-1, -1, -1]])
    assert any("condition 6" in v for v in validate_supermatrix(m))


def test_validation_reports_every_problem():
    m = BkmSupermatrix(["1", "2"], [[1, 1], [0, 2]])
    bad = validate_supermatrix(m)
    assert len(bad) >= 3  # conditions 1, 2 and 3 all broken


# ---------------------------------------------------------------------------
# Quasi Dynkin extraction.

def test_quasi_dynkin_path(path6_matrix):
    m = BkmSupermatrix(["1", "2", "3", "4", "5", "6"], path6_matrix, psi=["3", "5"])
    g = quasi_dynkin(m)
    assert sorted(g.edges) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert g.psi == frozenset({2, 4})
    assert g.real == frozenset({0, 3})
    assert g.psi0 == frozenset()


def test_quasi_dynkin_diagonal():
    m = BkmSupermatrix(["a", "b", "c"], [[-1, 0, 0], [0, -2, 0], [0, 0, 2]])
    g = quasi_dynkin(m)
    assert g.edges == frozenset()
    assert g.real == frozenset({2})


def test_quasi_dynkin_single_edge():
    m = BkmSupermatrix(["a", "b"], [[-1, -1], [-1, -1]])
    g = quasi_dynkin(m)
    assert g.edges == frozenset({(0, 1)})


def test_quasi_dynkin_psi0():
    m = BkmSupermatrix(["a", "b"], [[0, -1], [-1, -1]], psi=["a"])
    g = quasi_dynkin(m)
    assert g.psi0 == frozenset({0})


def test_quasi_dynkin_rejects_invalid():
    m = BkmSupermatrix(["1", "2"], [[2, -1], [0, 2]])
    with pytest.raises(InputError):
        quasi_dynkin(m)


# ---------------------------------------------------------------------------
# Weight predicates.

def test_free_weight_examples(tree6):
    assert is_free_weight(tree6, (0, 0, 3, 0, 0, 3))
    assert not is_free_weight(tree6, (2, 0, 0, 0, 0, 0))


def test_free_weight_all_imaginary(tree6_plain):
    assert is_free_weight(tree6_plain, (5, 4, 3, 2, 1, 7))


def test_connected_support(p4):
    assert not is_connected_support(p4, (1, 0, 1, 0))
    assert is_connected_support(p4, (0, 0, 5, 0))
    assert not is_connected_support(p4, (0, 0, 0, 0))


def test_p4_has_ten_connected_01_weights(p4):
    found = [k for k in itertools.product((0, 1), repeat=4)
             if is_connected_support(p4, k)]
    assert len(found) == 10


# ---------------------------------------------------------------------------
# Join graphs and independent sets.

def test_join_two_cliques_fully_joined():
    g = Supergraph(["3", "6"], [(0, 1)])
    j = join_graph(g, (3, 3))
    assert j.n == 6
    assert len(j.edges) == 15  # complete graph on 6 vertices


def test_join_all_ones_is_induced_subgraph(p4):
    j = join_graph(p4, (1, 1, 1, 1))
    assert sorted(j.edges) == sorted(p4.edges)
    j2 = join_graph(p4, (0, 1, 1, 0))
    assert j2.n == 2 and len(j2.edges) == 1


def test_join_size(p4):
    assert join_graph(p4, (2, 1, 1, 1)).n == 5


def test_join_empty_support_rejected(p4):
    with pytest.raises(InputError):
        join_graph(p4, (0, 0, 0, 0))


def test_independent_sets_triangle():
    t = Supergraph(["1", "2", "3"], [(0, 1), (1, 2), (0, 2)])
    assert independent_sets(t) == [(), (0,), (1,), (2,)]


def test_independent_sets_edgeless():
    g = Supergraph(["a", "b", "c"])
    assert len(independent_sets(g)) == 8


def test_independent_sets_p4_brute(p4):
    # oracle: test all 15 nonempty subsets by hand; 7 are independent,
    # 8 sets in total once the empty set is counted
    brute = []
    for r in range(1, 5):
        for sub in itertools.combinations(range(4), r):
            if all(not p4.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                brute.append(sub)
    got = independent_sets(p4)
    assert sorted(s for s in got if s) == sorted(brute)
    assert len(brute) == 7 and len(got) == 8


# ---------------------------------------------------------------------------
# JSON input.

def test_document_with_matrix(tree6_matrix, tree6):
    doc = {"vertices": ["1", "2", "3", "4", "5", "6"], "psi": ["3", "5"],
           "matrix": tree6_matrix}
    g, m = graph_from_document(doc)
    assert g == tree6
    assert m is not None


def test_document_matrix_and_edges_conflict(tree6_matrix):
    doc = {"vertices": ["1", "2"], "edges": [["1", "2"]], "matrix": [[2, -1], [-1, 2]]}
    with pytest.raises(InputError):
        graph_from_document(doc)


def test_document_plain_graph_defaults():
    g, m = graph_from_document({"vertices": ["a", "b"], "edges": [["a", "b"]]})
    assert m is None and g.real == frozenset() and g.psi0 == frozenset()


def test_document_bad_rational():
    with pytest.raises(InputError):
        graph_from_document({"vertices": ["a"], "matrix": [["x"]]})


def test_document_unknown_key():
    with pytest.raises(InputError):
        graph_from_document({"vertices": ["a"], "colour": 1})


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS)
def test_document_of_wrong_shape(doc):
    with pytest.raises(InputError):
        graph_from_document(doc)


def test_parse_weight(tree6):
    assert parse_weight(tree6, "0,0,3,0,0,3") == (0, 0, 3, 0, 0, 3)
    with pytest.raises(InputError):
        parse_weight(tree6, "1,2,3")
    with pytest.raises(InputError):
        parse_weight(tree6, "0,0,-1,0,0,0")
    with pytest.raises(InputError):
        parse_weight(tree6, "a,b,c,d,e,f")


@pytest.mark.parametrize("k", [(1.5, 1), (2.9, 1), ("x", 1), ("1", 1), 5])
def test_non_integer_weight_is_input_error(k):
    g = Supergraph(["a", "b"], [(0, 1)])
    for call in (mult_free_root, enumerate_heaps):
        with pytest.raises(InputError):
            call(g, k)


# ---------------------------------------------------------------------------
# Structural helpers used by the acceptance sweeps.

def test_with_order_preserves_adjacency(path6):
    g = path6.with_order([2, 0, 1, 3, 4, 5])
    # vertex "3" is now index 0 and keeps its neighbours "2" and "4"
    assert g.names[0] == "3"
    pairs = {(g.names[i], g.names[j]) for i, j in g.edges}
    old = {(path6.names[i], path6.names[j]) for i, j in path6.edges}
    norm = lambda s: {tuple(sorted(p)) for p in s}
    assert norm(pairs) == norm(old)


def test_plain_strips_annotations(tree6):
    p = plain(tree6)
    assert p.psi == frozenset() and p.real == frozenset()
    assert p.edges == tree6.edges and p.names == tree6.names
    assert plain(p) == p and plain(p).is_plain()


def test_induced_support_invariance(tree6_plain):
    """Computations only see the induced support subgraph.

    This reduction backs the deduplication in the acceptance sweeps, so it
    is pinned here on a nontrivial example.
    """
    from freeroots import enumerate_heaps, enumerate_super_lyndon_heaps
    from freeroots.chromatic import k_chromatic_direct
    from freeroots.multiplicity import mult_free_root
    rng = random.Random(7)
    for _ in range(10):
        k = tuple(rng.randint(0, 2) for _ in range(6))
        if not any(k):
            continue
        sup = support(k)
        sub = tree6_plain.induced(sup)
        kk = tuple(k[i] for i in sup)
        assert len(enumerate_heaps(tree6_plain, k)) == len(enumerate_heaps(sub, kk))
        assert len(enumerate_super_lyndon_heaps(tree6_plain, k)) == \
            len(enumerate_super_lyndon_heaps(sub, kk))
        assert k_chromatic_direct(tree6_plain, k) == k_chromatic_direct(sub, kk)
        if is_connected_support(tree6_plain, k):
            assert mult_free_root(tree6_plain, k) == mult_free_root(sub, kk)


def test_symmetrizer_none_for_asymmetric_pattern():
    m = BkmSupermatrix(["1", "2"], [[2, -1], [0, 2]])
    assert symmetrizer(m) is None
