import copy
import gc
import itertools
import pickle
import random
import re
import sys
import threading

import pytest
from fractions import Fraction

from freeroots import (Supergraph, BkmSupermatrix, InputError,
                       validate_supermatrix, symmetrizer, quasi_dynkin,
                       is_free_weight, is_connected_support, join_graph,
                       independent_sets, graph_from_document, parse_weight,
                       enumerate_heaps, mult_free_root)
from freeroots import clear_caches, supergraph
from freeroots.chromatic import linear_coefficient
from freeroots.supergraph import plain, weights_up_to, support, ht, check_weight
from conftest import MALFORMED_DOCUMENTS
from heap_oracles import relabel
from test_chromatic import graphs_up_to_4_and_samples


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


def test_independent_sets_counts_a_repeated_vertex_once():
    g = Supergraph(["a", "b"], [("a", "b")])
    assert independent_sets(g, ["a", "a"]) == [(), (0,)]
    assert independent_sets(g, ["a", 0]) == [(), (0,)]
    assert independent_sets(g, ["b", "a", "b"]) == [(), (0,), (1,)]


def test_independent_sets_read_restrict_as_a_vertex_collection():
    h = Supergraph(["ab", "c"], [("ab", "c")])
    assert independent_sets(h, ["ab"]) == [(), (0,)]
    assert independent_sets(h, ["c", "ab", "c"]) == [(), (0,), (1,)]
    with pytest.raises(InputError, match="the string 'ab'"):
        independent_sets(h, "ab")
    with pytest.raises(InputError, match="must be iterable"):
        independent_sets(h, 5)


def pairwise_independent_sets(graph, verts):
    """The oracle: every subset of ``verts`` by size, then lexicographically,
    kept when no pair of its vertices is an edge."""
    return [sub for r in range(len(verts) + 1) for sub in itertools.combinations(verts, r)
            if not any(graph.has_edge(a, b) for a, b in itertools.combinations(sub, 2))]


def test_independent_set_walk_matches_the_pairwise_scan():
    for graph in graphs_up_to_4_and_samples():
        assert independent_sets(graph) == pairwise_independent_sets(graph, range(graph.n))
        for r in range(graph.n + 1):
            for sup in itertools.combinations(range(graph.n), r):
                expected = pairwise_independent_sets(graph, sup)
                names = [graph.names[v] for v in sup]
                assert independent_sets(graph, sup) == expected
                assert independent_sets(graph, names[::-1] + names[:1]) == expected


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


@pytest.mark.parametrize("k", [(1.5, 1), (2.9, 1), ("x", 1), ("1", 1), (True, 1),
                               (1, True), (None, 1), 5])
def test_non_integer_weight_is_input_error(k):
    g = Supergraph(["a", "b"], [(0, 1)])
    for call in (mult_free_root, enumerate_heaps, linear_coefficient):
        with pytest.raises(InputError, match=re.escape(f"weight entries must be integers, got {k!r}")):
            call(g, k)
    for bad, message in (((0, -1), "negative weight entry in (0, -1)"),
                         ((1, 1, 1), "weight has 3 entries, graph has 2 vertices")):
        with pytest.raises(InputError) as info:
            check_weight(g, bad)
        assert str(info.value) == message


class _Index:
    """An integer-like object that is not an int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


@pytest.mark.parametrize("k", [(x for x in (1, 2)), [1, 2], (_Index(1), 2), [1, _Index(2)]],
                         ids=["generator", "list", "index-first", "index-last"])
def test_integer_like_weights_become_tuples_of_int(k):
    got = check_weight(Supergraph(["a", "b"], [(0, 1)]), k)
    assert got == (1, 2) and type(got) is tuple
    assert all(type(x) is int for x in got)


# ---------------------------------------------------------------------------
# Structural helpers used by the acceptance sweeps.

def test_relabel_preserves_adjacency(path6):
    g = relabel(path6, [2, 0, 1, 3, 4, 5])
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
    assert plain(p) == p and plain(plain(p)) is plain(p)


def test_induced_support_invariance(tree6_plain):
    """Computations only see the induced support subgraph.

    This reduction backs the deduplication in the acceptance sweeps, so it
    is pinned here on a nontrivial example.
    """
    from freeroots import enumerate_heaps, super_lyndon_heaps
    from freeroots.chromatic import k_chromatic_direct
    from freeroots.multiplicity import mult_free_root
    rng = random.Random(7)
    for _ in range(10):
        k = tuple(rng.randint(0, 2) for _ in range(6))
        if not any(k):
            continue
        sup = support(k)
        sub = relabel(tree6_plain, sup)
        kk = tuple(k[i] for i in sup)
        assert len(enumerate_heaps(tree6_plain, k)) == len(enumerate_heaps(sub, kk))
        assert len(super_lyndon_heaps(tree6_plain, k)) == \
            len(super_lyndon_heaps(sub, kk))
        assert k_chromatic_direct(tree6_plain, k) == k_chromatic_direct(sub, kk)
        if is_connected_support(tree6_plain, k):
            assert mult_free_root(tree6_plain, k) == mult_free_root(sub, kk)


def test_symmetrizer_none_for_asymmetric_pattern():
    m = BkmSupermatrix(["1", "2"], [[2, -1], [0, 2]])
    assert symmetrizer(m) is None


# ---------------------------------------------------------------------------
# Vertex indices: names or integers, nothing else.

BAD_VERTICES = [("x", "unknown vertex 'x'"), (7, "vertex index 7 out of range"),
                (-1, "vertex index -1 out of range"), (1.5, "1.5"), (2.9, "2.9"),
                (None, "None"), (True, "True")]


@pytest.mark.parametrize("v, message", BAD_VERTICES)
def test_bad_vertex_refused_everywhere(v, message):
    names = ["a", "b", "c"]
    calls = [lambda: Supergraph(names, [(0, v)]),
             lambda: Supergraph(names, [(v, 1)]),
             lambda: Supergraph(names, psi=[v]),
             lambda: Supergraph(names, real=[v]),
             lambda: Supergraph(names, psi=[0, 1, 2], psi0=[v]),
             lambda: Supergraph(names).index(v),
             lambda: BkmSupermatrix(names, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], psi=[v])]
    for call in calls:
        with pytest.raises(InputError, match=re.escape(message)):
            call()


BAD_CONSTRUCTIONS = {
    "string-edge": (lambda: Supergraph(["a", "b"], ["ab"]),
                    "an edge is a pair of vertices, got 'ab'"),
    "triple-edge": (lambda: Supergraph(["a", "b", "c"], [("a", "b", "c")]),
                    "an edge is a pair of vertices, got ('a', 'b', 'c')"),
    "single-edge": (lambda: Supergraph(["a", "b"], [("a",)]),
                    "an edge is a pair of vertices, got ('a',)"),
    "integer-edge": (lambda: Supergraph(["a", "b"], [0]), "an edge is a pair of vertices, got 0"),
    "integer-edges": (lambda: Supergraph(["a", "b"], 5), "edges must be iterable, got 5"),
    "integer-psi": (lambda: Supergraph(["a"], psi=5), "psi must be iterable, got 5"),
    "integer-vertices": (lambda: Supergraph(5), "the vertex list must be iterable, got 5"),
    "none-entry": (lambda: BkmSupermatrix(["a"], [[None]]), "bad matrix entry None"),
    "text-entry": (lambda: BkmSupermatrix(["a"], [["x"]]), "bad matrix entry 'x'"),
    "zero-denominator": (lambda: BkmSupermatrix(["a"], [["1/0"]]), "bad matrix entry '1/0'"),
    "infinite-entry": (lambda: BkmSupermatrix(["a"], [[float("inf")]]), "bad matrix entry inf"),
    "bool-entry": (lambda: BkmSupermatrix(["a"], [[True]]), "bad matrix entry True"),
    "float-entry": (lambda: BkmSupermatrix(["a"], [[0.1]]), "bad matrix entry 0.1"),
    "integer-row": (lambda: BkmSupermatrix(["a"], [2]), "a matrix row must be iterable, got 2"),
    "integer-matrix": (lambda: BkmSupermatrix(["a"], 2), "matrix entries must be iterable, got 2"),
    "integer-matrix-psi": (lambda: BkmSupermatrix(["a"], [[2]], psi=5),
                           "psi must be iterable, got 5"),
}


@pytest.mark.parametrize("call, message", BAD_CONSTRUCTIONS.values(), ids=BAD_CONSTRUCTIONS)
def test_bad_constructor_input_is_input_error(call, message):
    with pytest.raises(InputError, match=re.escape(message)):
        call()


STRING_VERTEX_SETS = {
    "psi": (lambda: Supergraph(["a", "b"], psi="ab"), "psi"),
    "psi-digits": (lambda: Supergraph(["0", "1", "2"], psi="10"), "psi"),
    "real": (lambda: Supergraph(["a", "b"], real="a"), "real"),
    "psi0": (lambda: Supergraph(["a", "b"], psi=["a"], psi0="a"), "psi0"),
    "matrix-psi": (lambda: BkmSupermatrix(["a", "b"], [[2, 0], [0, 2]], psi="b"), "psi"),
}


@pytest.mark.parametrize("call, what", STRING_VERTEX_SETS.values(), ids=STRING_VERTEX_SETS)
def test_a_string_is_not_a_set_of_vertices(call, what):
    """A string names one vertex, so it is refused where a set of them is
    asked for, not read as its characters."""
    with pytest.raises(InputError, match=f"^{what} is a collection of vertices, got the string"):
        call()


def test_a_string_vertex_list_is_one_vertex_per_character():
    assert Supergraph("ab", [("a", "b")], psi=["b"]) is Supergraph(["a", "b"], [(0, 1)], psi=[1])


def test_edges_are_pairs_in_any_container():
    g = Supergraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for edges in ([["a", "b"], ["c", "b"]], {(0, 1), (1, 2)}, (("a", 1), [2, "b"]),
                  [{"a", "b"}, frozenset((1, 2))], iter([(0, 1), (1, 2)])):
        assert Supergraph(["a", "b", "c"], edges) is g
    m = BkmSupermatrix(("a", "b"), ((2, "-1/2"), [Fraction(-1), -1]), psi={"b"})
    assert m.entries == ((2, Fraction(-1, 2)), (-1, -1)) and m.psi == {1}


@pytest.mark.parametrize("doc", [{"vertices": ["a", "b"], "psi": ["x"]},
                                 {"vertices": ["a", "b"], "psi": [7]}])
def test_matrix_documents_refuse_psi_like_graph_documents(doc):
    messages = []
    for d in (doc, {**doc, "matrix": [[2, 0], [0, 2]]}):
        with pytest.raises(InputError) as exc:
            graph_from_document(d)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# Canonical graphs: equal constructions are one object.

def test_equal_constructions_are_one_object():
    names = ["a", "b", "c", "d"]
    g = Supergraph(names, [(0, 1), (1, 2), (2, 3)], psi=[1, 3], real=[0])
    assert Supergraph(names, [("a", "b"), ("c", "b"), (3, "c")],
                      psi=["d", "b"], real=["a"]) is g
    assert Supergraph(tuple(names), {(3, 2), (2, 1), (1, 0)}, psi=(3, 1, 1),
                      real=[0]) is g
    assert Supergraph(names, g.edges, g.psi, g.real, g.psi0) is g
    assert Supergraph(names, g.edges, psi=[1, 3]) is not g


def test_involution_reorders_back_to_the_same_object(path6):
    p = (1, 0, 3, 2, 5, 4)
    assert relabel(relabel(path6, p), p) is path6
    assert relabel(path6, range(6)) is path6


def test_plain_is_the_canonical_plain_graph(path6, tree6, p4):
    for g in (path6, tree6, p4):
        assert plain(g) is Supergraph(g.names, g.edges)
    assert plain(p4) is p4


def test_copies_and_pickles_return_the_graph_itself(path6, tree6):
    for g in (path6, tree6, Supergraph(["x"])):
        assert pickle.loads(pickle.dumps(g)) is g
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert copy.deepcopy([g, g])[1] is g


def test_unreferenced_graphs_leave_the_table():
    gc.collect()
    before = len(supergraph._CANONICAL)
    for i in range(1000):
        Supergraph([f"throwaway{i}", "b"], [(0, 1)], psi=[0])
    gc.collect()
    assert len(supergraph._CANONICAL) == before


def test_clear_caches_keeps_live_graphs_canonical(path6):
    g = Supergraph(["s", "t", "u"], [(0, 1), (1, 2)], psi=["t"])
    mult_free_root(g, (1, 2, 1))
    clear_caches()
    assert Supergraph(["s", "t", "u"], [(1, 0), (2, 1)], psi=[1]) is g
    assert relabel(path6, range(6)) is path6


def test_threads_constructing_one_graph_get_one_object():
    """Eight threads build the same new graph, 200 graphs in turn.

    Every thread must get the one object for each graph; a lost race in
    the table would hand two threads distinct equal graphs.
    """
    rounds = 200
    barrier = threading.Barrier(8, timeout=60)
    results = [[] for _ in range(8)]

    def build(out):
        for r in range(rounds):
            barrier.wait()
            out.append(Supergraph([f"race{r}", "b", "c"], [(0, 1), (1, 2)], psi=[0]))

    threads = [threading.Thread(target=build, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == rounds for out in results)
    for r in range(rounds):
        assert len({id(out[r]) for out in results}) == 1, r
