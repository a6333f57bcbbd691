import itertools
import math

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freeroots import InputError, Supergraph
from freeroots.heaps import super_lyndon_heaps
from freeroots.multiplicity import (moebius, divisors, mult_free_root,
                                    free_roots_up_to, verify_pbw,
                                    verify_cartier_foata,
                                    linear_coefficient_magnitude)
from freeroots.supergraph import is_connected_support, weight_parity


def test_moebius():
    values = [moebius(n) for n in range(1, 13)]
    assert values == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


# ---------------------------------------------------------------------------
# Parity.

def test_parity_examples(tree6):
    assert weight_parity(tree6, (0, 0, 3, 0, 0, 3)) == 1
    assert weight_parity(tree6, (2, 1, 0, 1, 2, 0)) == 0


def test_parity_no_odd_vertices(p4):
    for k in itertools.product(range(3), repeat=4):
        assert weight_parity(p4, k) == 0


# ---------------------------------------------------------------------------
# Multiplicities.

def test_mult_odd_height_example(tree6):
    rec = mult_free_root(tree6, (0, 0, 3, 0, 0, 3), "both")
    assert rec.recursion == rec.closed_form == 3
    assert rec.parity == "odd" and rec.agree
    assert rec.linear_coefficient == Fraction(10, 3)


def test_mult_even_example(tree6_plain):
    rec = mult_free_root(tree6_plain, (2, 1, 0, 1, 2, 0), "both")
    assert rec.recursion == rec.closed_form == 1
    assert rec.parity == "even"


def test_mult_path_example(path6):
    assert mult_free_root(path6, (0, 0, 2, 1, 2, 1)) == 2


def test_gcd_one_shortcut(path6):
    k = (0, 0, 2, 1, 2, 1)
    assert mult_free_root(path6, k) == linear_coefficient_magnitude(path6, k)


def test_single_odd_vertex_discrepancy():
    g = Supergraph(["v"], psi=["v"])
    rec = mult_free_root(g, (2,), "both")
    assert rec.recursion == 1
    assert rec.closed_form == 0
    assert not rec.agree
    assert len(super_lyndon_heaps(g, (2,))) == 1


def test_non_free_weight_rejected(tree6):
    with pytest.raises(InputError):
        mult_free_root(tree6, (2, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        mult_free_root(tree6, (0, 0, 0, 0, 0, 0))


def test_disconnected_support_gives_zero(p4):
    assert mult_free_root(p4, (1, 0, 1, 0)) == 0
    assert mult_free_root(p4, (1, 0, 1, 0), "closed_form") == 0


def test_mult_equals_heap_count_sweep():
    graphs = [
        Supergraph(["a", "b", "c"], [(0, 1), (1, 2)], psi=["a"]),
        Supergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], psi=["b", "c"]),
        Supergraph(["a", "b"], [(0, 1)], psi=["a", "b"]),
    ]
    for g in graphs:
        for k in itertools.product(range(4), repeat=g.n):
            if not (0 < sum(k) <= 6) or not is_connected_support(g, k):
                continue
            assert mult_free_root(g, k) == len(super_lyndon_heaps(g, k)), (g, k)


# ---------------------------------------------------------------------------
# Tables.

def test_p4_table_is_the_ten_connected_subgraphs(p4):
    table = free_roots_up_to(p4, (1, 1, 1, 1))
    assert len(table.entries) == 10
    assert all(r.recursion == 1 for r in table.entries.values())


def test_edgeless_table_only_singletons():
    g = Supergraph(["a", "b", "c"])
    table = free_roots_up_to(g, (2, 2, 2))
    assert sorted(table.entries) == [(0, 0, 1), (0, 0, 2), (0, 1, 0),
                                     (0, 2, 0), (1, 0, 0), (2, 0, 0)]


def test_table_matches_heap_counts(tree6):
    table = free_roots_up_to(tree6, (1, 1, 2, 1, 1, 2))
    assert table.entries
    for w, rec in table.entries.items():
        assert rec.recursion == len(super_lyndon_heaps(tree6, w))


def test_table_discrepancy_report():
    g = Supergraph(["v"], psi=["v"])
    table = free_roots_up_to(g, (4,))
    flagged = {r.weight for r in table.discrepancies()}
    assert (2,) in flagged


# ---------------------------------------------------------------------------
# Series oracles.

def test_pbw_single_even_vertex():
    g = Supergraph(["v"])
    assert verify_pbw(g, (7,)).ok


def test_pbw_single_odd_vertex():
    # heap series 1 + x + x^2 + ... against (1 + x) / (1 - x^2)
    g = Supergraph(["v"], psi=["v"])
    assert verify_pbw(g, (7,)).ok


def test_pbw_detects_wrong_dimension(monkeypatch):
    """The check is not vacuous: corrupt one dimension and it must fail."""
    import freeroots.multiplicity as mm
    g = Supergraph(["v"], psi=["v"])
    real = mm.super_lyndon_heaps

    def corrupted(graph, k):
        out = real(graph, k)
        if tuple(k) == (2,):
            return ()
        return out

    monkeypatch.setattr(mm, "super_lyndon_heaps", corrupted)
    report = mm.verify_pbw(g, (4,))
    assert not report.ok and report.first_mismatch is not None


def test_cartier_foata_single_vertex():
    g = Supergraph(["v"])
    assert verify_cartier_foata(g, (6,)).ok


def test_cartier_foata_free_monoid():
    g = Supergraph(["a", "b"], [(0, 1)])
    assert verify_cartier_foata(g, (4, 4)).ok


def test_series_oracles_on_p4(p4_odd):
    assert verify_pbw(p4_odd, (2, 2, 2, 2)).ok
    assert verify_cartier_foata(p4_odd, (2, 2, 2, 2)).ok


def test_series_oracles_on_tree(tree6):
    cap = (1, 1, 2, 1, 1, 2)
    assert verify_pbw(tree6, cap).ok
    assert verify_cartier_foata(tree6, cap).ok


def test_pbw_on_tree_full_cap(tree6):
    assert verify_pbw(tree6, (1, 1, 3, 1, 1, 3)).ok


def test_positive_mult_characterizes_connected_weights():
    """Connected support carries a root, except stacked single vertices.

    On one vertex the generator alone spans everything: an even vertex
    only has multiplicity at height 1, an odd one also at height 2.  With
    two or more support vertices, connected means positive multiplicity.
    """
    g = Supergraph(["a", "b", "c"], [(0, 1), (1, 2)], psi=["c"])
    for k in itertools.product(range(4), repeat=3):
        if not any(k):
            continue
        m = mult_free_root(g, k)
        sup = [i for i, x in enumerate(k) if x]
        if not is_connected_support(g, k):
            expected_positive = False
        elif len(sup) > 1:
            expected_positive = True
        else:
            height = k[sup[0]]
            odd = sup[0] in g.psi
            expected_positive = height == 1 or (height == 2 and odd)
        assert (m > 0) == expected_positive, k


def test_zero_one_weights_carry_roots_iff_connected():
    g = Supergraph(["a", "b", "c", "d"], [(0, 1), (1, 2)], psi=["a", "d"])
    for k in itertools.product((0, 1), repeat=4):
        if not any(k):
            continue
        assert (mult_free_root(g, k) > 0) == is_connected_support(g, k), k


# ---------------------------------------------------------------------------
# Differential test on random supergraphs.

@st.composite
def supergraphs_with_free_connected_weights(draw, max_n=5, max_ht=5):
    """A supergraph on at most ``max_n`` vertices with random psi, psi0 and
    real vertices, and a free weight with connected support of height at
    most ``max_ht``, grown one letter at a time next to the support."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    psi = draw(st.sets(st.integers(0, n - 1)))
    psi0 = draw(st.sets(st.sampled_from(sorted(psi)))) if psi else set()
    even = [v for v in range(n) if v not in psi0]
    real = draw(st.sets(st.sampled_from(even))) if even else set()
    graph = Supergraph("abcde"[:n], edges, psi=psi, real=real, psi0=psi0)
    bounded = graph.real | graph.psi0
    k = [0] * n
    k[draw(st.integers(0, n - 1))] = 1
    height = draw(st.sampled_from(range(max_ht, 0, -1)))  # tallest first
    for step in draw(st.lists(st.integers(0, max_n - 1), min_size=height - 1,
                              max_size=height - 1)):
        options = [v for v in range(n)
                   if (k[v] or any(k[u] for u in range(n) if graph.has_edge(u, v)))
                   and not (v in bounded and k[v])]
        if not options:
            break
        k[options[step % len(options)]] += 1
    return graph, tuple(k)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(supergraphs_with_free_connected_weights())
def test_recursion_matches_super_lyndon_count_on_random_supergraphs(case):
    graph, k = case
    assert is_connected_support(graph, k)
    assert mult_free_root(graph, k, method="recursion") == len(super_lyndon_heaps(graph, k))
    record = mult_free_root(graph, k, method="both")
    assert record.agree == (record.closed_form == record.recursion)
    # Every sign s_l is +1, and the methods must agree, unless some even l
    # has an odd sub-weight k/l.
    odd_square = any(weight_parity(graph, tuple(x // l for x in k))
                     for l in divisors(math.gcd(*k)) if l % 2 == 0)
    assert odd_square or record.agree

