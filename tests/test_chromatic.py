import collections
import itertools
import math
import os
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freeroots import InputError, Supergraph
from freeroots.chromatic import (RationalPoly, k_chromatic_direct, k_chromatic_join,
                                 k_chromatic_bond, bond_lattice,
                                 linear_coefficient, _nonempty_independent_sets,
                                 _choose, _from_binomial, _tuple_counts,
                                 _join_counts, _bond_counts)
from freeroots.multiplicity import mult_free_root
from freeroots.supergraph import (ht, is_connected_support, is_free_weight,
                                  support, independent_sets, load_graph, plain,
                                  weight_parity)

from conftest import fraction_binomial, fraction_product

SAMPLE_GRAPHS = os.path.join(os.path.dirname(__file__), "..", "sample_graphs")


def graphs_up_to_4_and_samples():
    """Every graph on at most 4 vertices, then the two sample graph files."""
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                yield Supergraph("abcd"[:n], edges)
    for name in ("path6.json", "tree6.json"):
        yield load_graph(os.path.join(SAMPLE_GRAPHS, name))[0]


# ---------------------------------------------------------------------------
# The output polynomial and the one conversion that builds it.

def test_poly_basics():
    p = RationalPoly((1, -3, 1, 0))  # q^2 - 3q + 1, the trailing zero dropped
    assert p.coeffs == (1, -3, 1) and p.degree() == 2
    assert p.coefficient(1) == -3 and p.coefficient(5) == 0
    assert p(3) == 1 and p(Fraction(1, 2)) == Fraction(-1, 4)
    assert RationalPoly(()).degree() == -1 and not RationalPoly((0, 0))


def test_output_poly_serializes_and_hashes():
    half = RationalPoly((Fraction(1, 2), 1, Fraction(3, 2)))
    assert half.to_json() == ["1/2", "1", "3/2"]
    assert half.pretty() == "3/2*q^2 + q + 1/2"
    same = RationalPoly(("1/2", 1, 1.5))
    assert same == half and hash(same) == hash(half)


def test_choose_q():
    """C(q, m) is the unit binomial count at m."""
    def unit(m):
        return _from_binomial((0,) * m + (1,))
    assert unit(0) == RationalPoly((1,))
    assert unit(1) == RationalPoly((0, 1))
    assert all(unit(2)(m) == m * (m - 1) // 2 for m in range(8))


def test_binomial_poly_negative_argument():
    """C(-q, 2) = q(q+1)/2, built as the bond route builds an odd block's
    factor: integer values at q = 0..2, their forward differences, one
    conversion."""
    values = [_choose(-q, 2) for q in range(8)]
    assert values == [m * (m + 1) // 2 for m in range(8)]
    counts = []
    diffs = values[:3]
    while diffs:
        counts.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert _from_binomial(counts) == RationalPoly((0, Fraction(1, 2), Fraction(1, 2)))


def test_factored_display():
    p = RationalPoly((0, 1, -2, 1))  # q(q-1)^2
    assert p.factored() == "q(q-1)^2"
    assert RationalPoly((1, 1)).factored() is None  # root at -1


def test_factored_nonzero_constant_is_its_value():
    assert RationalPoly((1,)).factored() == "1"
    assert RationalPoly((2,)).factored() == "2"
    assert RationalPoly((-1,)).factored() == "-1"
    assert RationalPoly((Fraction(1, 2),)).factored() == "1/2"
    assert RationalPoly(()).factored() is None


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from((-1, 0, 1)),
                max_size=10))
def test_from_binomial_is_the_binomial_sum(counts):
    """Signed counts too: the bond route's values can be negative."""
    counts = tuple(counts)
    poly = _from_binomial(counts)
    expected = [Fraction(0)] * len(counts)
    for m, c in enumerate(counts):
        for i, b in enumerate(fraction_binomial((0, 1), m)):
            expected[i] += c * b
    assert poly == RationalPoly(expected)
    top = max((m for m, c in enumerate(counts) if c), default=-1)
    assert poly.degree() == top
    for x in range(len(counts) + 2):
        assert poly(x) == sum(c * math.comb(x, m) for m, c in enumerate(counts))


# ---------------------------------------------------------------------------
# Classical chromatic polynomials: the k-chromatic polynomial at weight 1^n.

def chromatic_poly(graph):
    return k_chromatic_direct(graph, (1,) * graph.n)


def test_simple_small_graphs():
    assert chromatic_poly(Supergraph(["a"])) == RationalPoly((0, 1))
    edge = chromatic_poly(Supergraph(["a", "b"], [(0, 1)]))
    assert edge.factored() == "q(q-1)"
    tri = chromatic_poly(Supergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)]))
    assert tri.factored() == "q(q-1)(q-2)"


def test_simple_direct_matches_join_on_small_graphs():
    """Every graph on at most 4 vertices, at the all-ones weight."""
    for g in graphs_up_to_4_and_samples():
        if g.n <= 4:
            assert chromatic_poly(g) == k_chromatic_join(g, (1,) * g.n), g


def test_simple_counts_colorings():
    g = Supergraph(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    poly = chromatic_poly(g)
    for q in range(5):
        count = 0
        for colors in itertools.product(range(q), repeat=4):
            if all(colors[i] != colors[j] for i, j in g.edges):
                count += 1
        assert poly(q) == count


# ---------------------------------------------------------------------------
# Multicolouring polynomials.

def test_direct_two_blocks(edge36):
    poly = k_chromatic_direct(edge36, (3, 3))
    expected = fraction_product(fraction_binomial((0, 1), 3),
                                fraction_binomial((-3, 1), 3))
    assert poly == RationalPoly(expected)


def test_direct_multf0_value(tree6):
    poly = k_chromatic_direct(tree6, (2, 1, 0, 1, 2, 0))
    q_minus = [(-r, 1) for r in (0, 1, 1, 1, 2, 2)]  # q(q-1)^3(q-2)^2
    assert poly == RationalPoly(c / 4 for c in fraction_product(*q_minus))
    assert poly.factored() == "1/4 * q(q-1)^3(q-2)^2"


def test_direct_single_vertex():
    g = Supergraph(["v"])
    for m in range(1, 6):
        assert k_chromatic_direct(g, (m,)) == RationalPoly(fraction_binomial((0, 1), m))


def test_direct_counts_multicolorings(p4):
    k = (2, 1, 1, 2)
    poly = k_chromatic_direct(p4, k)
    for q in range(7):
        count = 0
        colors = list(itertools.combinations(range(q), 1))
        pairs = list(itertools.combinations(range(q), 2))
        for assign in itertools.product(pairs, colors, colors, pairs):
            ok = True
            for i, j in p4.edges:
                if set(assign[i]) & set(assign[j]):
                    ok = False
                    break
            if ok:
                count += 1
        assert poly(q) == count


def test_zero_weight_is_one(p4):
    assert k_chromatic_direct(p4, (0, 0, 0, 0)) == RationalPoly((1,))
    assert k_chromatic_join(p4, (0, 0, 0, 0)) == RationalPoly((1,))


def test_join_equals_direct_examples(edge36, tree6):
    assert k_chromatic_join(edge36, (3, 3)) == k_chromatic_direct(edge36, (3, 3))
    k = (2, 1, 0, 1, 2, 0)
    assert k_chromatic_join(tree6, k) == k_chromatic_direct(tree6, k)


def test_join_blowup_instance(p4):
    k = (2, 1, 1, 1)
    assert k_chromatic_join(p4, k) == k_chromatic_direct(p4, k)


def test_join_equals_direct_random():
    rng = random.Random(31)
    names = ["a", "b", "c", "d", "e"]
    for _ in range(50):
        n = rng.randint(1, 5)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.5]
        g = Supergraph(names[:n], edges)
        while True:
            k = tuple(rng.randint(0, 3) for _ in range(n))
            if 0 < sum(k) <= 8:
                break
        assert k_chromatic_join(g, k) == k_chromatic_direct(g, k), (edges, k)


def test_degree_and_sign(tree6):
    for k in ((0, 0, 3, 0, 0, 3), (1, 1, 1, 1, 1, 1), (0, 1, 2, 1, 0, 0)):
        poly = k_chromatic_direct(tree6, k)
        assert poly.degree() == ht(k)
        assert poly.coefficient(0) == 0
        for j in range(ht(k) + 1):
            c = poly.coefficient(j)
            if c:
                assert (c > 0) == ((ht(k) - j) % 2 == 0)


def test_linear_coefficient_vanishes_iff_disconnected(p4):
    assert k_chromatic_direct(p4, (1, 0, 1, 0)).coefficient(1) == 0
    assert k_chromatic_direct(p4, (1, 1, 0, 0)).coefficient(1) != 0


def test_linear_coefficient_matches_direct_polynomial():
    """The coefficient read off the tuple counts is the polynomial's."""
    for graph in graphs_up_to_4_and_samples():
        for k in itertools.product(range(4), repeat=graph.n):
            if sum(k) > 7:
                continue
            got = linear_coefficient(graph, k)
            assert type(got) is Fraction
            assert got == k_chromatic_direct(graph, k).coefficient(1), (graph, k)


def test_independent_sets_cached_per_support():
    for graph in graphs_up_to_4_and_samples():
        twin = plain(graph)
        for r in range(graph.n + 1):
            for sup in itertools.combinations(range(graph.n), r):
                expected = tuple(tuple(int(v in sub) for v in range(graph.n))
                                 for sub in independent_sets(twin, sup)[1:])
                assert _nonempty_independent_sets(twin, sup) == expected


def test_linear_coefficient_vanishes_on_the_zero_weight():
    for graph in graphs_up_to_4_and_samples():
        got = linear_coefficient(graph, (0,) * graph.n)
        assert got == 0 and type(got) is Fraction


def test_linear_coefficient_checks_its_weight(p4):
    with pytest.raises(InputError):
        linear_coefficient(p4, (1, 1))
    with pytest.raises(InputError):
        linear_coefficient(p4, (1, -1, 0, 0))


# ---------------------------------------------------------------------------
# Bond lattice.

def test_bond_single_vertex():
    g = Supergraph(["v"])
    parts = bond_lattice(g, (2,))
    assert len(parts) == 2
    assert set(parts) == {((2,),), ((1,), (1,))}


def test_bond_edge():
    g = Supergraph(["a", "b"], [(0, 1)])
    parts = bond_lattice(g, (1, 1))
    assert set(parts) == {((1, 1),), ((1, 0), (0, 1))}


def brute_bond_lattice(graph, k):
    """Set partitions of labelled copies, collapsed to weight multisets."""
    copies = [(v, c) for v in range(graph.n) for c in range(k[v])]

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [sub[i] + [head]] + sub[i + 1:]
            yield [[head]] + sub

    seen = set()
    for p in partitions(copies):
        blocks = []
        ok = True
        for block in p:
            w = [0] * graph.n
            for v, _ in block:
                w[v] += 1
            w = tuple(w)
            if not is_connected_support(graph, w):
                ok = False
                break
            blocks.append(w)
        if ok:
            seen.add(tuple(sorted(blocks, reverse=True)))
    return seen


def test_bond_lattice_matches_brute_force():
    p3 = Supergraph(["a", "b", "c"], [(0, 1), (1, 2)])
    for k in ((0, 0, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (0, 2, 2)):
        got = set(bond_lattice(p3, k))
        assert got == brute_bond_lattice(p3, k), k


def test_bond_partition_multiplicities():
    g = Supergraph(["v"])
    parts = bond_lattice(g, (3,))
    triple = next(p for p in parts if len(p) == 3)
    assert collections.Counter(triple) == {(1,): 3}


# ---------------------------------------------------------------------------
# The bond-lattice expansion.

def test_bond_route_examples(tree6_plain, edge36):
    k = (0, 0, 3, 0, 0, 3)
    rhs = k_chromatic_bond(tree6_plain, k)
    assert rhs == k_chromatic_direct(tree6_plain, k)
    rhs2 = k_chromatic_bond(edge36, (3, 3))
    assert rhs2 == k_chromatic_direct(edge36, (3, 3))


def test_bond_route_singleton():
    g = Supergraph(["v"])
    assert k_chromatic_bond(g, (1,)) == RationalPoly((0, 1))


def test_bond_route_even_regime_has_no_negative_binomials():
    """Without odd vertices every block contributes C(q*mult, D)."""
    g = Supergraph(["a", "b"], [(0, 1)])
    poly = k_chromatic_bond(g, (2, 1))
    assert poly == k_chromatic_direct(g, (2, 1))


def test_bond_route_square_of_odd_root():
    g = Supergraph(["v"], psi=["v"])
    poly = k_chromatic_bond(g, (2,))
    assert poly == RationalPoly((0, Fraction(-1, 2), Fraction(1, 2)))  # C(q, 2)


def test_bond_route_rejects_non_free():
    g = Supergraph(["v"], real=["v"])
    with pytest.raises(InputError):
        k_chromatic_bond(g, (2,))


def fraction_bond(graph, k, mult):
    """The bond-lattice expansion as a sum of ``Fraction`` polynomial
    products: the route ``k_chromatic_bond`` replaced, kept as its oracle.
    A partition into D blocks gives a term of degree D <= ht(k)."""
    if not any(k):
        return RationalPoly((1,))
    total = [Fraction(0)] * (ht(k) + 1)
    for partition in bond_lattice(graph, k):
        nblocks = len(partition)
        nodd = sum(1 for b in partition if weight_parity(graph, b) == 1)
        factors = []
        for block, d in sorted(collections.Counter(partition).items()):
            m = mult(block)
            scale = m if weight_parity(graph, block) == 0 else -m
            factors.append(fraction_binomial((0, scale), d))
        sign = -1 if (nblocks + nodd) % 2 else 1
        for i, c in enumerate(fraction_product(*factors)):
            total[i] += sign * c
    sign = -1 if ht(k) % 2 else 1
    return RationalPoly(sign * c for c in total)


def supergraphs_up_to_3():
    """Every graph on at most 3 vertices, with every set of odd vertices."""
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                for s in range(n + 1):
                    for psi in itertools.combinations(range(n), s):
                        yield Supergraph("abc"[:n], edges, psi=psi)


BOND_SAMPLE_WEIGHTS = {
    "path6.json": ((1, 1, 1, 1, 1, 1), (0, 2, 3, 0, 0, 1), (0, 1, 2, 0, 1, 0)),
    "tree6.json": ((0, 0, 3, 0, 0, 3), (0, 2, 3, 0, 0, 1), (1, 2, 1, 0, 0, 1)),
}


def bond_cases():
    for graph in supergraphs_up_to_3():
        for k in itertools.product(range(3), repeat=graph.n):
            if is_free_weight(graph, k):
                yield graph, k
    for name, weights in BOND_SAMPLE_WEIGHTS.items():
        graph = load_graph(os.path.join(SAMPLE_GRAPHS, name))[0]
        for k in weights:
            yield graph, k


def test_bond_route_matches_fraction_products():
    """The integer evaluation equals the Fraction-product expansion."""
    for graph, k in bond_cases():
        def mult(w):
            return mult_free_root(graph, w)
        assert k_chromatic_bond(graph, k) == fraction_bond(graph, k, mult), (graph, k)


def test_routes_agree_as_integer_tuples():
    """The binomial-basis tuples ``verify all`` compares are equal, with no
    trailing zero."""
    for graph, k in bond_cases():
        direct = _tuple_counts(plain(graph), k)
        join = _join_counts(graph, k)
        bond = _bond_counts(graph, k)
        assert direct == join == bond and direct[-1], (graph, k)


def test_integer_choose_matches_falling_factorial():
    for n in range(-6, 7):
        for d in range(6):
            expected = math.prod(n - j for j in range(d)) // math.factorial(d)
            assert _choose(n, d) == expected, (n, d)
