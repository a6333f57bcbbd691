import functools
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from freeroots import InputError, Supergraph, clear_caches
from freeroots.heaps import (heap_from_word, heap_from_pieces, empty_heap,
                             single, superpose, standard_word,
                             enumerate_heaps, heaps_up_to, classify,
                             conjugacy_class, is_primitive,
                             is_lyndon, is_lyndon_word, lyndon_heaps,
                             super_lyndon_heaps, is_super_lyndon,
                             super_letter_factors, is_super_letter, is_pyramid)
from freeroots import heaps
from freeroots.supergraph import plain, support, weights_up_to
from freeroots.superlie import (super_letter_alphabet, lyndon_heap_basis,
                                lln_basis)
from heap_oracles import (drop, greedy_word, rewriting_sign, decompositions,
                          standard_factorization, word_class,
                          lyndon_words_of_content, relabel)

THREE_VERTEX_EDGE_SETS = [(), ((0, 1),), ((0, 2),), ((1, 2),),
                          ((0, 1), (1, 2)), ((0, 1), (0, 2)), ((0, 2), (1, 2)),
                          ((0, 1), (1, 2), (0, 2))]


def three_vertex_graphs(psi=()):
    return [Supergraph(["a", "b", "c"], e, psi=psi) for e in THREE_VERTEX_EDGE_SETS]


def random_word(rng, graph, max_len=7):
    return [rng.randrange(graph.n) for _ in range(rng.randint(0, max_len))]


def all_graphs(n):
    """Every graph on the vertices a, b, ... (n of them), without odd vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            yield Supergraph("abcd"[:n], edges)


# ---------------------------------------------------------------------------
# Construction.

def test_single_letter(p4):
    h = heap_from_word(p4, "3")
    assert h.pieces == ((2, 0),)


def test_commuting_letters_same_heap(p4):
    assert heap_from_word(p4, "13") == heap_from_word(p4, "31")
    assert heap_from_word(p4, "13").pieces == ((0, 0), (2, 0))


def test_stacking_levels(p4_odd):
    h = heap_from_word(p4_odd, "123123")
    by_drop = sorted(h.pieces, key=lambda pl: (pl[1], pl[0]))
    assert set(h.pieces) == {(0, 0), (1, 1), (2, 2), (0, 2), (1, 3), (2, 4)}
    assert h.parity() == 0  # four odd letters
    assert len(by_drop) == 6


def test_unknown_vertex_rejected(p4):
    with pytest.raises(InputError):
        heap_from_word(p4, ["7"])


# ---------------------------------------------------------------------------
# Monoid structure.

def test_identity(p4):
    h = heap_from_word(p4, "2314")
    e = empty_heap(p4)
    assert superpose(h, e) == h and superpose(e, h) == h


def test_adjacent_letters_do_not_commute(edge36):
    assert superpose(single(edge36, "3"), single(edge36, "6")) != \
        superpose(single(edge36, "6"), single(edge36, "3"))


def test_morphism_and_associativity(p4, edge36, tree6_plain):
    rng = random.Random(1)
    for graph in (p4, edge36, tree6_plain):
        for _ in range(100):
            u = random_word(rng, graph)
            v = random_word(rng, graph)
            uv = heap_from_word(graph, u + v)
            assert uv == superpose(heap_from_word(graph, u), heap_from_word(graph, v))
        for _ in range(30):
            a, b, c = (heap_from_word(graph, random_word(rng, graph, 4)) for _ in range(3))
            assert superpose(superpose(a, b), c) == superpose(a, superpose(b, c))


def test_weight_and_parity_additive(p4_odd):
    rng = random.Random(2)
    for _ in range(50):
        a = heap_from_word(p4_odd, random_word(rng, p4_odd))
        b = heap_from_word(p4_odd, random_word(rng, p4_odd))
        ab = superpose(a, b)
        assert ab.weight() == tuple(x + y for x, y in zip(a.weight(), b.weight()))
        assert ab.parity() == (a.parity() + b.parity()) % 2


def test_mismatched_graphs_rejected(p4, edge36):
    with pytest.raises(InputError):
        superpose(single(p4, "1"), single(edge36, "3"))


# ---------------------------------------------------------------------------
# Standard words.

def test_standard_word_prefers_larger_minimal(p4):
    assert heap_from_word(p4, "13").word() == "31"


def test_standard_word_free_monoid_identity(edge36):
    for w in ("336636", "333666", "336366", "36", "63"):
        assert heap_from_word(edge36, w).word() == w


def test_standard_word_is_lex_max_of_class(p4, tree6_plain):
    rng = random.Random(3)
    for graph in (p4, tree6_plain):
        for _ in range(40):
            word = random_word(rng, graph)
            h = heap_from_word(graph, word)
            cls = word_class(graph, word)
            assert standard_word(h) == max(cls) if cls else ()


def test_standard_word_is_lex_max_of_every_small_class(p4):
    """Every heap with entries <= 2 on every graph with at most 3 vertices and p4."""
    graphs = [g for n in (1, 2, 3) for g in all_graphs(n)] + [p4]
    for graph in graphs:
        for k in itertools.product(range(3), repeat=graph.n):
            for h in enumerate_heaps(graph, k):
                by_level = sorted(h.pieces, key=lambda pl: (pl[1], pl[0]))
                cls = word_class(graph, [p for p, _ in by_level])
                assert standard_word(h) == max(cls), h


def test_word_roundtrip(p4, tree6_plain):
    rng = random.Random(4)
    for graph in (p4, tree6_plain):
        for _ in range(40):
            h = heap_from_word(graph, random_word(rng, graph))
            assert heap_from_word(graph, standard_word(h)) == h


def test_canonical_form_invariants(p4_odd):
    rng = random.Random(5)
    for _ in range(40):
        h = heap_from_word(p4_odd, random_word(rng, p4_odd))
        zeta = p4_odd.zeta
        for (p1, l1), (p2, l2) in itertools.combinations(h.pieces, 2):
            if zeta[p1] >> p2 & 1:
                assert l1 != l2  # separation on equal or adjacent positions
        occupied = {}
        for p, l in h.pieces:
            occupied.setdefault(l, []).append(p)
        for p, l in h.pieces:
            if l > 0:
                assert any(zeta[p] >> q & 1 for q in occupied.get(l - 1, []))
        assert heap_from_pieces(p4_odd, h.pieces) == h


# ---------------------------------------------------------------------------
# The insertion rule, against the oracles on pieces.

def oracle_heaps_by_height(graph, height):
    """The pieces of every heap of each height <= ``height``, by dropping."""
    levels = [{()}]
    for _ in range(height):
        levels.append({drop(graph, ps, [p]) for ps in levels[-1] for p in range(graph.n)})
    return levels


def odd_pairs(graph):
    """The bits ``b * n + x`` of the crossings with both b and x odd."""
    odd = sum(1 << p for p in graph.psi)
    return sum(odd << p * graph.n for p in graph.psi)


def assert_insertion_matches_oracles(graph, pairs, words, oracle_signs):
    """``_insert`` against the oracles on the pairs of pieces ``(e, f)``.

    Laying st(f) on st(e) must give the standard word of the dropped
    product, and for every psi the parity of the crossings between odd
    letters must give the sign of rewriting st(e) st(f) into it.  In the
    order that makes each base least, laying st(f) on e's word must give
    the product's.  ``words`` maps pieces to their greedy word for each
    base; ``oracle_signs`` caches the signs of one rewriting for each psi
    on the graph's vertices.  Returns the number of pairs.
    """
    views = [Supergraph(graph.names, graph.edges, psi=psi) for r in range(graph.n + 1)
             for psi in itertools.combinations(range(graph.n), r)]
    masks = [odd_pairs(view) for view in views]
    ranks = [[-1 if p == b else p for p in range(graph.n)] for b in range(graph.n)]
    count = 0
    for e, f in pairs:
        u, v = words[e][0], words[f][0]
        want = words[drop(graph, e, v)]
        word, crossings = heaps._insert(graph, u, v, range(graph.n))
        assert word == want[0], (graph, u, v)
        key = (graph.n, u + v, word)
        if key not in oracle_signs:
            oracle_signs[key] = [rewriting_sign(view, u + v, word) for view in views]
        assert [-1 if (crossings & m).bit_count() & 1 else 1 for m in masks] == \
            oracle_signs[key], (graph, u, v)
        for b in range(1, graph.n):
            laid, _ = heaps._insert(graph, words[e][b], v, ranks[b])
            assert laid == want[b], (graph, u, v, b)
        count += 1
    return count


def assert_words_match_oracles(graph, pieces):
    """The heap of each oracle standard word has the oracle's pieces and
    base-first words; returns the oracle's words, keyed by pieces."""
    words = {}
    for ps in pieces:
        words[ps] = [greedy_word(graph, ps, b) for b in range(graph.n)]
        heap = heaps.Heap(graph, words[ps][0])
        assert heap.pieces == ps
        assert [heaps._base_first_word(heap, b) for b in range(graph.n)] == words[ps]
    return words


def test_insertion_matches_the_oracles_on_small_supergraphs():
    """Every graph on <= 4 vertices, every psi, every pair of heaps of total
    height <= 6 and every base."""
    oracle_signs, count = {}, 0
    for n in range(1, 5):
        for graph in all_graphs(n):
            levels = oracle_heaps_by_height(graph, 6)
            words = assert_words_match_oracles(graph, set().union(*levels))
            pairs = ((e, f) for a in range(7) for e in levels[a]
                     for b in range(7 - a) for f in levels[b])
            count += assert_insertion_matches_oracles(graph, pairs, words, oracle_signs)
    assert count == 976030


@st.composite
def _supergraphs_with_word_pairs(draw):
    n = draw(st.integers(5, 6))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    words = st.lists(st.integers(0, n - 1), max_size=6)
    return Supergraph("abcdef"[:n], edges), draw(words), draw(words)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_supergraphs_with_word_pairs())
def test_insertion_matches_the_oracles_on_random_supergraphs(case):
    graph, u, v = case
    e, f = drop(graph, (), u), drop(graph, (), v)
    product = drop(graph, e, greedy_word(graph, f))
    words = assert_words_match_oracles(graph, {e, f, product})
    assert_insertion_matches_oracles(graph, [(e, f)], words, {})


# ---------------------------------------------------------------------------
# The total order.

def test_letter_order(edge36):
    h3 = heap_from_word(edge36, "3")
    h36 = heap_from_word(edge36, "36")
    h6 = heap_from_word(edge36, "6")
    assert standard_word(h3) < standard_word(h36) < standard_word(h6)


def test_left_factor_is_smaller(p4, edge36):
    rng = random.Random(6)
    for graph in (p4, edge36):
        for _ in range(60):
            e = heap_from_word(graph, random_word(rng, graph, 5))
            f = heap_from_word(graph, random_word(rng, graph, 4) or [0])
            if not e.pieces or not f.pieces:
                continue
            assert standard_word(e) < standard_word(superpose(e, f))


def test_order_on_letter_products_is_lexicographic(path6):
    """Products of super-letters compare like their letter sequences."""
    letters = [heap_from_word(path6, w) for w in ("3", "34", "345", "344")]
    seqs = []
    for r in (1, 2):
        seqs += [list(s) for s in itertools.product(letters, repeat=r)]
    seqs = [s for s in seqs if sum(len(l) for l in s) <= 5]
    for sa in seqs:
        for sb in seqs:
            prod_a, prod_b = sa[0], sb[0]
            for l in sa[1:]:
                prod_a = superpose(prod_a, l)
            for l in sb[1:]:
                prod_b = superpose(prod_b, l)
            lex_a, lex_b = [standard_word(l) for l in sa], [standard_word(l) for l in sb]
            key_a, key_b = standard_word(prod_a), standard_word(prod_b)
            assert ((key_a < key_b, key_a == key_b)
                    == (lex_a < lex_b, lex_a == lex_b)), (sa, sb)


def test_total_order_on_weight_class(tree6_plain):
    for k in ((0, 0, 2, 0, 0, 2), (1, 1, 1, 1, 0, 0)):
        hs = enumerate_heaps(tree6_plain, k)
        keys = [standard_word(h) for h in hs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)  # trichotomy: distinct heaps compare apart


# ---------------------------------------------------------------------------
# Enumeration.

def test_edgeless_single_class():
    g = Supergraph(["a", "b", "c"])
    for k in ((1, 1, 1), (3, 2, 1), (0, 4, 0)):
        assert len(enumerate_heaps(g, k)) == 1


def test_complete_graph_free_monoid():
    g = Supergraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    for k in ((1, 1, 1), (2, 1, 0), (2, 2, 1)):
        expected = math.factorial(sum(k)) // math.prod(math.factorial(x) for x in k)
        assert len(enumerate_heaps(g, k)) == expected


def test_p4_count_matches_word_class_oracle(p4):
    k = (1, 1, 1, 1)
    words = set(itertools.permutations([0, 1, 2, 3]))
    classes = set()
    while words:
        w = words.pop()
        cls = word_class(p4, w)
        words -= cls
        classes.add(min(cls))
    assert len(enumerate_heaps(p4, k)) == len(classes)


def test_heaps_up_to_keys(p4):
    table = heaps_up_to(p4, (1, 1, 0, 0))
    assert set(table) == {(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)}


def superposed_heaps(graph, k, base, memo):
    """The superpose-dedupe-sort enumeration the standard-word walk replaced.

    Each heap of weight k - e_i gets a piece on vertex i dropped on top; the
    set of products is sorted by the greedy word in the order that makes
    ``base`` least.  Both are the oracles on pieces, so nothing here goes
    through the library's insertion rule.  Returns the sorted pieces of
    the heaps with those words.
    """
    def build(k):
        if k not in memo:
            if not any(k):
                memo[k] = {()}
            else:
                memo[k] = {drop(graph, ps, [i])
                           for i in support(k)
                           for ps in build(k[:i] + (k[i] - 1,) + k[i + 1:])}
        return memo[k]

    rank = [-1 if p == base else p for p in range(graph.n)]
    words = {ps: greedy_word(graph, ps, base) for ps in build(k)}
    ordered = sorted(words, key=lambda ps: [rank[p] for p in words[ps]])
    return ordered, [words[ps] for ps in ordered]


def assert_walk_matches_superposition(graph, k, memo):
    for base in support(k):
        found = heaps._heaps_with_words(graph, k, base)
        want_pieces, want_words = superposed_heaps(graph, k, base, memo)
        assert [h.pieces for h, _ in found] == want_pieces, (graph, k, base)
        assert [w for _, w in found] == want_words, (graph, k, base)
    if any(k):  # base 0 orders the heaps of every weight, whatever the support
        assert [h.pieces for h in enumerate_heaps(graph, k)] == \
            superposed_heaps(graph, k, 0, memo)[0]


def test_standard_word_walk_matches_superposition_on_small_graphs():
    """Every graph on <= 4 vertices, weight entries <= 2, base in the support."""
    for n in range(1, 5):
        for graph in all_graphs(n):
            memo = {}
            for k in itertools.product(range(3), repeat=n):
                assert_walk_matches_superposition(graph, k, memo)


@st.composite
def _graphs_with_weights(draw):
    n = draw(st.integers(5, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    k = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return Supergraph("abcdef"[:n], edges), k


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_graphs_with_weights())
def test_standard_word_walk_matches_superposition_on_random_graphs(case):
    graph, k = case
    assert_walk_matches_superposition(graph, k, {})


def test_heaps_up_to_walk_matches_enumeration():
    """Each weight under the cap, in the order of weights_up_to, holds the
    enumeration of that weight."""
    for graph in all_graphs(3):
        for cap in ((2, 2, 2), (1, 0, 3), (0, 0, 0)):
            table = heaps_up_to(graph, cap)
            assert list(table) == list(weights_up_to(cap))
            for w, hs in table.items():
                assert hs == enumerate_heaps(graph, w)


def test_walk_on_the_empty_graph():
    g = Supergraph([])
    assert enumerate_heaps(g, ()) == (empty_heap(g),)
    assert heaps_up_to(g, ()) == {(): (empty_heap(g),)}
    assert heaps._super_lyndon_counts(g, ()) == ((1,), (0,))


def test_heap_counts_count_the_enumeration(tree6):
    """Heaps and super Lyndon heaps per weight, odd squares included."""
    cap = (1, 2, 1, 1, 2, 1)
    assert heaps._super_lyndon_counts(tree6, cap) == (
        tuple(len(enumerate_heaps(tree6, w)) for w in weights_up_to(cap)),
        tuple(len(square_construction(tree6, w)) for w in weights_up_to(cap)))


def test_lln_bases_read_one_enumeration(path6):
    """Every base and two psi of one adjacency sort the one cached heap list."""
    k = (0, 1, 2, 1, 1, 0)
    clear_caches()
    for graph in (path6, Supergraph(path6.names, path6.edges, psi=[1, 2])):
        for b in support(k):
            assert len(lln_basis(graph, k, graph.names[b])) > 0
    assert heaps._enumerate_plain.cache_info().misses == 1


def test_enumeration_interns_only_the_heaps_of_the_weight(path6):
    """The walk drops no heap of a smaller weight into the pool."""
    k = (0, 1, 2, 1, 1, 0)
    clear_caches()
    found = enumerate_heaps(path6, k)
    pool = heaps._REGISTRY[plain(path6)]
    assert set(pool.values()) == {h._shared for h in found}
    assert all(h.weight() == k for h in pool.values())


def test_super_lyndon_heaps_intern_only_the_heaps_of_the_weight(path6):
    """No heap of half the weight is built to square it."""
    k = (0, 2, 2, 0, 0, 0)
    clear_caches()
    found = super_lyndon_heaps(path6, k)
    assert [h.word() for h in found] == ["2233", "2323"]  # 23 is odd
    pool = heaps._REGISTRY[plain(path6)]
    assert all(h.weight() == k for h in pool.values())


# ---------------------------------------------------------------------------
# Classification.

def test_single_piece_flags(p4):
    c = classify(single(p4, "1"))
    assert c.pyramid and c.admissible_pyramid and c.elementary and c.super_letter
    assert c.primitive and c.lyndon and c.super_lyndon
    c2 = classify(single(p4, "3"))
    assert c2.pyramid and c2.lyndon and not c2.super_letter  # not the least vertex


def test_square_of_letter(edge36):
    c = classify(heap_from_word(edge36, "33"))
    assert not c.primitive and not c.lyndon
    assert c.super_lyndon  # vertex 3 is odd here
    even = Supergraph(["3", "6"], [(0, 1)])
    c2 = classify(heap_from_word(even, "33"))
    assert not c2.super_lyndon


def test_classify_empty_rejected(p4):
    with pytest.raises(InputError):
        classify(empty_heap(p4))


def brute_primitive(heap):
    if not heap.pieces:
        return False
    return not any(superpose(v, u) == heap for u, v in decompositions(heap))


def brute_conjugacy_class(heap):
    seen = {heap}
    stack = [heap]
    while stack:
        h = stack.pop()
        for u, v in decompositions(h):
            t = superpose(v, u)
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_primitive_matches_commuting_decomposition_definition():
    for graph in three_vertex_graphs():
        for k in itertools.product(range(3), repeat=3):
            if not 0 < sum(k) <= 5:
                continue
            for h in enumerate_heaps(graph, k):
                assert is_primitive(h) == brute_primitive(h), h


def test_conjugacy_rotations_reach_all_transposes():
    for graph in three_vertex_graphs():
        for k in itertools.product(range(3), repeat=3):
            if not 0 < sum(k) <= 5:
                continue
            for h in enumerate_heaps(graph, k):
                assert conjugacy_class(h) == frozenset(brute_conjugacy_class(h)), h


def test_lyndon_matches_brute_force():
    for graph in three_vertex_graphs():
        for k in itertools.product(range(3), repeat=3):
            if not 0 < sum(k) <= 5:
                continue
            for h in enumerate_heaps(graph, k):
                cls = brute_conjugacy_class(h)
                brute = brute_primitive(h) and all(standard_word(h) <= standard_word(o) for o in cls)
                assert is_lyndon(h) == brute, h


def sweep_lyndon_heaps(graph, k):
    """Least element of each conjugacy class, kept when primitive."""
    seen = set()
    out = set()
    for h in enumerate_heaps(graph, k):
        if h.pieces and h not in seen:
            cls = conjugacy_class(h)
            seen |= cls
            least = min(cls, key=standard_word)
            if is_primitive(least):
                out.add(least)
    return out


def test_lyndon_word_test_matches_conjugacy_sweep():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                graph = Supergraph("abcd"[:n], edges)
                for k in itertools.product(range(4), repeat=n):
                    if sum(k) > 6:
                        continue
                    sweep = sweep_lyndon_heaps(graph, k)
                    expected = tuple(sorted(sweep, key=standard_word))
                    assert lyndon_heaps(graph, k) == expected, (graph, k)
                    for h in enumerate_heaps(graph, k):
                        assert is_lyndon(h) == (h in sweep), h


def test_lyndon_word_matches_rotation_oracle():
    for k in itertools.product(range(4), repeat=3):
        letters = [i for i, c in enumerate(k) for _ in range(c)]
        words = set(itertools.permutations(letters))
        expected = set(lyndon_words_of_content(k))
        assert {w for w in words if is_lyndon_word(w)} == expected, k


def test_super_lyndon_weight_33(tree6):
    heaps = super_lyndon_heaps(tree6, (0, 0, 3, 0, 0, 3))
    assert [h.word() for h in heaps] == ["333666", "336366", "336636"]


def test_super_lyndon_path_weight(path6):
    heaps = super_lyndon_heaps(path6, (0, 0, 2, 1, 2, 1))
    assert [h.word() for h in heaps] == ["334556", "334565"]


def test_super_lyndon_complete_graph_matches_word_count():
    g = Supergraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    for k in ((1, 1, 0), (2, 1, 0), (2, 2, 0), (1, 1, 1), (2, 2, 2)):
        assert len(super_lyndon_heaps(g, k)) == len(lyndon_words_of_content(k))
    godd = Supergraph(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)], psi=["a"])
    for k in ((2, 2, 0), (2, 2, 2), (4, 0, 0)):
        half = tuple(x // 2 for x in k)
        squares = [u for u in lyndon_words_of_content(half)
                   if sum(1 for x in u if x == 0) % 2 == 1]
        expected = len(lyndon_words_of_content(k)) + len(squares)
        assert len(super_lyndon_heaps(godd, k)) == expected


def test_super_lyndon_word_rule_matches_square_definition():
    """Super Lyndon = Lyndon or F o F with F odd Lyndon; squares split as (F, F).

    Every graph with at most 4 vertices and every psi; every heap whose
    weight has even entries and height <= 6.  The squares are built from
    the heaps, not read off words.
    """
    seen_squares = 0
    for n in range(1, 5):
        for plain_graph in all_graphs(n):
            for r in range(n + 1):
                for psi in itertools.combinations(range(n), r):
                    graph = Supergraph(plain_graph.names, plain_graph.edges, psi=psi)
                    for half in itertools.product(range(4), repeat=n):
                        if not 0 < sum(half) <= 3:
                            continue
                        squares = {superpose(f, f): f for f in lyndon_heaps(graph, half)
                                   if f.parity() == 1}
                        for h in enumerate_heaps(graph, tuple(2 * x for x in half)):
                            assert classify(h).super_lyndon == (is_lyndon(h) or h in squares), h
                            if h in squares:
                                seen_squares += 1
                                assert standard_factorization(h) == (squares[h], squares[h]), h
    assert seen_squares


def square_construction(graph, k):
    """Super Lyndon heaps by the definition, the route the word test replaced.

    The Lyndon heaps of k, plus F o F for each odd Lyndon heap F of weight
    k/2, sorted by the heap order.
    """
    out = list(lyndon_heaps(graph, k))
    if any(k) and all(x % 2 == 0 for x in k):
        out += [superpose(f, f) for f in lyndon_heaps(graph, tuple(x // 2 for x in k))
                if f.parity() == 1]
    return tuple(sorted(out, key=standard_word))


def test_super_lyndon_heaps_match_square_construction_on_small_graphs():
    """Every supergraph on <= 4 vertices and every psi; every weight with
    entries <= 2 and every all-even weight of height <= 6."""
    squares = 0
    for n in range(1, 5):
        weights = [k for k in itertools.product(range(7), repeat=n)
                   if max(k) <= 2 or (sum(k) <= 6 and not any(x % 2 for x in k))]
        for plain_graph in all_graphs(n):
            for r in range(n + 1):
                for psi in itertools.combinations(range(n), r):
                    graph = with_psi(plain_graph, psi)
                    for k in weights:
                        found = super_lyndon_heaps(graph, k)
                        assert found == square_construction(graph, k), (graph, k)
                        squares += sum(not is_lyndon(h) for h in found)
            clear_caches()
    assert squares


@st.composite
def _supergraphs_with_weights(draw):
    n = draw(st.integers(5, 6))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    psi = [i for i in range(n) if draw(st.booleans())]
    entries = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    k = draw(entries.filter(lambda k: sum(k) <= 8))
    if draw(st.booleans()):  # all even, where odd squares live
        k = [2 * x for x in draw(entries.filter(lambda h: sum(h) <= 3))]
    return Supergraph("abcdef"[:n], edges, psi=psi), tuple(k)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_supergraphs_with_weights())
def test_super_lyndon_heaps_match_square_construction_on_random_graphs(case):
    graph, k = case
    assert super_lyndon_heaps(graph, k) == square_construction(graph, k), (graph, k)


def test_empty_heap_is_not_super_lyndon(p4_odd):
    assert not is_super_lyndon(empty_heap(p4_odd))
    assert super_lyndon_heaps(p4_odd, (0, 0, 0, 0)) == ()


def test_disconnected_weight_has_no_super_lyndon(p4):
    assert super_lyndon_heaps(p4, (1, 0, 1, 0)) == ()


# ---------------------------------------------------------------------------
# Standard factorization.

def test_factorizations_on_tree(tree6):
    expect = {"336636": ("3366", "36"), "333666": ("3", "33666"),
              "336366": ("3", "36366")}
    for h in super_lyndon_heaps(tree6, (0, 0, 3, 0, 0, 3)):
        f, n = standard_factorization(h)
        assert (f.word(), n.word()) == expect[h.word()]


def test_factorization_chain(path6):
    h = heap_from_word(path6, "34565")
    f, n = standard_factorization(h)
    assert (f.word(), n.word()) == ("3", "4565")


def test_square_factorization(edge36):
    h = heap_from_word(edge36, "3636")
    f, n = standard_factorization(h)
    assert f == n and f.word() == "36"


def test_factorization_requires_super_lyndon(edge36):
    with pytest.raises(InputError):
        standard_factorization(heap_from_word(edge36, "63"))
    with pytest.raises(InputError):
        standard_factorization(single(edge36, "3"))


def brute_standard_factorization(heap):
    best = None
    for f, n in decompositions(heap):
        if is_lyndon(n) and (best is None or standard_word(n) < standard_word(best[1])):
            best = (f, n)
    return best


def test_factorization_matches_minimal_right_factor_search():
    for graph in three_vertex_graphs():
        for k in itertools.product(range(3), repeat=3):
            if not 2 <= sum(k) <= 5:
                continue
            for h in lyndon_heaps(graph, k):
                assert standard_factorization(h) == brute_standard_factorization(h), h


# ---------------------------------------------------------------------------
# Super-letter factorization.

def test_super_letter_factors_roundtrip(path6):
    h = heap_from_word(path6, "334565")
    factors = super_letter_factors(h, base="3")
    assert [f.word() for f in factors] == ["3", "34565"]


def test_super_letter_factors_unique_for_products(path6):
    rng = random.Random(8)
    letters = [heap_from_word(path6, w) for w in ("3", "34", "345", "344", "3456")]
    for _ in range(40):
        seq = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        prod = seq[0]
        for l in seq[1:]:
            prod = superpose(prod, l)
        assert list(super_letter_factors(prod, base="3")) == seq


def test_super_letter_factors_of_alphabet_products(path6):
    """Every product of 1-3 super-letters over base 3 splits back into them."""
    alphabet = super_letter_alphabet(path6, "3", (1, 1, 1, 1, 2, 1))
    assert len(alphabet) == 21
    for r in (1, 2, 3):
        for seq in itertools.product(alphabet, repeat=r):
            assert super_letter_factors(functools.reduce(superpose, seq), base="3") == seq


def test_super_letter_factors_of_every_heap(path6):
    """Each heap either is refused or splits into super-letters over base 3."""
    work = relabel(path6, (2, 0, 1, 3, 4, 5))  # base 3 least
    refused = split = 0
    for k in ((0, 0, 2, 1, 2, 1), (1, 1, 2, 1, 1, 1), (0, 1, 2, 1, 1, 0), (0, 1, 3, 1, 1, 1)):
        for h in enumerate_heaps(path6, k):
            try:
                factors = super_letter_factors(h, base="3")
            except InputError:
                refused += 1
                continue
            split += 1
            assert functools.reduce(superpose, factors) == h
            for f in factors:
                twin = heap_from_word(work, [path6.names[p] for p in standard_word(f)])
                assert classify(twin).super_letter, (h, f)
    assert refused and split


def test_super_letter_factors_rejects_non_products(p4):
    with pytest.raises(InputError):
        super_letter_factors(heap_from_word(p4, "21"), base="1")
    with pytest.raises(InputError):
        super_letter_factors(heap_from_word(p4, "234"), base="1")


def test_super_letter_flag_matches_classify():
    """Every graph on <= 4 vertices, entries <= 2, every base."""
    for n in range(1, 5):
        for graph in all_graphs(n):
            for k in itertools.product(range(3), repeat=n):
                for h in enumerate_heaps(graph, k):
                    flags = classify(h) if h.pieces else None
                    assert is_super_letter(h) == bool(flags and flags.super_letter), h
                    assert is_pyramid(h) == bool(flags and flags.pyramid), h
                    # the same shapes read off the pieces, without the code's rules
                    ps = h.pieces
                    assert list(ps) == sorted(ps, key=lambda pl: (pl[1], pl[0])), h
                    minimal = [p for p, lvl in ps if lvl == 0]
                    assert is_pyramid(h) == (len(minimal) == 1), h
                    for b in range(n):
                        assert is_super_letter(h, b) == (
                            minimal == [b] and sum(p == b for p, _ in ps) == 1), (h, b)


# ---------------------------------------------------------------------------
# Serialization.

def test_heap_json(p4_odd):
    h = heap_from_word(p4_odd, "1213")
    doc = h.to_json()
    levels = [lvl for _, lvl in doc["pieces"]]
    assert levels == sorted(levels)
    assert heap_from_pieces(p4_odd, [(p4_odd.index(p), l) for p, l in doc["pieces"]]) == h


def test_multicharacter_names_dot_join():
    g = Supergraph(["alpha", "beta"], [(0, 1)])
    assert heap_from_word(g, ["alpha", "beta"]).word() == "alpha.beta"


# ---------------------------------------------------------------------------
# One interned heap per graph; heaps over annotated graphs share the plain twin's.

def with_psi(graph, psi):
    return Supergraph(graph.names, graph.edges, psi=psi)


def test_enumerated_views_share_the_plain_twins_heaps(p4):
    for r in range(p4.n + 1):
        for psi in itertools.combinations(range(p4.n), r):
            g = with_psi(p4, psi)
            for k in ((1, 1, 1, 1), (2, 1, 1, 0), (1, 2, 2, 1), (0, 3, 0, 2)):
                twin = enumerate_heaps(plain(g), k)
                got = enumerate_heaps(g, k)
                assert len(got) == len(twin)
                for h, t in zip(got, twin):
                    assert h._shared is t and t._shared is t
                    assert h.graph == g and h.pieces == t.pieces


def test_annotated_pools_share_the_plain_twins_heaps(path6, tree6):
    for graph, k in ((path6, (0, 0, 2, 1, 2, 1)), (path6, (0, 1, 2, 1, 1, 0)),
                     (tree6, (0, 0, 3, 0, 0, 3)), (tree6, (0, 1, 2, 1, 1, 0))):
        lyndon_heap_basis(graph, k)
        for base in support(k):
            lln_basis(graph, k, base)
    annotated = [g for g in heaps._REGISTRY if not g.is_plain()]
    assert path6 in annotated and tree6 in annotated
    for g, pool in heaps._REGISTRY.items():
        twins = heaps._REGISTRY[plain(g)]
        for word, h in pool.items():  # a pool is keyed by standard words
            assert h.graph is g and standard_word(h) == word
            assert h._shared is twins[word] and h._shared._shared is h._shared
            assert h.pieces is h._shared.pieces


def test_threads_building_one_heap_get_one_object(path6):
    """Eight threads build the same new heaps over an annotated graph at once.

    Every thread must get the one pooled object for each word; a lost race
    in a pool would hand two threads distinct equal heaps.
    """
    words = ["".join(w) for w in itertools.product("123456", repeat=5)][:3000]
    barrier = threading.Barrier(8, timeout=60)
    results = [[] for _ in range(8)]

    def build(out):
        barrier.wait()
        out.extend(heap_from_word(path6, word) for word in words)

    clear_caches()
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
    assert all(len(out) == len(words) for out in results)
    for r, word in enumerate(words):
        assert len({id(out[r]) for out in results}) == 1, word
        assert results[0][r]._shared is heap_from_word(plain(path6), word)


def test_empty_view_shares_the_empty_heap(path6, p4_odd):
    for g in (path6, p4_odd):
        assert empty_heap(g)._shared is empty_heap(plain(g))
        assert empty_heap(g) == empty_heap(g) != empty_heap(plain(g))


def test_views_compare_by_graph_and_pieces(p4):
    g, other = with_psi(p4, [1]), with_psi(p4, [2])
    a = heap_from_word(g, "1232")
    b = superpose(heap_from_word(g, "12"), heap_from_word(g, "32"))
    assert a is b and a == b and hash(a) == hash(b)
    assert [id(h) for h in enumerate_heaps(g, a.weight()) if h == a] == [id(a)]
    twin = heap_from_word(plain(g), "1232")
    assert twin is a._shared and a != twin and twin != a
    assert standard_word(a) == standard_word(twin)
    c = heap_from_word(other, "1232")
    assert c._shared is twin and a != c and len({a, b, c, twin}) == 3

