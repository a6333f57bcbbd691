import copy
import itertools
import os
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freeroots import InputError, ConsistencyError, Supergraph, clear_caches
from freeroots.heaps import (heap_from_word, heap_from_pieces, single, superpose,
                             standard_word, enumerate_heaps,
                             super_lyndon_heaps, lyndon_heaps, is_lyndon,
                             classify, is_pyramid)
from freeroots import heaps
from freeroots.supergraph import (is_connected_support, plain, support, weights_up_to,
                                  load_graph)
from freeroots.superlie import (LieMonomial, HeapPolynomial, bracket_expand, expand_monomial,
                                leaf, bracket, left_normed, lambda_monomial,
                                _expand_lambda, lyndon_heap_basis,
                                super_letter_alphabet, lln_basis,
                                lambda_equals_e, span_membership,
                                integer_rank, solve_exact, signed_superpose)
from heap_oracles import drop, greedy_word, heaps_up_to, relabel, rewriting_sign
from test_golden import BASIS_WEIGHTS, ROOT


def base_first(graph, base):
    """The graph relabelled so that ``base`` is least, the rest in order."""
    b = graph.index(base)
    return relabel(graph, [b] + [i for i in range(graph.n) if i != b])


# ---------------------------------------------------------------------------
# Bracket expansion basics.

def test_odd_self_bracket(edge36):
    e3 = HeapPolynomial.generator(edge36, "3")
    assert bracket_expand(e3, e3).terms == {heap_from_word(edge36, "33"): 2}


def test_commuting_bracket_vanishes(p4):
    e1 = HeapPolynomial.generator(p4, "1")
    e3 = HeapPolynomial.generator(p4, "3")
    assert not bracket_expand(e1, e3)


def test_mixed_bracket(edge36):
    e3 = HeapPolynomial.generator(edge36, "3")
    e6 = HeapPolynomial.generator(edge36, "6")
    out = bracket_expand(e3, e6)
    assert out.terms == {heap_from_word(edge36, "36"): 1,
                         heap_from_word(edge36, "63"): -1}


def test_mixed_parity_operand_rejected(edge36):
    e3 = HeapPolynomial.generator(edge36, "3")
    e6 = HeapPolynomial.generator(edge36, "6")
    with pytest.raises(InputError):
        bracket_expand(e3 + e6, e6)


def test_commuting_odd_pair_anticommutes():
    """Non-adjacent odd generators must bracket to zero in the algebra."""
    g = Supergraph(["a", "b"], [], psi=["a", "b"])
    ea = HeapPolynomial.generator(g, "a")
    eb = HeapPolynomial.generator(g, "b")
    assert not bracket_expand(ea, eb)
    # the two products of basis elements differ by the rewriting sign
    from freeroots.superlie import signed_superpose
    ha, hb = single(g, "a"), single(g, "b")
    prod_ab = signed_superpose(ha, hb)
    prod_ba = signed_superpose(hb, ha)
    assert prod_ab[0] == prod_ba[0] and prod_ab[1] == -prod_ba[1]


def test_signed_product_associative():
    from freeroots.superlie import signed_superpose
    g = Supergraph(["1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3)], psi=["1", "3"])
    rng = random.Random(21)
    for _ in range(200):
        ws = [[rng.randrange(4) for _ in range(rng.randint(1, 4))] for _ in range(3)]
        a, b, c = (heap_from_word(g, w) for w in ws)
        h1, s1 = signed_superpose(a, b)
        h1, s1b = signed_superpose(h1, c)
        h2, s2 = signed_superpose(b, c)
        h2, s2b = signed_superpose(a, h2)
        assert (h1, s1 * s1b) == (h2, s2 * s2b)


def dict_rewriting_sign(graph, word, target):
    """Oracle: match the i-th occurrence of each letter, count odd inversions."""
    psi = graph.psi
    odd_positions = [i for i, v in enumerate(word) if v in psi]
    if len(odd_positions) < 2:
        return 1
    seen = {}
    where = {}
    for pos, v in enumerate(target):
        n = seen.get(v, 0)
        where[(v, n)] = pos
        seen[v] = n + 1
    seen.clear()
    mapped = []
    for i in odd_positions:
        v = word[i]
        n = seen.get(v, 0)
        mapped.append(where[(v, n)])
        seen[v] = n + 1
    inversions = 0
    for a in range(len(mapped)):
        for b in range(a + 1, len(mapped)):
            if mapped[a] > mapped[b]:
                inversions += 1
    return -1 if inversions & 1 else 1


def concat(x, y):
    """Oracle: bilinear product in the enveloping algebra, u_E u_F = +-u_{EoF}."""
    out = {}
    for e, a in x.terms.items():
        for f, b in y.terms.items():
            h, sign = signed_superpose(e, f)
            out[h] = out.get(h, 0) + a * b * sign
    return HeapPolynomial(x.graph, out)


def _assert_sign_matches_oracle(e, f):
    """The product and sign against the oracles on pieces: the dropped
    product, and the sign of rewriting the concatenated greedy words into
    the product's."""
    g = e.graph
    h, sign = signed_superpose(e, f)
    word = greedy_word(g, e.pieces) + greedy_word(g, f.pieces)
    product = drop(g, e.pieces, word[len(e):])
    assert h.pieces == product, (e, f)
    assert sign == dict_rewriting_sign(g, word, greedy_word(g, product)), (e, f)


def test_signed_superpose_sign_matches_dict_oracle(path6):
    """Every pair of nonempty heaps of total height <= 6 on every supergraph
    with at most 3 vertices and every psi, and random pairs on path6."""
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [Supergraph("abc"[:n], edges, psi=psi)
                  for r in range(len(pairs) + 1)
                  for edges in itertools.combinations(pairs, r)
                  for s in range(n + 1)
                  for psi in itertools.combinations(range(n), s)]
        for g in graphs:
            by_height = [[] for _ in range(6)]
            for w in weights_up_to((5,) * n):
                if 0 < sum(w) < 6:
                    by_height[sum(w)].extend(enumerate_heaps(g, w))
            for a in range(1, 6):
                for b in range(1, 7 - a):
                    for e in by_height[a]:
                        for f in by_height[b]:
                            _assert_sign_matches_oracle(e, f)
    rng = random.Random(7)
    for _ in range(3000):
        e, f = (heap_from_word(path6, [rng.randrange(6)
                                       for _ in range(rng.randint(1, 7))])
                for _ in range(2))
        _assert_sign_matches_oracle(e, f)


def _bracket_nodes(m):
    if not m.is_leaf:
        yield m
        yield from _bracket_nodes(m.left)
        yield from _bracket_nodes(m.right)


def test_bracket_expand_matches_concat_oracle():
    """[x, y] = x y - (-1)^{p(x)p(y)} y x on every bracket of both bases.

    Over path6 as loaded, its plain twin and path6 with every vertex odd,
    in turn and with the caches kept: the three share one plain product
    cache, so a sign kept with a product's word would be read over the
    wrong psi.
    """
    path6, _ = load_graph(os.path.join(ROOT, "sample_graphs", "path6.json"))
    all_odd = Supergraph(path6.names, path6.edges, psi=range(path6.n))
    for graph in (path6, plain(path6), all_odd):
        checked = 0
        for k in ((0, 0, 2, 1, 2, 1), (0, 1, 2, 1, 1, 0), (0, 0, 2, 2, 2, 1)):
            bases = [lyndon_heap_basis(graph, k)]
            bases += [lln_basis(graph, k, base) for base in ("3", "5")]
            for basis in bases:
                for element in basis.elements:
                    for node in _bracket_nodes(element.monomial):
                        x = expand_monomial(node.left, graph)
                        y = expand_monomial(node.right, graph)
                        s = 1 if x.parity() and y.parity() else -1
                        out = bracket_expand(x, y)
                        assert out == concat(x, y) + concat(y, x) * s
                        assert 0 not in out.terms.values()
                        assert all(h.graph is graph for h in out.terms)
                        checked += 1
        assert checked > 100, graph


def test_operands_over_two_graphs_are_refused(p4):
    """One adjacency with two psi is two graphs: no product mixes them.

    The bracket sums products by standard word, which does not name the
    graph, so without the check it would return a polynomial over the
    first operand's graph.
    """
    g, h = (Supergraph(p4.names, p4.edges, psi=psi) for psi in ([1], [0, 2]))
    calls = [lambda: bracket_expand(HeapPolynomial.generator(g, "2"),
                                    HeapPolynomial.generator(h, "3")),
             lambda: signed_superpose(single(g, "2"), single(h, "3")),
             lambda: superpose(single(g, "2"), single(h, "3"))]
    for call in calls:
        with pytest.raises(InputError, match="needs a common supergraph"):
            call()


def test_heap_polynomial_refuses_a_heap_over_another_graph_on_the_same_names():
    """Unchecked, bracketing a with bc over the b-c edge gave 1*bca + -1*cab
    over the a-b edge, where bca is not a standard word."""
    first = Supergraph("abc", [("a", "b")], psi=["a"])
    second = Supergraph("abc", [("b", "c")], psi=["a"])
    foreign = heap_from_word(second, "bc")
    with pytest.raises(InputError, match="heaps over its own graph"):
        HeapPolynomial(first, {foreign: 1})
    a = HeapPolynomial.generator(first, "a")
    for call in (lambda: a + HeapPolynomial(second, {foreign: 1}),
                 lambda: a - HeapPolynomial(second, {foreign: 1})):
        with pytest.raises(InputError):
            call()


def test_heap_polynomial_refuses_a_heap_over_a_larger_graph(path6):
    """Unchecked, a path6 heap in a 3-vertex polynomial raised a bare IndexError."""
    small = Supergraph("abc")
    for terms in ({heap_from_word(path6, "654"): 1}, {heap_from_word(path6, "6"): 0},
                  {"a": 1}):
        with pytest.raises(InputError, match="heaps over its own graph"):
            HeapPolynomial(small, terms)


def test_heap_polynomial_keeps_no_zero_coefficients(path6):
    h3, h4 = single(path6, "3"), single(path6, "4")
    assert HeapPolynomial(path6, {h3: 0, h4: 2}).terms == {h4: 2}
    x = expand_monomial(left_normed("3456"), path6)
    assert x and not (x + x * -1).terms and not (x * 0).terms
    assert (x - x).terms == {}


def test_grade_space_dimension_matches_left_normed_span(path6):
    """Rank of all left-normed expansions equals the super Lyndon count.

    This is the sharpest consistency check of the signed product: with a
    wrong sign anywhere the left-normed words span too much.
    """
    work = base_first(path6, "3")
    for wk in ((2, 0, 0, 1, 2, 1), (1, 0, 0, 1, 1, 1), (2, 0, 0, 2, 2, 0)):
        heaps = enumerate_heaps(work, wk)
        idx = {h: i for i, h in enumerate(heaps)}
        letters = [v for i, c in enumerate(wk) for v in [work.names[i]] * c]
        rows = []
        for w in sorted(set(itertools.permutations(letters))):
            poly = expand_monomial(left_normed(w), work)
            row = [0] * len(heaps)
            for h, c in poly.terms.items():
                row[idx[h]] = c
            rows.append(row)
        assert integer_rank(rows)[0] == len(super_lyndon_heaps(work, wk))


def test_left_normed_rewriting_identity(path6):
    """A left-normed word rewrites into base-anchored left-normed words."""
    work = base_first(path6, "3")
    lhs = expand_monomial(left_normed("456353"), work)
    combo = (expand_monomial(left_normed("345653"), work)
             - expand_monomial(left_normed("354653"), work)
             + expand_monomial(left_normed("364553"), work)
             - expand_monomial(left_normed("365453"), work))
    assert lhs == combo


def _random_elements(graph, rng, count, depth=2):
    gens = [HeapPolynomial.generator(graph, v) for v in graph.names]

    def build(d):
        if d == 0 or rng.random() < 0.4:
            return gens[rng.randrange(len(gens))]
        return bracket_expand(build(d - 1), build(d - 1))

    out = []
    while len(out) < count:
        x = build(depth)
        if x:
            out.append(x)
    return out


def test_antisymmetry_random():
    g = Supergraph(["1", "2", "3"], [(0, 1), (1, 2)], psi=["1", "3"])
    rng = random.Random(11)
    for _ in range(120):
        x, y = _random_elements(g, rng, 2)
        sign = -1 if x.parity() and y.parity() else 1
        assert not bracket_expand(x, y) + bracket_expand(y, x) * sign


def test_super_jacobi_random():
    g = Supergraph(["1", "2", "3"], [(0, 1), (1, 2), (0, 2)], psi=["2"])
    rng = random.Random(12)
    for _ in range(120):
        x, y, z = _random_elements(g, rng, 3)
        px, py = x.parity(), y.parity()
        lhs = bracket_expand(x, bracket_expand(y, z))
        rhs = bracket_expand(bracket_expand(x, y), z) + \
            bracket_expand(y, bracket_expand(x, z)) * (-1 if px and py else 1)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Monomials.

def test_monomial_printing():
    m = bracket(leaf("3"), bracket(leaf("3"), leaf("6")))
    assert str(m) == "[3,[3,6]]"
    assert str(left_normed("345")) == "[[3,4],5]"


def test_expand_leaf(p4):
    m = leaf("2")
    assert expand_monomial(m, p4).terms == {single(p4, "2"): 1}


def test_lambda_monomials_on_tree(tree6):
    expect = {"333666": "[3,[3,[[[3,6],6],6]]]",
              "336366": "[3,[[3,6],[[3,6],6]]]",
              "336636": "[[3,[[3,6],6]],[3,6]]"}
    for h in super_lyndon_heaps(tree6, (0, 0, 3, 0, 0, 3)):
        assert str(lambda_monomial(h)) == expect[h.word()]


def test_lambda_monomials_on_path(path6):
    # cross-checked against the exhaustive minimal-right-factor search in
    # test_heaps; the bracketing of 334565 follows that factorization
    expect = {"334556": "[3,[3,[4,[5,[5,6]]]]]",
              "334565": "[3,[3,[[4,[5,6]],5]]]"}
    for h in super_lyndon_heaps(path6, (0, 0, 2, 1, 2, 1)):
        assert str(lambda_monomial(h)) == expect[h.word()]


def test_right_bracketing_of_334565_is_not_a_basis(path6):
    """Why [3,[3,[4,[[5,6],5]]]] is not the monomial of 334565.

    5 is odd, so [[5,6],5] and [5,[5,6]] expand alike: that bracketing
    and the monomial of 334556 span one dimension of a weight of
    dimension 2, and it has no 334565 term, breaking triangularity.
    """
    def wrap(inner):
        return bracket(leaf("3"), bracket(leaf("3"), bracket(leaf("4"), inner)))

    e56 = bracket(leaf("5"), leaf("6"))
    assert (expand_monomial(bracket(e56, leaf("5")), path6)
            == expand_monomial(bracket(leaf("5"), e56), path6))
    recorded = expand_monomial(wrap(bracket(e56, leaf("5"))), path6)
    other = expand_monomial(wrap(bracket(leaf("5"), e56)), path6)
    heaps = enumerate_heaps(path6, (0, 0, 2, 1, 2, 1))
    rows = [[p.coefficient(h) for h in heaps] for p in (recorded, other)]
    assert integer_rank(rows)[0] == 1
    assert recorded.coefficient(heap_from_word(path6, "334565")) == 0
    assert recorded.leading() == (heap_from_word(path6, "334556"), 1)


def test_lambda_square_monomial(edge36):
    h = heap_from_word(edge36, "3636")
    assert str(lambda_monomial(h)) == "[[3,6],[3,6]]"


def test_expand_lambda_square_leading_two(edge36):
    h = heap_from_word(edge36, "33")
    poly = _expand_lambda(h)
    assert poly.coefficient(h) == 2


def test_triangularity_small_graphs():
    """Leading coefficient 1 (Lyndon) or 2 (odd square); support above."""
    graphs = [Supergraph(["a", "b", "c"], [(0, 1), (1, 2)], psi=psi)
              for psi in ((), ("a",), ("a", "b"), ("a", "b", "c"))]
    graphs += [Supergraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], psi=("b",))]
    for g in graphs:
        for k in itertools.product(range(3), repeat=3):
            if not 0 < sum(k) <= 5:
                continue
            for heap in super_lyndon_heaps(g, k):
                poly = _expand_lambda(heap)
                expected = 1 if is_lyndon(heap) else 2
                assert poly.coefficient(heap) == expected
                key = standard_word(heap)
                assert all(standard_word(h) >= key for h in poly.terms)


# ---------------------------------------------------------------------------
# Bases.

def test_lyndon_basis_tree(tree6):
    basis = lyndon_heap_basis(tree6, (0, 0, 3, 0, 0, 3))
    assert len(basis) == 3 and basis.certificate.rank == 3


def test_lyndon_basis_path(path6):
    basis = lyndon_heap_basis(path6, (0, 0, 2, 1, 2, 1))
    assert len(basis) == 2 and basis.certificate.rank == 2


def test_lyndon_basis_single_vertex():
    g = Supergraph(["x"])
    basis = lyndon_heap_basis(g, (1,))
    assert len(basis) == 1 and str(basis.elements[0].monomial) == "x"


def test_lyndon_basis_empty_for_disconnected(p4):
    basis = lyndon_heap_basis(p4, (1, 0, 1, 0))
    assert len(basis) == 0


def test_super_letter_alphabet_path(path6):
    letters = {h.word() for h in super_letter_alphabet(path6, "3", (0, 0, 1, 2, 2, 1))}
    assert {"3", "34", "345", "3456", "344", "34545"} <= letters
    assert "334" not in letters and "435" not in letters


def test_super_letter_alphabet_edge(edge36):
    letters = [h.word() for h in super_letter_alphabet(edge36, "3", (1, 3))]
    assert letters == ["3", "36", "366", "3666"]


def test_super_letter_alphabet_edgeless():
    g = Supergraph(["a", "b"])
    letters = [h.word() for h in super_letter_alphabet(g, "b", (2, 2))]
    assert letters == ["b"]


def test_lln_basis_path(path6):
    basis = lln_basis(path6, (0, 0, 2, 1, 2, 1), "3")
    words = [e.word() for e in basis.elements]
    monos = [str(e.monomial) for e in basis.elements]
    assert words == ["334556", "334565"]
    assert monos == ["[3,[[[[3,4],5],5],6]]", "[3,[[[[3,4],5],6],5]]"]
    assert basis.certificate.rank == 2


def test_lln_basis_tree(tree6):
    basis = lln_basis(tree6, (0, 0, 3, 0, 0, 3), "3")
    assert [e.word() for e in basis.elements] == ["333666", "336366", "336636"]
    assert len(basis) == 3
    # two-vertex support: identical to the Lyndon-heaps monomials
    lyndon = lyndon_heap_basis(tree6, (0, 0, 3, 0, 0, 3))
    assert [str(e.monomial) for e in basis.elements] == [str(e.monomial) for e in lyndon.elements]


def test_lln_single_vertex_weight(tree6):
    basis = lln_basis(tree6, (0, 0, 1, 0, 0, 0), "3")
    assert len(basis) == 1 and str(basis.elements[0].monomial) == "3"


def test_lln_left_normed_when_base_used_once(path6):
    basis = lln_basis(path6, (0, 0, 1, 1, 2, 1), "3")
    assert len(basis) > 0
    for e in basis.elements:
        assert len(e.letters) == 1  # single super-letter: fully left normed
        # a left-normed monomial on m leaves opens all m-1 brackets up front
        assert str(e.monomial).startswith("[" * (sum((0, 0, 1, 1, 2, 1)) - 1))


def test_lln_base_outside_support_rejected(path6):
    with pytest.raises(InputError):
        lln_basis(path6, (0, 0, 2, 1, 2, 1), "1")


def test_lln_dimension_independent_of_base(path6):
    k = (0, 0, 2, 1, 2, 1)
    dims = {len(lln_basis(path6, k, base)) for base in ("3", "4", "5", "6")}
    assert dims == {2}


def test_dimension_agreement_small():
    g = Supergraph(["a", "b", "c"], [(0, 1), (1, 2)], psi=["b"])
    for k in itertools.product(range(3), repeat=3):
        if not (0 < sum(k) <= 5) or not is_connected_support(g, k):
            continue
        d = len(super_lyndon_heaps(g, k))
        assert lyndon_heap_basis(g, k).certificate.rank == d
        for base in support(k):
            assert lln_basis(g, k, base).certificate.rank == d


def _small_supergraphs():
    """Every supergraph on the vertices a, b, c, ... (1 to 3 of them), every psi."""
    for n in (1, 2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                for s in range(n + 1):
                    for psi in itertools.combinations(range(n), s):
                        yield Supergraph("abc"[:n], edges, psi=psi)


def test_lln_basis_matches_the_relabelled_graph():
    """The relabelled graph, with its base least, is the reference.

    Words, monomials, letters and certificates agree.  Expansions are over
    the graph's own heap basis: each heap's coefficient is the reference's
    times the sign of rewriting the heap's standard word into its word in
    the reference order.
    """
    triples = terms = flips = 0
    for g in _small_supergraphs():
        for k in itertools.product(range(4), repeat=g.n):
            if not 0 < sum(k) <= 6 or not is_connected_support(g, k):
                continue
            for base in (g.names[p] for p in support(k)):
                ref_graph = base_first(g, base)
                back = [g.index(v) for v in ref_graph.names]  # reference position -> g's
                got = lln_basis(g, k, base)
                ref = lln_basis(ref_graph, tuple(k[p] for p in back), base)
                assert got.graph is g and got.weight == k
                assert [e.word() for e in got.elements] == [e.word() for e in ref.elements]
                assert [str(e.monomial) for e in got.elements] == \
                    [str(e.monomial) for e in ref.elements]
                assert [[l.word() for l in e.letters] for e in got.elements] == \
                    [[l.word() for l in e.letters] for e in ref.elements]
                assert got.certificate == ref.certificate
                for e, r in zip(got.elements, ref.elements):
                    expected = {}
                    for h, c in r.expansion.terms.items():
                        heap = heap_from_pieces(g, [(back[p], lvl) for p, lvl in h.pieces])
                        word = [back[p] for p in standard_word(h)]
                        sign = rewriting_sign(g, standard_word(heap), word)
                        expected[heap] = sign * c
                        flips += sign < 0
                    assert e.expansion.terms == expected, (g, k, base, e.word())
                    terms += len(expected)
                triples += 1
    assert triples == 4062 and terms == 96483 and flips == 951


@pytest.mark.parametrize("path, weight", [
    (path, weight) for path, weights in BASIS_WEIGHTS.items() for weight in weights])
def test_lln_and_lyndon_bases_span_each_other(path, weight):
    """Both bases expand over one heap basis, so each solves in the other."""
    graph, _ = load_graph(os.path.join(ROOT, path))
    k = tuple(map(int, weight.split(",")))
    heaps_of_k = enumerate_heaps(graph, k)

    def coordinates(basis):
        return [[e.expansion.coefficient(h) for h in heaps_of_k] for e in basis.elements]

    lyndon = coordinates(lyndon_heap_basis(graph, k))
    bases = [base for base in ("3", "5") if k[graph.index(base)]]
    assert bases
    for base in bases:
        lln = coordinates(lln_basis(graph, k, base))
        assert len(lln) == len(lyndon)
        for columns, targets in ((lyndon, lln), (lln, lyndon)):
            for target in targets:
                solve_exact(columns, target)


@pytest.mark.parametrize("base", [None, "3"])
def test_basis_json_holds_one_dict_per_heap(path6, base):
    """Mutating one term's heap dict leaves the other terms of that heap,
    and a second ``to_json()``, unchanged."""
    k = (0, 0, 2, 1, 2, 1)
    basis = lyndon_heap_basis(path6, k) if base is None else lln_basis(path6, k, base)
    doc = basis.to_json()
    heap_docs = [t["heap"] for e in doc["elements"] for t in e["expansion"]]
    heaps_of_terms = {h for e in basis.elements for h in e.expansion.terms}
    assert (len(heap_docs), len(heaps_of_terms)) == (22, 18)
    for e_doc, e in zip(doc["elements"], basis.elements):
        assert e_doc["expansion"] == e.expansion.to_json()
    before = copy.deepcopy(heap_docs)
    shared = next(i for i, h in enumerate(heap_docs) if h in heap_docs[i + 1:])
    heap_docs[shared]["pieces"].append(["mutated", 0])
    assert [i for i, (h, b) in enumerate(zip(heap_docs, before)) if h != b] == [shared]
    again = basis.to_json()
    assert [t["heap"] for e in again["elements"] for t in e["expansion"]] == before
    poly = basis.elements[0].expansion
    poly.to_json()[0]["heap"]["pieces"].clear()
    assert poly.to_json() == again["elements"][0]["expansion"]


def test_lln_basis_interns_only_over_the_callers_graph(path6):
    clear_caches()
    basis = lln_basis(path6, (0, 1, 2, 1, 1, 0), "5")
    assert basis.graph is path6 and basis.weight == (0, 1, 2, 1, 1, 0)
    assert set(heaps._REGISTRY) == {path6}


# ---------------------------------------------------------------------------
# Lambda versus left-normed reading of super-letters.

def test_lambda_equals_e_examples(tree6, path6):
    for w in ("36", "366", "3666"):
        assert lambda_equals_e(heap_from_word(tree6, w))
    for w in ("34565", "34556"):
        assert not lambda_equals_e(heap_from_word(path6, w))


def test_lambda_equals_e_two_letters(path6):
    assert lambda_equals_e(heap_from_word(path6, "34"))


def test_lambda_equals_e_rejects_non_letter(path6):
    with pytest.raises(InputError):
        lambda_equals_e(heap_from_word(path6, "33"))


def test_lambda_equals_e_true_implies_equal_expansions(path6):
    """When the word condition holds the two readings expand identically.

    The converse fails on sparse supports: for the chain 3455 over the
    path the bracketed and left-normed trees differ but the cross term
    dies by commutation, so only the forward direction is asserted in
    general and the converse is pinned on the acceptance examples, where
    it does hold.
    """
    work = base_first(path6, "3")
    seen_true = seen_false = 0
    for w, heaps in heaps_up_to(work, (1, 0, 2, 2, 2, 2)).items():
        if w[0] != 1 or sum(w) < 2 or sum(w) > 5:
            continue
        for h in heaps:
            if not classify(h).super_letter:
                continue
            agree = lambda_equals_e(h)
            if agree:
                lam = _expand_lambda(h)
                e = expand_monomial(left_normed(work.names[p] for p in standard_word(h)), work)
                assert lam == e, h
            seen_true += agree
            seen_false += not agree
    assert seen_true and seen_false


def test_lambda_equals_e_is_the_tree_level_comparison(path6):
    """The predicate says exactly when the bracket tree is left normed.

    At the level of elements the two readings can coincide even when the
    trees differ (the discrepancies are brackets of commuting pairs, which
    vanish), so the faithful exhaustive biconditional is about trees.
    """
    work = base_first(path6, "3")
    for w, heaps in heaps_up_to(work, (1, 0, 2, 2, 2, 2)).items():
        if w[0] != 1 or not 2 <= sum(w) <= 6:
            continue
        for h in heaps:
            if not classify(h).super_letter:
                continue
            tree_equal = lambda_monomial(h) == \
                left_normed(work.names[p] for p in standard_word(h))
            assert lambda_equals_e(h) == tree_equal, h


def test_lambda_equals_e_counterexample_to_element_level_converse(path6):
    # 3455 fails the word condition yet both readings expand equally:
    # the difference is a bracket of the commuting odd pair {3,5}
    work = base_first(path6, "3")
    h = heap_from_word(work, "3455")
    assert not lambda_equals_e(h)
    assert _expand_lambda(h) == expand_monomial(left_normed("3455"), work)


# ---------------------------------------------------------------------------
# Span membership and the closure property.

def test_span_membership_unit_vector(tree6):
    k = (0, 0, 1, 0, 0, 1)
    basis = lln_basis(tree6, k, "3")
    coords = span_membership(tree6, ["3", "6"], basis)
    assert coords == [Fraction(1)]


def test_span_membership_worked_word(path6):
    k = (0, 0, 2, 1, 2, 1)
    basis = lln_basis(path6, k, "3")
    coords = span_membership(path6, list("456353"), basis)
    assert len(coords) == 2
    # reconstruct: the combination must reproduce the word's expansion exactly
    target = expand_monomial(left_normed("456353"), basis.graph)
    for h in enumerate_heaps(basis.graph, basis.weight):
        total = sum(c * e.expansion.coefficient(h) for c, e in zip(coords, basis.elements))
        assert total == target.coefficient(h)


def test_span_membership_zero_for_vanishing_word(path6):
    k = (0, 0, 1, 1, 1, 1)
    basis = lln_basis(path6, k, "3")
    coords = span_membership(path6, list("3546"), basis)
    assert all(c == 0 for c in coords)


def test_span_membership_refuses_wrong_weight_before_expanding(path6, monkeypatch):
    basis = lln_basis(path6, (0, 0, 2, 1, 2, 1), "3")

    def no_expansion(*args):
        raise AssertionError("the word was expanded before its weight was checked")

    monkeypatch.setattr("freeroots.superlie.expand_monomial", no_expansion)
    with pytest.raises(InputError):
        span_membership(path6, list("45635"), basis)


def test_span_membership_names_both_weights_in_the_basis_order(path6):
    # an LLN basis lives over the caller's graph, whatever its base
    basis = lln_basis(path6, (0, 0, 2, 1, 2, 1), "5")
    with pytest.raises(InputError) as err:
        span_membership(path6, list("4563"), basis)
    assert str(err.value) == ("word weight (0, 0, 1, 1, 1, 1) does not match basis "
                              "weight (0, 0, 2, 1, 2, 1) over vertices 1, 2, 3, 4, 5, 6")


def test_span_membership_refuses_a_word_over_another_graph():
    g = Supergraph(["1", "2", "3"], [(0, 1), (1, 2)], psi=["2"])
    basis = lyndon_heap_basis(g, (1, 1, 0))
    assert span_membership(g, "12", basis) == [Fraction(1)]
    # 1 and 2 commute in the edgeless graph, so "12" means another element there
    with pytest.raises(InputError):
        span_membership(Supergraph(["1", "2", "3"]), "12", basis)


def test_bracket_closure_below_larger_factor(edge36):
    """[L(small), L(large)] lies in the span of basis elements below large."""
    weights = [(1, 1), (2, 1), (1, 2), (2, 2)]
    pairs = []
    for ka in weights:
        for kb in weights:
            for a in super_lyndon_heaps(edge36, ka):
                for b in super_lyndon_heaps(edge36, kb):
                    if standard_word(a) < standard_word(b):
                        pairs.append((a, b))
    for a, b in pairs:
        target_poly = bracket_expand(_expand_lambda(a), _expand_lambda(b))
        total = tuple(x + y for x, y in zip(a.weight(), b.weight()))
        below = [n for n in super_lyndon_heaps(edge36, total)
                 if standard_word(n) < standard_word(b)]
        heaps = enumerate_heaps(edge36, total)
        cols = [[Fraction(_expand_lambda(n).coefficient(h)) for h in heaps] for n in below]
        rhs = [Fraction(target_poly.coefficient(h)) for h in heaps]
        solve_exact(cols, rhs)  # raises if not solvable


# ---------------------------------------------------------------------------
# Exact linear algebra, against a dense Bareiss rank and a Gauss-Jordan solve.

def bareiss_rank(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Rank of an integer matrix by Bareiss elimination; also pivot columns."""
    if not rows:
        return 0, []
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return r, pivots


def gauss_jordan_solve(columns: list[list], target: list) -> list[Fraction]:
    """Coefficients c with sum c_j * columns[j] = target, or raise.

    Gaussian elimination over exact rationals (integer entries are fine;
    the coefficients are fractions); raises ConsistencyError if
    the system is unsolvable and InputError if the solution is not unique.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    r = 0
    pivots = []
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            raise ConsistencyError("inconsistent linear system")
    if len(pivots) < ncols:
        raise InputError("solution is not unique (rank-deficient basis)")
    out = [Fraction(0)] * ncols
    for row, c in enumerate(pivots):
        out[c] = aug[row][ncols]
    return out


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4]])[0] == 1
    assert integer_rank([[1, 2], [3, 4]])[0] == 2
    assert integer_rank([[0, 0], [0, 0]])[0] == 0
    assert integer_rank([])[0] == 0
    rank, pivots = integer_rank([[0, 1, 1], [0, 2, 3]])
    assert rank == 2 and pivots == [1, 2]


def test_solve_exact_unique():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    out = solve_exact(cols, [Fraction(3), Fraction(2)])
    assert out == [Fraction(1), Fraction(2)]


def test_solve_exact_inconsistent():
    with pytest.raises(ConsistencyError):
        solve_exact([[Fraction(1), Fraction(2)]], [Fraction(1), Fraction(3)])


def test_solve_exact_rank_deficient():
    with pytest.raises(InputError):
        solve_exact([[1, 2], [2, 4]], [3, 6])


_SMALL = st.integers(-3, 3)
_FRACTIONS = st.builds(Fraction, _SMALL, st.integers(1, 3))


@st.composite
def _integer_matrices(draw):
    """At most 7 x 7 over [-3, 3], with zero, duplicate and dependent rows forced in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_SMALL, min_size=ncols, max_size=ncols), max_size=7))
    for _ in range(draw(st.integers(0, 7 - len(rows)))):
        kind = draw(st.sampled_from(("zero", "duplicate", "dependent")))
        if kind == "zero" or not rows:
            row = [0] * ncols
        elif kind == "duplicate":
            row = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(_SMALL), draw(_SMALL)
            row = [x * p + y * q for p, q in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_integer_matrices())
def test_integer_rank_matches_bareiss(rows):
    before = [list(r) for r in rows]
    assert integer_rank(rows) == bareiss_rank(rows)
    assert rows == before


@st.composite
def _fraction_systems(draw):
    """Unique, inconsistent and rank-deficient systems over small fractions."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    columns = [draw(st.lists(_FRACTIONS, min_size=nrows, max_size=nrows))
               for _ in range(ncols)]
    kind = draw(st.sampled_from(("solvable", "any", "inconsistent", "dependent")))
    if kind == "dependent" and columns:
        a, b = draw(st.sampled_from(columns)), draw(st.sampled_from(columns))
        x = draw(_FRACTIONS)
        columns.insert(draw(st.integers(0, ncols)),
                       [p + x * q for p, q in zip(a, b)])
    if kind == "any":
        return columns, draw(st.lists(_FRACTIONS, min_size=nrows, max_size=nrows))
    coeffs = draw(st.lists(_FRACTIONS, min_size=len(columns), max_size=len(columns)))
    target = [sum((c * col[i] for c, col in zip(coeffs, columns)), Fraction(0))
              for i in range(nrows)]
    if kind == "inconsistent":
        # repeat one equation with a different right-hand side
        i = draw(st.integers(0, nrows))
        row = [col[i] if i < nrows else Fraction(0) for col in columns]
        for col, x in zip(columns, row):
            col.append(x)
        target.append((target[i] if i < nrows else Fraction(0)) + draw(_FRACTIONS.filter(bool)))
    return columns, target


def _outcome(solve, columns, target):
    try:
        return solve(columns, target)
    except (InputError, ConsistencyError) as exc:
        return type(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_fraction_systems())
def test_solve_exact_matches_gauss_jordan(system):
    columns, target = system
    out = _outcome(solve_exact, columns, target)
    assert out == _outcome(gauss_jordan_solve, columns, target)
    if isinstance(out, list):
        assert all(type(c) is Fraction for c in out)


@pytest.mark.parametrize("path, weight", [
    (path, weight) for path, weights in BASIS_WEIGHTS.items() for weight in weights])
def test_certificates_pivot_on_the_least_heaps(path, weight):
    """By triangularity each expansion leads with its own least heap."""
    graph, _ = load_graph(os.path.join(ROOT, path))
    k = tuple(map(int, weight.split(",")))
    basis = lyndon_heap_basis(graph, k)
    column = {h: i for i, h in enumerate(enumerate_heaps(graph, k))}
    assert basis.certificate.pivot_columns == tuple(
        sorted(column[e.heap] for e in basis.elements))
    for base in support(k):
        # an lln certificate's columns are the heaps in the order that makes the base least
        b = graph.index(base)
        order = lambda h: tuple(-1 if p == b else p for p in greedy_word(graph, h.pieces, b))
        basis = lln_basis(graph, k, base)
        column = {h: i for i, h in enumerate(sorted(enumerate_heaps(graph, k), key=order))}
        assert basis.certificate.pivot_columns == tuple(
            sorted(column[min(e.expansion.terms, key=order)] for e in basis.elements))


# ---------------------------------------------------------------------------
# Monomial shape.

@pytest.mark.parametrize("kwargs", [
    {"name": "a", "left": leaf("b")},
    {"name": "a", "right": leaf("b")},
    {"left": leaf("a")},
    {"right": leaf("a")},
    {"name": "a", "left": leaf("b"), "right": leaf("c")},
    {},
])
def test_monomial_is_a_bare_name_or_two_children(kwargs):
    with pytest.raises(InputError):
        LieMonomial(**kwargs)


def test_super_letter_alphabet_ignores_the_cap_at_the_base(path6):
    alphabets = {super_letter_alphabet(path6, "3", (0, 1, c, 2, 2, 1)) for c in (0, 1, 3)}
    assert len(alphabets) == 1
    (alphabet,) = alphabets
    assert len(alphabet) > 10
    # pyramids on vertex "3" that use it once, over the caller's graph
    assert all(h.graph is path6 and h.weight()[2] == 1 and is_pyramid(h)
               and h.pieces[0][0] == 2 for h in alphabet)
