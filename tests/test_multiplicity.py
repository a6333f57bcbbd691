import itertools
import math
from dataclasses import astuple

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freeroots import InputError, ConsistencyError, Supergraph
from freeroots.chromatic import _tuple_counts, linear_coefficient
from freeroots.heaps import _super_lyndon_counts, enumerate_heaps, super_lyndon_heaps
from freeroots.multiplicity import (moebius, divisors, mult_free_root,
                                    free_roots_up_to, verify_pbw,
                                    verify_cartier_foata, SeriesReport, MultRecord)
from freeroots.supergraph import (independent_sets, is_connected_support,
                                  is_free_weight, plain, support, weight_parity,
                                  weights_up_to)

from conftest import shifted_log_count


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
    assert mult_free_root(path6, k) == abs(linear_coefficient(path6, k))


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
# The routes the integer kernel M_k = ht(k) [x^k] log I(G, x) replaced, kept
# as oracles: the linear coefficient sum_m (-1)^(m-1) c_m / m over the tuple
# counts c_m, and both methods as Fraction sums of its magnitude.

def oracle_linear_coefficient(graph, k):
    counts = _tuple_counts(plain(graph), k)
    return sum((Fraction((-1) ** (m - 1) * c, m) for m, c in enumerate(counts) if m),
               Fraction(0))


def oracle_mult_recursion(graph, k):
    total = abs(oracle_linear_coefficient(graph, k))
    for l in divisors(math.gcd(*k))[1:]:
        sub = tuple(x // l for x in k)
        total -= (Fraction((-1) ** ((l + 1) * weight_parity(graph, sub)), l)
                  * oracle_mult_recursion(graph, sub))
    assert total.denominator == 1 and total >= 0, (graph, k, total)
    return int(total)


def oracle_closed_form(graph, k):
    total = sum(Fraction(moebius(l), l)
                * abs(oracle_linear_coefficient(graph, tuple(x // l for x in k)))
                for l in divisors(math.gcd(*k)))
    return int(total) if total.denominator == 1 else total


def oracle_record(graph, k):
    connected = is_connected_support(graph, k)
    rec = oracle_mult_recursion(graph, k) if connected else 0
    closed = oracle_closed_form(graph, k) if connected else 0
    return MultRecord(weight=k, parity="odd" if weight_parity(graph, k) else "even",
                      recursion=rec, closed_form=closed, agree=(closed == rec),
                      linear_coefficient=abs(oracle_linear_coefficient(graph, k)))


def assert_matches_oracle(graph, k):
    """``linear_coefficient`` and, on a free nonzero weight, the record of
    both methods equal the oracles', field by field and type by type."""
    got = linear_coefficient(graph, k)
    assert got == oracle_linear_coefficient(graph, k) and type(got) is Fraction, (graph, k)
    if any(k) and is_free_weight(graph, k):
        record, want = mult_free_root(graph, k, "both"), oracle_record(graph, k)
        assert record == want, (graph, k)
        assert list(map(type, astuple(record))) == list(map(type, astuple(want))), (graph, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_kernel_matches_the_fraction_routes_on_small_supergraphs(n):
    """Every weight with entries <= 3 on every graph on n vertices, under
    every psi for n <= 3; on 4 vertices, psi empty and one supergraph per
    isomorphism class."""
    for graph in small_supergraphs(n):
        if n == 4 and graph.psi and not least_in_isomorphism_class(graph):
            continue
        for k in itertools.product(range(4), repeat=n):
            assert_matches_oracle(graph, k)


def test_integer_kernel_matches_the_fraction_routes_on_sample_weights(tree6, path6):
    """Real vertices, and weights of gcd 2 and 3, (0, 2, 2, 0, 0, 2) being
    the square of an odd weight."""
    for graph in (tree6, path6):
        for k in ((0, 0, 3, 0, 0, 3), (0, 2, 2, 0, 0, 2), (0, 3, 3, 0, 3, 3),
                  (1, 2, 2, 1, 1, 2), (0, 0, 2, 1, 2, 1)):
            assert_matches_oracle(graph, k)


@pytest.mark.parametrize("graph, w, shift, k, shown", [
    # M_(1,1) = -2 on an edge: |M| = 3 gives 3/2
    (Supergraph(["a", "b"], [(0, 1)]), (1, 1), -1, (1, 1), "3/2"),
    # M_(2) = -1 on an even vertex: |M| = 0 gives (0 - 1) / 2
    (Supergraph(["v"]), (2,), 1, (2,), "-1/2"),
    # mult(1) = 3 makes ht(2) mult(2) = 1 - 1 * 3 = -2
    (Supergraph(["v"]), (1,), 2, (2,), "-1"),
])
def test_recursion_refuses_a_remainder_or_a_negative_value(
        graph, w, shift, k, shown, fresh_caches, monkeypatch):
    shifted_log_count(monkeypatch, w, shift)
    with pytest.raises(ConsistencyError) as info:
        mult_free_root(graph, k)
    assert str(info.value) == f"multiplicity recursion gave {shown} at weight {k}"


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


def corrupted_counts(w, index, value):
    """``_super_lyndon_counts`` with its heap (index 0) or super Lyndon
    (index 1) count at weight w replaced by ``value``."""
    def counts(graph, cap):
        out = [list(c) for c in _super_lyndon_counts(graph, cap)]
        out[index][list(weights_up_to(cap)).index(w)] = value
        return tuple(map(tuple, out))
    return counts


def test_pbw_detects_wrong_dimension(monkeypatch):
    """The check is not vacuous: corrupt one dimension and it must fail."""
    import freeroots.multiplicity as mm
    g = Supergraph(["v"], psi=["v"])
    monkeypatch.setattr(mm, "_super_lyndon_counts", corrupted_counts((2,), 1, 0))
    report = mm.verify_pbw(g, (4,))
    want = oracle_pbw(g, (4,), dims={**oracle_dims(g, (4,)), (2,): 0})
    assert not report.ok and report.first_mismatch == (2,)
    assert (report.expected, report.got) == (want.expected, want.got) == (0, 1)
    assert report == want


def test_cartier_foata_detects_wrong_heap_count(monkeypatch):
    """Corrupt one heap count and the inversion must fail there."""
    import freeroots.multiplicity as mm
    g = Supergraph(["a", "b"], [(0, 1)], psi=["a"])
    monkeypatch.setattr(mm, "_super_lyndon_counts", corrupted_counts((1, 1), 0, 3))
    report = mm.verify_cartier_foata(g, (2, 2))
    want = oracle_cartier_foata(g, (2, 2), heaps={**oracle_heap_series(g, (2, 2)), (1, 1): 3})
    assert not report.ok and report.first_mismatch == (1, 1)
    assert report == want


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
def supergraphs_with_free_connected_weights(draw, min_n=1, max_n=5, max_ht=5):
    """A supergraph on ``min_n`` to ``max_n`` vertices with random psi, psi0
    and real vertices, and a free weight with connected support of height at
    most ``max_ht``, grown one letter at a time next to the support."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    psi = draw(st.sets(st.integers(0, n - 1)))
    psi0 = draw(st.sets(st.sampled_from(sorted(psi)))) if psi else set()
    even = [v for v in range(n) if v not in psi0]
    real = draw(st.sets(st.sampled_from(even))) if even else set()
    graph = Supergraph("abcdefg"[:n], edges, psi=psi, real=real, psi0=psi0)
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(supergraphs_with_free_connected_weights(min_n=5, max_n=7, max_ht=9))
def test_integer_kernel_matches_the_fraction_routes_on_random_supergraphs(case):
    """Graphs too big for the heap count to be an oracle."""
    assert_matches_oracle(*case)


# ---------------------------------------------------------------------------
# The series oracles against the route they replaced: heaps and super Lyndon
# heaps enumerated weight by weight, and series held as dicts weight ->
# coefficient, multiplied pair by pair.  Truncation at a smaller cap commutes
# with the products, so series built once at a cap give the oracle's report
# at every cap below it.

PBW = "heap series vs graded product"
CARTIER_FOATA = "heap series times alternating independence sum"


def dict_series_mul(a, b, cap):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            if any(x > c for x, c in zip(w, cap)):
                continue
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def dict_series_compare(a, b, cap, description):
    for w in weights_up_to(cap):
        ca, cb = a.get(w, 0), b.get(w, 0)
        if ca != cb:
            return SeriesReport(False, description, w, cb, ca)
    return SeriesReport(True, description)


def oracle_heap_series(graph, cap):
    return {w: len(enumerate_heaps(graph, w)) for w in weights_up_to(cap)}


def oracle_dims(graph, cap):
    return {w: len(super_lyndon_heaps(graph, w)) for w in weights_up_to(cap)}


def oracle_graded_product(graph, cap, dims):
    """Product over w <= cap of (1 - x^w)^(-d) (w even) or (1 + x^w)^d (w odd)."""
    rhs = {tuple([0] * graph.n): 1}
    for w in weights_up_to(cap):
        d = dims[w]
        if not any(w) or not d:
            continue
        top = min(c // x for c, x in zip(cap, w) if x)
        factor = {}
        for j in range(top + 1):
            jw = tuple(j * x for x in w)
            if weight_parity(graph, w) == 0:
                factor[jw] = math.comb(d - 1 + j, j)
            elif j <= d:
                factor[jw] = math.comb(d, j)
        rhs = dict_series_mul(rhs, factor, cap)
    return rhs


def oracle_inverted(graph, cap, heaps):
    """The heap series times the alternating sum over independent sets."""
    inv = {}
    for sub in independent_sets(graph, support(cap)):
        w = tuple(1 if i in sub else 0 for i in range(graph.n))
        inv[w] = 1 if len(sub) % 2 == 0 else -1
    return dict_series_mul(heaps, inv, cap)


def oracle_pbw(graph, cap, dims=None):
    product = oracle_graded_product(graph, cap, dims or oracle_dims(graph, cap))
    return dict_series_compare(oracle_heap_series(graph, cap), product, cap, PBW)


def oracle_cartier_foata(graph, cap, heaps=None):
    inverted = oracle_inverted(graph, cap, heaps or oracle_heap_series(graph, cap))
    return dict_series_compare(inverted, {tuple([0] * graph.n): 1}, cap, CARTIER_FOATA)


def assert_series_match_oracle(graph, top, caps):
    """Counts and reports at each cap <= top against the oracle's series at top."""
    heaps, dims = oracle_heap_series(graph, top), oracle_dims(graph, top)
    product = oracle_graded_product(graph, top, dims)
    inverted = oracle_inverted(graph, top, heaps)
    unit = {tuple([0] * graph.n): 1}
    for cap in caps:
        assert _super_lyndon_counts(graph, cap) == tuple(
            tuple(series[w] for w in weights_up_to(cap)) for series in (heaps, dims)), (graph, cap)
        assert verify_pbw(graph, cap) == dict_series_compare(heaps, product, cap, PBW), (graph, cap)
        assert verify_cartier_foata(graph, cap) == dict_series_compare(
            inverted, unit, cap, CARTIER_FOATA), (graph, cap)


def small_supergraphs(n):
    """Every supergraph on the vertices a, b, ... (n of them), every psi."""
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            for q in range(n + 1):
                for psi in itertools.combinations(range(n), q):
                    yield Supergraph("abcd"[:n], edges, psi=psi)


def least_in_isomorphism_class(graph):
    """Whether no relabelling gives the graph a smaller (edges, psi)."""
    def form(perm):
        return (sorted(tuple(sorted((perm[a], perm[b]))) for a, b in graph.edges),
                sorted(perm[v] for v in graph.psi))
    return all(form(range(graph.n)) <= form(p)
               for p in itertools.permutations(range(graph.n)))


def test_series_match_oracle_on_the_vertex_free_graph():
    assert_series_match_oracle(Supergraph([]), (), [()])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_series_match_oracle_on_small_supergraphs(n):
    """Every cap with entries <= 2, zero entries included.

    Every supergraph on n <= 3 vertices; on 4 vertices, one supergraph per
    isomorphism class (90 of the 1,024), as the old route needs about 30 ms
    a graph at cap (2, 2, 2, 2).
    """
    caps = list(itertools.product(range(3), repeat=n))
    graphs = [g for g in small_supergraphs(n) if n < 4 or least_in_isomorphism_class(g)]
    assert len(graphs) == {1: 2, 2: 8, 3: 64, 4: 90}[n]
    for graph in graphs:
        assert_series_match_oracle(graph, caps[-1], caps)


@st.composite
def supergraphs_with_caps(draw):
    n = draw(st.integers(5, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    psi = draw(st.sets(st.integers(0, n - 1)))
    cap = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
        lambda c: sum(c) <= 7))
    return Supergraph("abcdef"[:n], edges, psi=psi), tuple(cap)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(supergraphs_with_caps())
def test_series_match_oracle_on_random_supergraphs(case):
    graph, cap = case
    assert_series_match_oracle(graph, cap, [cap])
