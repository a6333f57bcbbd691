"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its time budget.
"""

import itertools
import time

from fractions import Fraction

from freeroots import Supergraph
from freeroots.supergraph import is_connected_support, is_free_weight, support
from freeroots.heaps import (heap_from_word, enumerate_heaps, standard_word,
                             lyndon_heaps, super_lyndon_heaps, is_lyndon)
from freeroots.superlie import (lyndon_heap_basis, lln_basis, lambda_equals_e,
                                _expand_lambda)
from freeroots.chromatic import (RationalPoly, k_chromatic_direct,
                                 k_chromatic_bond)
from freeroots.multiplicity import mult_free_root, verify_pbw, \
    verify_cartier_foata
from freeroots.cli import run_verification_suite

from conftest import TREE6_MATRIX  # noqa: F401  (documents the matrix source)
from heap_oracles import decompositions, standard_factorization
from conftest import fraction_binomial, fraction_product


def _report(tag, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} ({elapsed:.2f}s, budget {budget}s)")


def _tree6():
    return Supergraph(["1", "2", "3", "4", "5", "6"],
                      [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4)],
                      psi=[2, 4], real=[0, 3])


def _path6():
    return Supergraph(["1", "2", "3", "4", "5", "6"],
                      [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                      psi=[2, 4], real=[0, 3])


def test_c01_odd_root_multiplicity_three():
    t0 = time.time()
    g = _tree6()
    k = (0, 0, 3, 0, 0, 3)
    poly = k_chromatic_direct(g, k)
    expected = RationalPoly(fraction_product(fraction_binomial((0, 1), 3),
                                             fraction_binomial((-3, 1), 3)))
    records = mult_free_root(g, k, "both")
    heap_count = len(super_lyndon_heaps(g, k))
    ok = (poly == expected and records.recursion == 3
          and records.closed_form == 3 and heap_count == 3)
    elapsed = time.time() - t0
    _report("C1 odd-root multiplicity", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_c02_even_root_multiplicity_one():
    t0 = time.time()
    g = _tree6()
    k = (2, 1, 0, 1, 2, 0)
    poly = k_chromatic_direct(g, k)
    q_minus = [(-r, 1) for r in (0, 1, 1, 1, 2, 2)]  # q(q-1)^3(q-2)^2
    expected = RationalPoly(c / 4 for c in fraction_product(*q_minus))
    # the weight uses the real vertex 1 twice, so its multiplicity lives in
    # the plain regime where the grade space carries no Serre relations
    plain = Supergraph(g.names, tuple(g.edges), psi=sorted(g.psi))
    m = mult_free_root(plain, k, "both")
    ok = poly == expected and m.recursion == 1 and m.closed_form == 1
    elapsed = time.time() - t0
    _report("C2 even-root multiplicity", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_c03_lyndon_heap_basis_of_the_tree():
    t0 = time.time()
    g = _tree6()
    k = (0, 0, 3, 0, 0, 3)
    heaps = super_lyndon_heaps(g, k)
    words = [h.word() for h in heaps]
    splits = {}
    for h in heaps:
        f, n = standard_factorization(h)
        splits[h.word()] = (f.word(), n.word())
    basis = lyndon_heap_basis(g, k)
    monomials = set(basis.monomial_strings())
    ok = (set(words) == {"336636", "333666", "336366"}
          and splits["336636"] == ("3366", "36")
          and splits["333666"] == ("3", "33666")
          and splits["336366"] == ("3", "36366")
          and monomials == {"[[3,[[3,6],6]],[3,6]]",
                            "[3,[3,[[[3,6],6],6]]]",
                            "[3,[[3,6],[[3,6],6]]]"}
          and basis.certificate.rank == 3)
    elapsed = time.time() - t0
    _report("C3 Lyndon-heap basis (two-vertex support)", ok, elapsed, 1)
    assert ok and elapsed < 1


def test_c04_bases_of_the_path_weight():
    t0 = time.time()
    g = _path6()
    k = (0, 0, 2, 1, 2, 1)
    problems = []

    # 565 is not Lyndon (its class minimum is 556), so 4565 splits as
    # 456 o 5 and 334565 brackets as [3,[3,[[4,[5,6]],5]]]
    splits = []
    heap = heap_from_word(g, "334565")
    while len(heap) > 1:
        f, heap = standard_factorization(heap)
        splits.append((f.word(), heap.word()))
    if splits != [("3", "34565"), ("3", "4565"), ("456", "5")]:
        problems.append(f"splits along 334565: {splits}")

    lyndon = lyndon_heap_basis(g, k)
    expected_lyndon = {"334556": "[3,[3,[4,[5,[5,6]]]]]",
                       "334565": "[3,[3,[[4,[5,6]],5]]]"}
    got_lyndon = {e.word(): str(e.monomial) for e in lyndon.elements}
    if got_lyndon != expected_lyndon:
        problems.append(f"Lyndon-heap monomials: {got_lyndon}")

    lln = lln_basis(g, k, "3")
    expected_lln = {"334556": "[3,[[[[3,4],5],5],6]]",
                    "334565": "[3,[[[[3,4],5],6],5]]"}
    got_lln = {e.word(): str(e.monomial) for e in lln.elements}
    if got_lln != expected_lln:
        problems.append(f"LLN monomials: {got_lln}")
    if lyndon.certificate.rank != 2 or lln.certificate.rank != 2:
        problems.append("expected both ranks to equal 2")

    tree = _tree6()
    for word, expected in (("34565", False), ("34556", False),
                           ("36", True), ("366", True), ("3666", True)):
        graph = g if word.startswith("34") else tree
        if lambda_equals_e(heap_from_word(graph, word)) != expected:
            problems.append(f"lambda/e predicate wrong for {word}")

    elapsed = time.time() - t0
    if elapsed >= 1:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _report("C4 bases of the path weight", not problems, elapsed, 1)
    assert not problems, "; ".join(problems)


# ---------------------------------------------------------------------------
# Sweep helpers shared by criteria 5 and 7.

NAMES = ("a", "b", "c", "d")


def _all_supergraphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                for s in range(n + 1):
                    for psi in itertools.combinations(range(n), s):
                        yield n, edges, psi


def _sweep_weights(graph, max_ht=6, max_k=3):
    for k in itertools.product(range(max_k + 1), repeat=graph.n):
        if 0 < sum(k) <= max_ht and is_free_weight(graph, k) \
                and is_connected_support(graph, k):
            yield k


def _reduced(edges, psi, k):
    """Canonical key of the induced support instance (order preserved)."""
    sup = support(k)
    pos = {v: i for i, v in enumerate(sup)}
    sset = set(sup)
    red_edges = tuple(sorted((pos[a], pos[b]) for a, b in edges
                             if a in sset and b in sset))
    red_psi = tuple(sorted(pos[v] for v in psi if v in sset))
    red_k = tuple(k[v] for v in sup)
    return len(sup), red_edges, red_psi, red_k


def test_c05_bond_lattice_identity_sweep():
    t0 = time.time()
    cache = {}
    items = 0
    for n, edges, psi in _all_supergraphs(4):
        g = Supergraph(NAMES[:n], edges, psi=psi)
        for k in _sweep_weights(g):
            items += 1
            key = _reduced(edges, psi, k)
            if key not in cache:
                m, re, rp, rk = key
                sub = Supergraph(NAMES[:m], re, psi=rp)
                lhs = k_chromatic_direct(sub, rk)
                rhs = k_chromatic_bond(sub, rk)
                cache[key] = (lhs == rhs)
            assert cache[key], (edges, psi, k)
    elapsed = time.time() - t0
    _report(f"C5 bond-lattice identity over {items} instances", True, elapsed, 300)
    assert elapsed < 300


def test_c06_triangularity_three_vertex():
    t0 = time.time()
    checked = 0
    for edges in (((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))):
        for s in range(4):
            for psi in itertools.combinations(range(3), s):
                g = Supergraph(["a", "b", "c"], edges, psi=psi)
                for k in itertools.product(range(7), repeat=3):
                    if not 0 < sum(k) <= 6:
                        continue
                    for heap in super_lyndon_heaps(g, k):
                        poly = _expand_lambda(heap)
                        expected = 1 if is_lyndon(heap) else 2
                        assert poly.coefficient(heap) == expected, heap
                        key = standard_word(heap)
                        assert all(standard_word(h) >= key for h in poly.terms), heap
                        checked += 1
    elapsed = time.time() - t0
    _report(f"C6 triangularity of {checked} expansions", True, elapsed, 120)
    assert elapsed < 120


def test_c07_dimension_triangle_sweep():
    t0 = time.time()
    cache = {}
    items = 0
    for n, edges, psi in _all_supergraphs(4):
        g = Supergraph(NAMES[:n], edges, psi=psi)
        for k in _sweep_weights(g):
            items += 1
            key = _reduced(edges, psi, k)
            if key not in cache:
                m, re, rp, rk = key
                sub = Supergraph(NAMES[:m], re, psi=rp)
                dims = {len(super_lyndon_heaps(sub, rk)),
                        lyndon_heap_basis(sub, rk).certificate.rank,
                        mult_free_root(sub, rk)}
                for base in support(rk):
                    dims.add(lln_basis(sub, rk, base).certificate.rank)
                cache[key] = (len(dims) == 1)
            assert cache[key], (edges, psi, k)
    elapsed = time.time() - t0
    _report(f"C7 dimension triangle over {items} instances", True, elapsed, 600)
    assert elapsed < 600


def test_c08_series_oracles():
    t0 = time.time()
    for edges in itertools.chain.from_iterable(
            itertools.combinations([(0, 1), (0, 2), (1, 2)], r) for r in range(4)):
        for s in range(4):
            for psi in itertools.combinations(range(3), s):
                g = Supergraph(["a", "b", "c"], edges, psi=psi)
                assert verify_pbw(g, (3, 3, 3)).ok, (edges, psi)
                assert verify_cartier_foata(g, (3, 3, 3)).ok, (edges, psi)
    for s in range(5):
        for psi in itertools.combinations(range(4), s):
            g = Supergraph(["1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3)], psi=psi)
            assert verify_pbw(g, (2, 2, 2, 2)).ok, psi
            assert verify_cartier_foata(g, (2, 2, 2, 2)).ok, psi
    elapsed = time.time() - t0
    _report("C8 series oracles", True, elapsed, 120)
    assert elapsed < 120


def test_c09_factorization_consistency():
    t0 = time.time()
    checked = 0
    for edges in ((), ((0, 1),), ((0, 2),), ((1, 2),), ((0, 1), (1, 2)),
                  ((0, 1), (0, 2)), ((0, 2), (1, 2)), ((0, 1), (1, 2), (0, 2))):
        g = Supergraph(["a", "b", "c"], edges)
        for k in itertools.product(range(7), repeat=3):
            if not 2 <= sum(k) <= 6:
                continue
            for heap in lyndon_heaps(g, k):
                best = None
                for f, n in decompositions(heap):
                    if is_lyndon(n) and (best is None
                                         or standard_word(n) < standard_word(best[1])):
                        best = (f, n)
                assert standard_factorization(heap) == best, heap
                checked += 1
    elapsed = time.time() - t0
    _report(f"C9 factorization vs search on {checked} heaps", True, elapsed, 60)
    assert elapsed < 60


def test_c10_method_discrepancy_is_flagged_not_fatal():
    t0 = time.time()
    g = Supergraph(["v"], psi=["v"])
    record = mult_free_root(g, (2,), "both")
    ok = (record.closed_form == 0 and record.recursion == 1
          and not record.agree
          and len(super_lyndon_heaps(g, (2,))) == 1)
    reports, suite_ok = run_verification_suite(g, (4,))
    flagged = next(r for r in reports if "discrepanc" in r["name"])
    ok = ok and suite_ok and "1 weight(s) flagged" in flagged["detail"]
    elapsed = time.time() - t0
    _report("C10 closed-form discrepancy handling", ok, elapsed, 1)
    assert ok and elapsed < 1
