"""Free partially commutative Lie superalgebras in the heap basis.

Heaps index a basis of the enveloping algebra, so Lie elements are exact
integer combinations of heaps and every identity here is checked by
expanding.  The product of basis elements is the signed superposition
``u_E u_F = +-u_{EoF}``, the sign counting the odd letters that odd letters
pass in rewriting st(E) st(F) into st(EoF), as recorded while the product
is built.  The super bracket
``[x, y] = x o y - (-1)^{p(x) p(y)} y o x`` of parity-homogeneous operands
sums both products of each pair of terms into one polynomial.

Two bases are constructed for each graded piece: one by bracketing the
standard factorization of each super Lyndon heap, and one from super Lyndon
words over the super-letter alphabet of a chosen base vertex, with each
letter realized as a left-normed bracket.  Both come with a rank
certificate computed by fraction-free elimination; a rank drop raises, it
is never ignored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count

from .errors import InputError, ConsistencyError
from .supergraph import Supergraph, check_weight
from .heaps import (Heap, _superpose, single, standard_word,
                    enumerate_heaps, super_lyndon_heaps, is_super_letter, is_super_lyndon,
                    heaps_up_to, is_super_lyndon_word, word_standard_factorization,
                    _base_least, _heaps_with_words, _cut_super_letters, _spell)


# ---------------------------------------------------------------------------
# Lie monomials: binary bracket trees over generator leaves.

class LieMonomial:
    """leaf(vertex name) or bracket(left, right); immutable."""

    __slots__ = ("name", "left", "right", "_hash")

    def __init__(self, name=None, left=None, right=None):
        if (left is None) != (right is None) or (name is None) == (left is None):
            raise InputError("a monomial is a name with no children "
                             "or two children with no name")
        self.name = name
        self.left = left
        self.right = right
        self._hash = hash((name, left, right))

    @property
    def is_leaf(self):
        return self.name is not None

    def __eq__(self, other):
        if not isinstance(other, LieMonomial):
            return NotImplemented
        return (self.name == other.name and self.left == other.left
                and self.right == other.right)

    def __hash__(self):
        return self._hash

    def leaves(self):
        if self.is_leaf:
            yield self.name
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def weight(self, graph: Supergraph) -> tuple[int, ...]:
        k = [0] * graph.n
        for name in self.leaves():
            k[graph.index(name)] += 1
        return tuple(k)

    def __str__(self):
        if self.is_leaf:
            return self.name
        return f"[{self.left},{self.right}]"

    def __repr__(self):
        return f"LieMonomial({self})"


def leaf(name) -> LieMonomial:
    return LieMonomial(name=str(name))


def bracket(left: LieMonomial, right: LieMonomial) -> LieMonomial:
    return LieMonomial(left=left, right=right)


def left_normed(names) -> LieMonomial:
    """[[...[[a1,a2],a3]...],ar] over a sequence of vertex names."""
    names = list(names)
    if not names:
        raise InputError("empty left-normed word")
    out = leaf(names[0])
    for name in names[1:]:
        out = bracket(out, leaf(name))
    return out


# ---------------------------------------------------------------------------
# Heap polynomials.

class HeapPolynomial:
    """Exact integer combination of heaps over one supergraph."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: Supergraph, terms=None):
        """``terms`` maps heaps to coefficients; zero coefficients are dropped."""
        self.graph = graph
        self.terms = {h: c for h, c in terms.items() if c} if terms else {}

    @classmethod
    def generator(cls, graph: Supergraph, v) -> "HeapPolynomial":
        return cls(graph, {single(graph, v): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HeapPolynomial):
            return NotImplemented
        return self.graph == other.graph and self.terms == other.terms

    def __hash__(self):
        return hash((self.graph, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for heap, c in other.terms.items():
            out[heap] = out.get(heap, 0) + c
        return HeapPolynomial(self.graph, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar: int):
        return HeapPolynomial(self.graph, {h: c * scalar for h, c in self.terms.items()})

    __rmul__ = __mul__

    def parity(self) -> int | None:
        """Common parity of the supporting heaps; None for 0, error if mixed."""
        parities = {h.parity() for h in self.terms}
        if not parities:
            return None
        if len(parities) > 1:
            raise InputError("heap polynomial is not parity homogeneous")
        return parities.pop()

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda hc: standard_word(hc[0]))

    def leading(self):
        """(least heap, coefficient) in the heap order."""
        if not self.terms:
            return None
        h = min(self.terms, key=standard_word)
        return h, self.terms[h]

    def coefficient(self, heap: Heap) -> int:
        return self.terms.get(heap, 0)

    def to_json(self):
        return self._to_json({})

    def _to_json(self, heap_docs: dict):
        """The terms, each heap's dict taken from ``heap_docs`` or added to it."""
        out = []
        for h, c in self.sorted_terms():
            doc = heap_docs.get(h)
            if doc is None:
                doc = heap_docs[h] = h.to_json()
            out.append({"coeff": c, "heap": doc})
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{h.word()}" for h, c in self.sorted_terms())


@functools.lru_cache(maxsize=1 << 18)
def signed_superpose(e: Heap, f: Heap) -> tuple[Heap, int]:
    """Product of the basis elements indexed by e and f.

    The basis element of a heap is the image of its standard word, so the
    product is the image of the concatenation: the heap e o f together
    with the sign of rewriting st(e) st(f) into st(e o f).  Laying st(f) on
    st(e) is such a rewriting, and each interchange of odd letters costs -1.
    """
    graph = e.graph
    h, crossings = _superpose(e, f)
    odd = sum(1 << p for p in graph.psi)
    odd_pairs = sum(odd << p * graph.n for p in graph.psi)
    return h, -1 if (crossings & odd_pairs).bit_count() & 1 else 1


def bracket_expand(p: HeapPolynomial, q: HeapPolynomial) -> HeapPolynomial:
    """Super bracket x o y - (-1)^{p(x)p(y)} y o x of homogeneous operands."""
    pp, pq = p.parity(), q.parity()
    if not p or not q:
        return HeapPolynomial(p.graph)
    sign = 1 if (pp and pq) else -1
    out = {}
    for e, a in p.terms.items():
        for f, b in q.terms.items():
            h, s = signed_superpose(e, f)
            out[h] = out.get(h, 0) + a * b * s
            h, s = signed_superpose(f, e)
            out[h] = out.get(h, 0) + sign * a * b * s
    return HeapPolynomial(p.graph, out)


@functools.lru_cache(maxsize=None)
def expand_monomial(m: LieMonomial, graph: Supergraph) -> HeapPolynomial:
    """Integer heap expansion of a bracket tree (shared; do not mutate)."""
    if m.is_leaf:
        return HeapPolynomial.generator(graph, m.name)
    return bracket_expand(expand_monomial(m.left, graph),
                          expand_monomial(m.right, graph))


# ---------------------------------------------------------------------------
# Exact linear algebra: one fraction-free reduction to distinct leading
# columns gives both the rank certificate and the rational solve.

def _echelon(rows) -> dict:
    """The rows reduced to distinct leading columns, keyed by that column.

    Each row in turn is replaced by ``a*row - b*kept`` while a kept row
    leads in the same column, until it leads in a new column or vanishes.
    The kept rows span the row space of the input, so their leading columns
    are the pivot columns of every echelon form of it; rows that already
    lead in distinct columns (triangular expansions) cost no arithmetic.
    """
    kept = {}
    for row in rows:
        while (lead := next(compress(count(), row), None)) in kept:
            other = kept[lead]
            a, b = other[lead], row[lead]
            row = [a * x - b * y for x, y in zip(row, other)]
        if lead is not None:
            kept[lead] = row
    return kept


def integer_rank(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Rank of an integer matrix by fraction-free elimination; also pivot columns."""
    kept = _echelon(rows)
    return len(kept), sorted(kept)


def solve_exact(columns: list[list], target: list) -> list[Fraction]:
    """Coefficients c with sum c_j * columns[j] = target, or raise.

    Fraction-free elimination of the augmented system, then back
    substitution over exact rationals (integer entries are fine; the
    coefficients are fractions); raises ConsistencyError if the system is
    unsolvable and InputError if the solution is not unique.
    """
    ncols = len(columns)
    kept = _echelon([[col[i] for col in columns] + [t] for i, t in enumerate(target)])
    if ncols in kept:
        raise ConsistencyError("inconsistent linear system")
    if len(kept) < ncols:
        raise InputError("solution is not unique (rank-deficient basis)")
    out = [Fraction(0)] * ncols
    for c in reversed(range(ncols)):
        row = kept[c]
        rest = row[ncols] - sum(row[j] * out[j] for j in range(c + 1, ncols))
        out[c] = Fraction(rest) / row[c]
    return out


@dataclass(frozen=True)
class RankCertificate:
    rows: int
    cols: int
    rank: int
    pivot_columns: tuple[int, ...]
    method = "fraction-free elimination"  # a class attribute, not a field

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "rank": self.rank,
                "pivot_columns": list(self.pivot_columns), "method": self.method}


def _dense_rows(columns, polys) -> list[list[int]]:
    """The coefficient row of each polynomial over the heaps ``columns``."""
    col = {h: i for i, h in enumerate(columns)}
    rows = []
    for poly in polys:
        row = [0] * len(col)
        for h, c in poly.terms.items():
            row[col[h]] = c
        rows.append(row)
    return rows


def _expansion_matrix(k, columns, expansions) -> RankCertificate:
    """Full-row-rank certificate of expansions against the weight-k heaps ``columns``."""
    rows = _dense_rows(columns, expansions)
    rank, pivots = integer_rank(rows)
    cert = RankCertificate(len(rows), len(columns), rank, tuple(pivots))
    if rank != len(rows):
        raise ConsistencyError(
            f"expansion matrix of weight {tuple(k)} has rank {rank} < {len(rows)}")
    return cert


# ---------------------------------------------------------------------------
# The Lyndon-heaps basis.

def _word_tree(word, leaf_of) -> LieMonomial:
    """Bracket tree of a super Lyndon word by recursive standard factorization.

    ``leaf_of`` turns a letter into its leaf monomial.
    """
    if len(word) == 1:
        return leaf_of(word[0])
    u, v = word_standard_factorization(word)
    return bracket(_word_tree(u, leaf_of), _word_tree(v, leaf_of))


@functools.lru_cache(maxsize=None)
def lambda_monomial(heap: Heap) -> LieMonomial:
    """Bracket tree from the recursive standard factorization.

    The factorization of a super Lyndon heap is the split of its standard
    word, and each part's standard word is the corresponding subword, so
    the tree is built on the word with vertex names as leaves.
    """
    if not is_super_lyndon(heap):
        raise InputError(f"{heap!r} is not a super Lyndon heap")
    names = heap.graph.names
    return _word_tree(standard_word(heap), lambda p: leaf(names[p]))


def _expand_lambda(heap: Heap) -> HeapPolynomial:
    return expand_monomial(lambda_monomial(heap), heap.graph)


@dataclass(frozen=True)
class BasisElement:
    heap: Heap
    monomial: LieMonomial
    expansion: HeapPolynomial
    letters: tuple[Heap, ...] | None = None

    def word(self) -> str:
        """The heap's standard word; an lln element's is in the order that
        makes its base least, which its letters spell."""
        if self.letters:
            return _spell(self.heap.graph, [p for l in self.letters for p in standard_word(l)])
        return self.heap.word()


@dataclass(frozen=True)
class GradedBasis:
    graph: Supergraph
    weight: tuple[int, ...]
    elements: tuple[BasisElement, ...]
    certificate: RankCertificate

    def __len__(self):
        return len(self.elements)

    def monomial_strings(self) -> list[str]:
        return [str(e.monomial) for e in self.elements]

    def to_json(self):
        """The basis as a JSON document.  Expansion terms of one heap share
        one heap dict, so copy a dict before mutating it."""
        heap_docs = {}
        return {
            "weight": list(self.weight),
            "dimension": len(self.elements),
            "elements": [{
                "word": e.word(),
                "monomial": str(e.monomial),
                **({"letters": [l.word() for l in e.letters]} if e.letters else {}),
                "expansion": e.expansion._to_json(heap_docs),
            } for e in self.elements],
            "certificate": self.certificate.to_json(),
        }


def lyndon_heap_basis(graph: Supergraph, k) -> GradedBasis:
    """One bracket monomial per super Lyndon heap of weight k, rank-certified."""
    k = check_weight(graph, k)
    elements = []
    for heap in super_lyndon_heaps(graph, k):
        elements.append(BasisElement(heap, lambda_monomial(heap), _expand_lambda(heap)))
    cert = _expansion_matrix(k, enumerate_heaps(graph, k), [e.expansion for e in elements])
    return GradedBasis(graph, k, tuple(elements), cert)


# ---------------------------------------------------------------------------
# Super-letter alphabets and the left-normed (LLN) basis.

def super_letter_alphabet(graph: Supergraph, base, weight_cap) -> tuple[Heap, ...]:
    """All super-letters with the given base, weight <= cap, ascending.

    They are heaps over ``graph``: pyramids on ``base`` that use it once,
    whatever the cap says there.
    """
    weight_cap = check_weight(graph, weight_cap)
    b = graph.index(base)
    cap = weight_cap[:b] + (1,) + weight_cap[b + 1:]
    letters = [h for hs in heaps_up_to(graph, cap).values() for h in hs
               if is_super_letter(h, b)]
    return tuple(sorted(letters, key=standard_word))


def lln_basis(graph: Supergraph, k, base) -> GradedBasis:
    """Basis from super Lyndon words over the super-letter alphabet of ``base``.

    The basis lives over ``graph``, and expands in the heap basis that
    :func:`lyndon_heap_basis` uses; the base only orders words.  The heaps
    of weight k, the enumeration's list, are sorted by their words in the
    order that makes ``base`` least, and index the certificate's columns
    in that order; those whose word is super Lyndon index the basis.  Each
    such heap's super-letter factorization is a super Lyndon word over the
    alphabet, whose letters compare by their standard words; its bracket
    tree follows the word's standard factorization and each letter becomes
    the left-normed bracket of its standard word.
    """
    k = check_weight(graph, k)
    b = graph.index(base)
    if not k[b]:
        raise InputError(f"base vertex {graph.names[b]!r} is not in the support")
    rank = _base_least(graph, b)
    odd = {rank[p] for p in graph.psi}
    columns, elements = [], []
    for heap, base_first in _heaps_with_words(graph, k, b):
        columns.append(heap)
        if not is_super_lyndon_word(tuple(rank[p] for p in base_first), odd):
            continue
        letters = _cut_super_letters(heap, base_first, b)
        word = tuple(standard_word(l) for l in letters)
        odd_letters = {w for w, l in zip(word, letters) if l.parity()}
        if not is_super_lyndon_word(word, odd_letters):
            raise ConsistencyError(
                f"{heap!r} factors into super-letters but the word is not super Lyndon")
        monomial = _word_tree(word, lambda w: left_normed(graph.names[p] for p in w))
        elements.append(BasisElement(heap, monomial,
                                     expand_monomial(monomial, graph), letters))
    cert = _expansion_matrix(k, columns, [e.expansion for e in elements])
    return GradedBasis(graph, k, tuple(elements), cert)


def lambda_equals_e(heap: Heap) -> bool:
    """Whether a super-letter's factorization tree is its left-normed tree.

    True exactly when, in the order that makes the base a1 least, the
    standard word a1...ar has a1 < ar <= a(r-1) <= ... <= a2; then the two
    expansions coincide.  A super-letter uses its base once, so a1 < ar
    always holds, and the graph's order gives the same word and the same
    comparisons of the other letters.  (When false the trees differ but
    the expansions can still collide via vanishing brackets of commuting
    pairs.)
    """
    if not heap:
        raise InputError("empty heap")
    if not is_super_letter(heap, heap.pieces[0][0]):
        raise InputError(f"{heap!r} is not a super-letter")
    w = standard_word(heap)
    return all(w[j] >= w[j + 1] for j in range(1, len(w) - 1))


def span_membership(graph: Supergraph, letters, basis: GradedBasis) -> list[Fraction]:
    """Exact coordinates of the left-normed word over ``graph`` in a
    rank-certified basis over that same graph."""
    if graph is not basis.graph:
        raise InputError("the word's graph is not the graph of the basis")
    monomial = left_normed(graph.names[graph.index(v)] for v in letters)
    k = monomial.weight(graph)
    if k != basis.weight:
        raise InputError(
            f"word weight {k} does not match basis weight {basis.weight} "
            f"over vertices {', '.join(graph.names)}")
    polys = [e.expansion for e in basis.elements]
    polys.append(expand_monomial(monomial, graph))
    *columns, target = _dense_rows(enumerate_heaps(graph, k), polys)
    return solve_exact(columns, target)
