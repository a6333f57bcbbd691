"""Free partially commutative Lie superalgebras in the heap basis.

Heaps index a basis of the enveloping algebra, so Lie elements are exact
integer combinations of heaps and every identity here is checked by
expanding.  The product of basis elements is the signed superposition
``u_E u_F = +-u_{EoF}``, the sign counting the odd letters that odd letters
pass in rewriting st(E) st(F) into st(EoF).  The super bracket
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
from .supergraph import Supergraph, check_weight, _base_first_order
from .heaps import (Heap, _transport, superpose, single, standard_word,
                    sort_key, enumerate_heaps, super_lyndon_heaps, is_pyramid,
                    is_super_letter, super_letter_factors, heaps_up_to,
                    is_super_lyndon_word, word_standard_factorization)


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

    def parity(self, graph: Supergraph) -> int:
        return sum(1 for name in self.leaves()
                   if graph.index(name) in graph.psi) & 1

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
        return sorted(self.terms.items(), key=lambda hc: sort_key(hc[0]))

    def leading(self):
        """(least heap, coefficient) in the heap order."""
        if not self.terms:
            return None
        h = min(self.terms, key=sort_key)
        return h, self.terms[h]

    def coefficient(self, heap: Heap) -> int:
        return self.terms.get(heap, 0)

    def to_json(self):
        return [{"coeff": c, "heap": h.to_json()} for h, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{h.word()}" for h, c in self.sorted_terms())


def rewriting_sign(graph: Supergraph, word, target) -> int:
    """Sign picked up rewriting one linearization of a heap into another.

    Interchanging two odd letters costs -1 and equal letters never reorder,
    so take each odd letter of ``target`` in turn from its first remaining
    occurrence among the odd letters of ``word``: the sign is -1 to the
    number of odd letters it passes.
    """
    psi = graph.psi
    rest = [v for v in word if v in psi]
    passed = 0
    for v in target:
        if v in psi:
            i = rest.index(v)
            passed += i
            del rest[i]
    return -1 if passed & 1 else 1


@functools.lru_cache(maxsize=1 << 18)
def signed_superpose(e: Heap, f: Heap) -> tuple[Heap, int]:
    """Product of the basis elements indexed by e and f.

    The basis element of a heap is the image of its standard word, so the
    product is the image of the concatenation: the heap e o f together
    with the sign of rewriting st(e) st(f) into st(e o f).
    """
    h = superpose(e, f)
    graph = e.graph
    if not graph.psi:
        return h, 1
    word = standard_word(e) + standard_word(f)
    return h, rewriting_sign(graph, word, standard_word(h))


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


def _dense_rows(graph: Supergraph, k, polys) -> tuple[int, list[list[int]]]:
    """Number of weight-k heaps, and the coefficient row of each polynomial."""
    col = {h: i for i, h in enumerate(enumerate_heaps(graph, tuple(k)))}
    rows = []
    for poly in polys:
        row = [0] * len(col)
        for h, c in poly.terms.items():
            row[col[h]] = c
        rows.append(row)
    return len(col), rows


def _expansion_matrix(graph: Supergraph, k, expansions) -> RankCertificate:
    """Full-row-rank certificate of expansions against the weight-k heap basis."""
    cols, rows = _dense_rows(graph, k, expansions)
    rank, pivots = integer_rank(rows)
    cert = RankCertificate(len(rows), cols, rank, tuple(pivots))
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
    word = standard_word(heap)
    if not is_super_lyndon_word(word, heap.graph.psi):
        raise InputError(f"{heap!r} is not a super Lyndon heap")
    names = heap.graph.names
    return _word_tree(word, lambda p: leaf(names[p]))


def _expand_lambda(heap: Heap) -> HeapPolynomial:
    return expand_monomial(lambda_monomial(heap), heap.graph)


@dataclass(frozen=True)
class BasisElement:
    heap: Heap
    monomial: LieMonomial
    expansion: HeapPolynomial
    letters: tuple[Heap, ...] | None = None

    def word(self) -> str:
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
        return {
            "weight": list(self.weight),
            "dimension": len(self.elements),
            "elements": [{
                "word": e.word(),
                "monomial": str(e.monomial),
                **({"letters": [l.word() for l in e.letters]} if e.letters else {}),
                "expansion": e.expansion.to_json(),
            } for e in self.elements],
            "certificate": self.certificate.to_json(),
        }


def lyndon_heap_basis(graph: Supergraph, k) -> GradedBasis:
    """One bracket monomial per super Lyndon heap of weight k, rank-certified."""
    k = check_weight(graph, k)
    elements = []
    for heap in super_lyndon_heaps(graph, k):
        elements.append(BasisElement(heap, lambda_monomial(heap), _expand_lambda(heap)))
    cert = _expansion_matrix(graph, k, [e.expansion for e in elements])
    return GradedBasis(graph, k, tuple(elements), cert)


# ---------------------------------------------------------------------------
# Super-letter alphabets and the left-normed (LLN) basis.

def super_letter_alphabet(graph: Supergraph, base, weight_cap) -> tuple[Heap, ...]:
    """All super-letters with the given base, weight <= cap, ascending.

    Heaps are built over the reordered graph in which ``base`` is the least
    vertex (names are unchanged, so words read naturally).
    """
    weight_cap = check_weight(graph, weight_cap)
    work, order = _base_first_order(graph, base)
    # a super-letter uses its base exactly once, whatever the cap says there
    cap = (1,) + tuple(weight_cap[o] for o in order[1:])
    letters = []
    for w, hs in heaps_up_to(work, cap).items():
        if not w[0]:
            continue
        for h in hs:
            if is_super_letter(h):
                letters.append(h)
    return tuple(sorted(letters, key=sort_key))


def lln_basis(graph: Supergraph, k, base) -> GradedBasis:
    """Basis from super Lyndon words over the super-letter alphabet of ``base``.

    Each word is the unique super-letter factorization of a super Lyndon
    heap of weight k (computed in the order that makes ``base`` least);
    its bracket tree follows the word's standard factorization and each
    letter becomes the left-normed bracket of its standard word.  Letters
    compare by their standard words, so the word over the alphabet is the
    tuple of those words.
    """
    k = check_weight(graph, k)
    work, order = _base_first_order(graph, base)
    wk = tuple(k[o] for o in order)
    if wk[0] < 1:
        raise InputError(f"base vertex {work.names[0]!r} is not in the support")
    elements = []
    for heap in super_lyndon_heaps(work, wk):
        letters = super_letter_factors(heap)
        word = tuple(standard_word(l) for l in letters)
        odd = {w for w, l in zip(word, letters) if l.parity()}
        if not is_super_lyndon_word(word, odd):
            raise ConsistencyError(
                f"{heap!r} factors into super-letters but the word is not super Lyndon")
        monomial = _word_tree(word, lambda w: left_normed(work.names[p] for p in w))
        elements.append(BasisElement(heap, monomial,
                                     expand_monomial(monomial, work), letters))
    cert = _expansion_matrix(work, wk, [e.expansion for e in elements])
    return GradedBasis(work, wk, tuple(elements), cert)


def lambda_equals_e(heap: Heap) -> bool:
    """Whether a super-letter's factorization tree is its left-normed tree.

    True exactly when the standard word a1...ar satisfies
    a1 < ar <= a(r-1) <= ... <= a2; then the two expansions coincide.
    (When false the trees differ but the expansions can still collide via
    vanishing brackets of commuting pairs.)  The heap may live over any
    order; its base is made least internally.
    """
    if not heap.pieces:
        raise InputError("empty heap")
    if not is_pyramid(heap):
        raise InputError(f"{heap!r} is not a super-letter")
    h = _transport(heap, _base_first_order(heap.graph, heap.pieces[0][0])[0])
    if not is_super_letter(h):
        raise InputError(f"{heap!r} is not a super-letter")
    w = standard_word(h)
    r = len(w)
    if r <= 2:
        return True
    if not w[0] < w[r - 1]:
        return False
    return all(w[j] >= w[j + 1] for j in range(1, r - 1))


def span_membership(graph: Supergraph, letters, basis: GradedBasis) -> list[Fraction]:
    """Exact coordinates of the left-normed word in a rank-certified basis."""
    monomial = left_normed(graph.names[graph.index(v)] for v in letters)
    k = monomial.weight(basis.graph)
    if k != tuple(basis.weight):
        raise InputError(
            f"word weight {k} does not match basis weight {tuple(basis.weight)} "
            f"over vertices {', '.join(basis.graph.names)}")
    polys = [e.expansion for e in basis.elements]
    polys.append(expand_monomial(monomial, basis.graph))
    *columns, target = _dense_rows(basis.graph, basis.weight, polys)[1]
    return solve_exact(columns, target)
