"""The heap monoid over a supergraph.

A heap is a finite pile of pieces, one vertex each, where pieces on equal or
adjacent positions must sit on distinct levels and every raised piece rests
on one below it.  Heaps are the commutation classes of words; a heap is
identified by its standard word, and its pieces are computed from the word
only when read.  One insertion rule builds every word: a letter laid on top
moves left over the letters it commutes with, and stops before the first
of those that ranks below it.  It gives the heap of a word, the product of
two heaps, with the crossings that sign a super product, and the word in
the order that makes a base least.

The total order on heaps compares standard words (the lexicographically
greatest linearization, shorter words preceding their extensions), and the
standard word decides all of the Lyndon structure with word tests alone:
a heap is Lyndon exactly when its standard word is a Lyndon word (Lalonde);
it is super Lyndon exactly when the word is Lyndon or the square of an odd
Lyndon word; its standard factorization is the word's split; and its
super-letter factors are the pieces of its word in the order that makes
the base least, cut before each base letter.  Decompositions, the
factorization by the least Lyndon right factor, the squares of odd Lyndon
heaps and the search for square roots live in the test suite, as the
definitions the word rules are checked against.  Enumeration is a
depth-first search over standard words: each heap once, ascending.  It is
the one source of heap lists, cached per plain graph and weight: the
(super) Lyndon heaps of a weight are that list filtered by the word test,
the lln basis sorts it by the words in the order that makes its base
least, and one walk over a cap counts heaps and super Lyndon heaps per
weight with the same test.

A heap lives on the adjacency; psi only gives its letters a parity.  Every
heap is interned in one pool per graph, and a heap over a graph with psi,
real or psi0 vertices shares the heap of its plain twin, where standard
words, enumeration and Lyndon structure are computed once for every psi.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import InputError
from .supergraph import Supergraph, plain, check_weight, weight_gcd, divide_weight, \
    is_connected_support, weights_up_to


class Heap:
    """A heap, identified by its standard word; a piece is a ``(position, level)`` pair.

    Instances are interned, immutable, hashable and equal when their graph
    is the same object (graphs are canonical) and their standard words are
    equal, so a heap kept across :func:`freeroots.clear_caches` equals the
    one built after it.  ``pieces`` is in drop order, sorted by ``(level,
    position)``: the minimal pieces, those on level 0, come first.  ``_shared`` is
    the heap over the plain twin: the heap itself over a plain graph.  Use
    :func:`heap_from_word` or :func:`heap_from_pieces` to construct.
    """

    __slots__ = ("graph", "_word", "_shared", "_hash", "_pieces")

    def __init__(self, graph: Supergraph, word: tuple, shared=None):
        self.graph = graph
        self._word = word
        self._shared = self if shared is None else shared  # empty heaps are falsy
        self._hash = hash((graph, word))
        self._pieces = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Heap):
            return NotImplemented
        return self.graph is other.graph and self._word == other._word

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self._word)

    @property
    def pieces(self) -> tuple[tuple[int, int], ...]:
        """Each letter one level above the last it does not commute with."""
        shared = self._shared
        if shared._pieces is None:  # computed once, for every psi
            tops, zn, pieces = [-1] * self.graph.n, self.graph.zeta_neighbors, []
            for p in self._word:  # zn[p] holds p itself
                tops[p] = max(map(tops.__getitem__, zn[p])) + 1
                pieces.append((p, tops[p]))
            shared._pieces = tuple(sorted(pieces, key=_DROP_ORDER))
        return shared._pieces

    def weight(self) -> tuple[int, ...]:
        k = [0] * self.graph.n
        for p in self._word:
            k[p] += 1
        return tuple(k)

    def parity(self) -> int:
        psi = self.graph.psi
        return sum(p in psi for p in self._word) & 1

    def word(self) -> str:
        """Standard word with vertex names (dot-joined unless single chars)."""
        return _spell(self.graph, self._word)

    def __repr__(self):
        return f"Heap({self.word()})" if self._word else "Heap(0)"

    def to_json(self):
        return {"pieces": [[self.graph.names[p], lvl] for p, lvl in self.pieces]}


def _spell(graph: Supergraph, word) -> str:
    """A word of positions in vertex names (dot-joined unless single chars)."""
    names = [graph.names[p] for p in word]
    if all(len(s) == 1 for s in names):
        return "".join(names)
    return ".".join(names)


_REGISTRY: dict[Supergraph, dict[tuple, Heap]] = {}


def _intern(graph: Supergraph, word: tuple) -> Heap:
    """The pooled heap with this standard word over ``graph``."""
    pool = _REGISTRY.get(graph)
    if pool is None:
        pool = _REGISTRY.setdefault(graph, {})
    heap = pool.get(word)
    if heap is None:  # setdefault keeps one heap when two threads race
        shared = None if graph.is_plain() else _intern(plain(graph), word)
        heap = pool.setdefault(word, Heap(graph, word, shared))
    return heap


_DROP_ORDER = operator.itemgetter(1, 0)  # (level, position): the order of Heap.pieces


def _insert(graph: Supergraph, word, letters, rank) -> tuple[tuple[int, ...], int]:
    """Lay ``letters`` in turn on the heap of ``word``; its word and crossings.

    Words are greatest in their class when positions compare by ``rank``.
    A letter b laid on top is maximal, so the greedy linearization (take
    the greatest minimal piece) takes the old letters in their order, and
    b as soon as every letter it does not commute with is taken and the
    next old letter ranks below b.  Bit ``b * n + x`` of the crossings
    records that the letters b passed an odd number of letters x.
    """
    zeta, n = graph.zeta, graph.n
    out = list(word)
    crossings = 0
    for b in letters:
        zb, rb = zeta[b], rank[b]
        at = i = len(out)
        seen = passed = 0  # the letters from i on, and from at on, as parities
        while i and not zb >> out[i - 1] & 1:
            i -= 1
            x = out[i]
            seen ^= 1 << x
            if rank[x] < rb:
                at, passed = i, seen
        out.insert(at, b)
        crossings ^= passed << b * n
    return tuple(out), crossings


def heap_from_word(graph: Supergraph, letters) -> Heap:
    """The heap of a word; commuting words give the same heap."""
    word, _ = _insert(graph, (), map(graph.index, letters), range(graph.n))
    return _intern(graph, word)


def heap_from_pieces(graph: Supergraph, pieces) -> Heap:
    """Re-canonicalize an arbitrary collection of pieces (levels recomputed)."""
    ordered = sorted(pieces, key=_DROP_ORDER)
    return heap_from_word(graph, (p for p, _ in ordered))


def empty_heap(graph: Supergraph) -> Heap:
    return _intern(graph, ())


def single(graph: Supergraph, v) -> Heap:
    return _intern(graph, (graph.index(v),))


@functools.lru_cache(maxsize=1 << 18)
def _superpose_plain(left: Heap, right: Heap) -> tuple[Heap, int]:
    graph = left.graph
    word, crossings = _insert(graph, left._word, right._word, range(graph.n))
    return _intern(graph, word), crossings


def _superpose(left: Heap, right: Heap) -> tuple[Heap, int]:
    """:func:`superpose` and the crossings of :func:`_insert`, shared by every psi."""
    graph = left.graph
    if graph is not right.graph:
        raise InputError("superposition needs a common supergraph")
    heap, crossings = _superpose_plain(left._shared, right._shared)
    return _intern(graph, heap._word), crossings


def superpose(left: Heap, right: Heap) -> Heap:
    """Let ``right`` fall on top of ``left``; the monoid product."""
    return _superpose(left, right)[0]


def standard_word(heap: Heap) -> tuple[int, ...]:
    """Lexicographically greatest linearization, as a tuple of positions.

    Minimal pieces occupy pairwise non-adjacent distinct positions, so the
    greatest minimal piece is unique, and taking it at each step gives a
    word that dominates every other linearization letter by letter.
    """
    return heap._word


def _base_least(graph: Supergraph, base: int) -> list[int]:
    """The rank of each position in the order that makes position ``base`` least."""
    return [-1 if p == base else p for p in range(graph.n)]


def _base_first_word(heap: Heap, base: int) -> tuple[int, ...]:
    """The standard word in the order that makes position ``base`` least,
    as a tuple of the graph's positions; not cached."""
    return _insert(heap.graph, (), heap._word, _base_least(heap.graph, base))[0]


# ---------------------------------------------------------------------------
# Enumeration.

def _standard_words(graph: Supergraph, cap):
    """Walk, ascending, the words of content <= cap greatest in their class.

    Those are the words with no letter that commutes left past a smaller
    one; they are prefix-closed, so only the last letter is checked.  Each
    node yields the word (one list, reused) and the index of its content
    in ``weights_up_to(cap)``.
    """
    zeta, order = graph.zeta, range(graph.n)
    stride = [math.prod(c + 1 for c in cap[i + 1:]) for i in range(graph.n)]
    word, stack = [], [(iter(order), 0)]
    yield word, 0
    while stack:
        letters, code = stack[-1]
        for b in letters:
            if code // stride[b] % (cap[b] + 1) == cap[b]:
                continue  # no b left
            i = len(word) - 1
            while i >= 0 and not zeta[b] >> word[i] & 1 and word[i] > b:
                i -= 1
            if i < 0 or zeta[b] >> word[i] & 1:  # b passes no smaller letter
                word.append(b)
                stack.append((iter(order), code + stride[b]))
                yield word, code + stride[b]
                break
        else:
            stack.pop()
            del word[-1:]


@functools.lru_cache(maxsize=None)
def _enumerate_plain(graph: Supergraph, k: tuple[int, ...]) -> tuple[Heap, ...]:
    m = sum(k)
    return tuple(_intern(graph, tuple(word)) for word, _ in _standard_words(graph, k)
                 if len(word) == m)


def enumerate_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """All heaps of weight exactly ``k``, ascending in the heap order."""
    k = check_weight(graph, k)
    return tuple(_intern(graph, h._word) for h in _enumerate_plain(plain(graph), k))


def _heaps_with_words(graph: Supergraph, k, base: int) -> list[tuple[Heap, tuple]]:
    """The heaps of weight k with their words in the order that makes
    ``base`` least, sorted by those words in that order."""
    rank = _base_least(graph, base)
    found = [(heap, _base_first_word(heap, base)) for heap in enumerate_heaps(graph, k)]
    return sorted(found, key=lambda pair: [rank[p] for p in pair[1]])


def heaps_up_to(graph: Supergraph, cap) -> dict[tuple[int, ...], tuple[Heap, ...]]:
    """:func:`enumerate_heaps` of every weight componentwise <= cap, keyed by
    weight.  Each weight keeps its heap list in the enumeration cache, which
    :func:`freeroots.clear_caches` empties."""
    cap = check_weight(graph, cap)
    return {w: enumerate_heaps(graph, w) for w in weights_up_to(cap)}


# ---------------------------------------------------------------------------
# Conjugacy and classification.  No program path calls ``conjugacy_class``,
# ``lyndon_heaps`` or ``classify``; they stay, with the helpers they call,
# because the benchmark's tracing pins them as spans.

def _min_rotations(heap: Heap):
    """Transposes that move one minimal piece to the top.

    Rotating single minimal pieces generates the whole conjugacy relation:
    a transpose along ``U o V`` is a chain of such rotations, one per piece
    of ``U``, and a minimal piece of ``U`` stays minimal while the rest of
    ``U`` is still below.
    """
    ps = heap.pieces
    graph = heap.graph
    for i, (p, lvl) in enumerate(ps):
        if lvl:  # past the minimal pieces, which come first
            return
        rest = heap_from_pieces(graph, ps[:i] + ps[i + 1:])
        yield superpose(rest, single(graph, p))


def conjugacy_class(heap: Heap) -> frozenset[Heap]:
    """Closure of the transposition relation, by minimal-piece rotations."""
    seen = {heap}
    stack = [heap]
    while stack:
        h = stack.pop()
        for h2 in _min_rotations(h):
            if h2 not in seen:
                seen.add(h2)
                stack.append(h2)
    return frozenset(seen)


def is_periodic(heap: Heap) -> bool:
    """True if the heap is a d-th power, d >= 2, of a smaller heap."""
    k = heap.weight()
    g = weight_gcd(k)
    target = heap._shared
    for d in range(2, g + 1):
        if g % d:
            continue
        root_weight = divide_weight(k, d)
        for f in _enumerate_plain(target.graph, root_weight):
            power = f
            for _ in range(d - 1):
                power = _superpose_plain(power, f)[0]
            if power == target:
                return True
    return False


def is_primitive(heap: Heap) -> bool:
    """No decomposition into two commuting nonempty parts.

    Equivalent to: connected support and not a proper power.  (Commuting
    traces are powers of pairwise independent roots; a connected support
    leaves a single root.)  The brute-force form of the definition is kept
    in the test suite as an oracle.
    """
    if not heap:
        return False
    return is_connected_support(heap.graph, heap.weight()) and not is_periodic(heap)


def is_lyndon_word(word) -> bool:
    """Whether the word is strictly smaller than each of its proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def is_odd_lyndon_square(word, odd) -> bool:
    """Whether the word is ``u u`` with ``u`` a Lyndon word of odd parity.

    ``odd`` is the alphabet's parity test: a container of its odd letters.
    """
    half, rest = divmod(len(word), 2)
    u = word[:half]
    return (half > 0 and not rest and word[half:] == u
            and sum(x in odd for x in u) % 2 == 1 and is_lyndon_word(u))


def is_super_lyndon_word(word, odd) -> bool:
    """Whether the word is nonempty and Lyndon, or an odd Lyndon square."""
    return bool(word) and (is_lyndon_word(word) or is_odd_lyndon_square(word, odd))


def word_standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a word at its lexicographically smallest proper suffix.

    A Lyndon word ``u`` is unbordered and smaller than its proper suffixes,
    so the least proper suffix of a square ``u u`` is ``u``: squares split
    as ``(u, u)``.
    """
    if len(word) < 2:
        raise InputError("cannot factor a single letter")
    best = len(word) - 1
    for s in range(1, len(word) - 1):
        if word[s:] < word[best:]:
            best = s
    return word[:best], word[best:]


def is_lyndon(heap: Heap) -> bool:
    """Whether the heap is Lyndon: nonempty with a Lyndon standard word."""
    return bool(heap) and is_lyndon_word(standard_word(heap))


def is_super_lyndon(heap: Heap) -> bool:
    """Whether the heap is Lyndon or the square F o F of an odd Lyndon heap F.

    A Lyndon heap F has st(F o F) = st(F)^2, so the standard word decides.
    """
    return is_super_lyndon_word(standard_word(heap), heap.graph.psi)


def lyndon_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """All Lyndon heaps of weight ``k``, ascending."""
    return tuple(filter(is_lyndon, enumerate_heaps(graph, k)))


def super_lyndon_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """Lyndon heaps plus squares F o F of odd Lyndon heaps F, ascending."""
    return tuple(filter(is_super_lyndon, enumerate_heaps(graph, k)))


@functools.lru_cache(maxsize=None)
def _super_lyndon_counts(graph: Supergraph, cap: tuple[int, ...]):
    """Heaps and super Lyndon heaps of each weight <= cap, counted in one walk.

    Both tuples are indexed like ``weights_up_to(cap)``, by the walk's
    codes.  Each standard word counts under its content, and again when
    it passes the super Lyndon word test.  No heap is built.
    """
    heaps = [0] * math.prod(c + 1 for c in cap)
    super_lyndon = heaps.copy()
    for word, code in _standard_words(graph, cap):
        heaps[code] += 1
        super_lyndon[code] += is_super_lyndon_word(word, graph.psi)
    return tuple(heaps), tuple(super_lyndon)


class HeapClasses:
    """Classification flags for a nonempty heap."""

    __slots__ = ("pyramid", "admissible_pyramid", "elementary", "super_letter",
                 "primitive", "lyndon", "super_lyndon")

    def __init__(self, **flags):
        for name in self.__slots__:
            setattr(self, name, flags[name])

    def __repr__(self):
        on = [name for name in self.__slots__ if getattr(self, name)]
        return f"HeapClasses({', '.join(on)})"


def is_pyramid(heap: Heap) -> bool:
    """A single minimal piece: ``classify(heap).pyramid`` without the rest.

    The minimal pieces are the level-0 prefix of ``heap.pieces``.
    """
    ps = heap.pieces
    return bool(ps) and (len(ps) == 1 or ps[1][1] > 0)


def is_super_letter(heap: Heap, base: int = 0) -> bool:
    """A single minimal piece, on position ``base``, which the heap uses once.

    At base 0 the same as ``classify(heap).super_letter`` (false for the
    empty heap), without the primitivity and Lyndon tests.
    """
    return is_pyramid(heap) and heap.pieces[0][0] == base and heap.weight()[base] == 1


def classify(heap: Heap) -> HeapClasses:
    """Flags per the definitions; admissibility is against the global order."""
    if not heap:
        raise InputError("cannot classify the empty heap")
    pyramid = is_pyramid(heap)
    base = heap.pieces[0][0]
    admissible = pyramid and base == 0
    elementary = pyramid and heap.weight()[base] == 1
    primitive = is_primitive(heap)
    lyndon = is_lyndon(heap)
    super_lyndon = is_super_lyndon(heap)
    return HeapClasses(pyramid=pyramid, admissible_pyramid=admissible,
                       elementary=elementary, super_letter=is_super_letter(heap),
                       primitive=primitive, lyndon=lyndon,
                       super_lyndon=super_lyndon)


# ---------------------------------------------------------------------------
# Super-letter factorization (heaps built from pyramids over a base vertex).

def super_letter_factors(heap: Heap, base=None) -> tuple[Heap, ...]:
    """Unique factorization into super-letters over a base vertex.

    The base defaults to the least vertex of the graph.  In the order that
    makes the base least, the standard word of a product of super-letters
    is the concatenation of theirs, each starting with the base letter and
    using it once; so that word is cut before each base letter.  A heap
    with no base piece, or whose word does not start with the base letter,
    is not such a product and raises InputError.  No piece needs a further
    check: when the word starts with the base letter, the base is the only
    minimal piece of each remaining heap, and a prefix of a linearization
    is a down-set, so each piece is a pyramid on the base that uses it once.
    """
    b = 0 if base is None else heap.graph.index(base)
    return _cut_super_letters(heap, _base_first_word(heap, b), b)


def _cut_super_letters(heap: Heap, word, b: int) -> tuple[Heap, ...]:
    """:func:`super_letter_factors` of ``heap`` from its base-first ``word``."""
    cuts = [i for i, p in enumerate(word) if p == b]
    if not cuts:
        raise InputError("no piece on the base vertex")
    if cuts[0]:
        raise InputError(f"{heap!r} is not a product of super-letters")
    return tuple(heap_from_word(heap.graph, word[i:j])
                 for i, j in zip(cuts, cuts[1:] + [len(word)]))
