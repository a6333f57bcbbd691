"""The heap monoid over a supergraph.

A heap is a finite pile of pieces, one vertex each, where pieces on equal or
adjacent positions must sit on distinct levels and every raised piece rests
on one below it.  Heaps are the commutation classes of words; a heap is
identified by its standard word, and its pieces are computed from the word
only when read.  One insertion rule builds every word: a letter laid on top
moves left over the letters it commutes with, and stops before the first
of those smaller than it.  Letters compare as integers, so an order is a
``zeta``: the graph's, or one relabelled so that a base is letter 0, which
only :func:`_base_order` builds.  The rule gives the heap of a word, the
product of two heaps, with the crossings that sign a super product, and,
over a relabelled ``zeta``, the word in the order that makes a base least.

The total order on heaps compares standard words (the lexicographically
greatest linearization, shorter words preceding their extensions), and the
standard word decides all of the Lyndon structure with word tests alone: a
heap is Lyndon exactly when its standard word is a Lyndon word (Lalonde);
it is super Lyndon exactly when the word is Lyndon or the square of an odd
Lyndon word; its standard factorization is the word's split; and its
super-letter factors are the pieces of its word in the order that makes the
base least, cut before each base letter.  Decompositions, the factorization
by the least Lyndon right factor, the squares of odd Lyndon heaps and the
search for square roots live in the test suite, as the definitions the word
rules are checked against.  Enumeration is one depth-first walk over
standard words, each heap once, ascending, cached per plain graph and
weight: the (super) Lyndon heaps of a weight are its list filtered by the
word test, the lln basis sorts the list by the words in the order that
makes its base least, and one walk over a cap counts heaps and super Lyndon
heaps per weight with the same test.  Walked in that base-least order, the
words that start with the base and use it once are the super-letters on it
(their only minimal piece): prefix-closed, they are the base's subtree.

A heap lives on the adjacency; psi only gives its letters a parity.  The
walk's words and each product's word and crossings are cached per plain
twin, for every psi; heaps are interned, one pool per graph, only over the
graph a caller asked for: the super bracket interns only the heaps of its
result.
"""

from __future__ import annotations

import functools
import math
import operator

from .errors import InputError
from .supergraph import Supergraph, plain, check_weight, weight_gcd, divide_weight, \
    is_connected_support


class Heap:
    """A heap, identified by its standard word; a piece is a ``(position, level)`` pair.

    Instances are interned, immutable, hashable and equal when their graph
    is the same object (graphs are canonical) and their standard words are
    equal, so a heap kept across :func:`freeroots.clear_caches` equals the
    one built after it.  ``pieces`` is in drop order, sorted by ``(level,
    position)``: the minimal pieces, those on level 0, come first, and
    are computed from the word once, when first read.  Use
    :func:`heap_from_word` or :func:`heap_from_pieces` to construct.
    """

    __slots__ = ("graph", "_word", "_hash", "_pieces")

    def __init__(self, graph: Supergraph, word: tuple):
        self.graph = graph
        self._word = word
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
        if self._pieces is None:
            tops, zn, pieces = [-1] * self.graph.n, self.graph.zeta_neighbors, []
            for p in self._word:  # zn[p] holds p itself
                tops[p] = max(map(tops.__getitem__, zn[p])) + 1
                pieces.append((p, tops[p]))
            self._pieces = tuple(sorted(pieces, key=_DROP_ORDER))
        return self._pieces

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
        heap = pool.setdefault(word, Heap(graph, word))
    return heap


_DROP_ORDER = operator.itemgetter(1, 0)  # (level, position): the order of Heap.pieces


def _insert(zeta, word, letters) -> tuple[tuple[int, ...], int]:
    """Lay ``letters`` in turn on the heap of ``word``; its word and crossings.

    Letters ``0..n-1`` compare as integers and ``zeta[a]`` masks those that
    do not commute with a: the graph's ``zeta``, or one relabelled by
    :func:`_base_order`.  Words are greatest in their class.  A letter b
    laid on top is maximal, so the greedy linearization (take the greatest
    minimal piece) takes the old letters in their order, and b as soon as
    every letter it does not commute with is taken and the next old letter
    is smaller than b.  Bit ``b * n + x`` of the crossings records that the
    letters b passed an odd number of letters x.
    """
    n = len(zeta)
    out = list(word)
    crossings = 0
    for b in letters:
        zb = zeta[b]
        at = i = len(out)
        seen = passed = 0  # the letters from i on, and from at on, as parities
        while i and not zb >> out[i - 1] & 1:
            i -= 1
            x = out[i]
            seen ^= 1 << x
            if x < b:
                at, passed = i, seen
        out.insert(at, b)
        crossings ^= passed << b * n
    return tuple(out), crossings


def heap_from_word(graph: Supergraph, letters) -> Heap:
    """The heap of a word; commuting words give the same heap."""
    word, _ = _insert(graph.zeta, (), map(graph.index, letters))
    return _intern(graph, word)


def heap_from_pieces(graph: Supergraph, pieces) -> Heap:
    """Re-canonicalize an arbitrary collection of pieces (levels recomputed)."""
    ordered = sorted(pieces, key=_DROP_ORDER)
    return heap_from_word(graph, (p for p, _ in ordered))


def single(graph: Supergraph, v) -> Heap:
    return _intern(graph, (graph.index(v),))


@functools.lru_cache(maxsize=1 << 18)
def _superpose_plain(graph: Supergraph, left: tuple, right: tuple) -> tuple[tuple, int]:
    """The words' product and crossings over a plain graph, for every psi;
    the one product cache, read over the plain twin of the factors' graph."""
    return _insert(graph.zeta, left, right)


def _common_graph(left, right) -> Supergraph:
    """The graph of two factors (heaps or polynomials), which must share it."""
    if left.graph is not right.graph:
        raise InputError("superposition needs a common supergraph")
    return left.graph


def superpose(left: Heap, right: Heap) -> Heap:
    """Let ``right`` fall on top of ``left``; the monoid product."""
    graph = _common_graph(left, right)
    return _intern(graph, _superpose_plain(plain(graph), left._word, right._word)[0])


def standard_word(heap: Heap) -> tuple[int, ...]:
    """Lexicographically greatest linearization, as a tuple of positions.

    Minimal pieces occupy pairwise non-adjacent distinct positions, so the
    greatest minimal piece is unique, and taking it at each step gives a
    word that dominates every other linearization letter by letter.
    """
    return heap._word


def _base_order(graph: Supergraph, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The order that makes position ``base`` least, as letters ``0..n-1``:
    the position of each letter, and ``zeta`` relabelled to those letters."""
    position = (base, *(p for p in range(graph.n) if p != base))
    return position, tuple(sum((graph.zeta[p] >> q & 1) << a for a, q in enumerate(position))
                            for p in position)


def _base_first_word(heap: Heap, position, zeta) -> tuple[int, ...]:
    """The standard word in a :func:`_base_order`, over its letters; not cached."""
    return _insert(zeta, (), map(position.index, heap._word))[0]


# ---------------------------------------------------------------------------
# Enumeration.

def _standard_words(zeta, cap):
    """Walk, ascending, the words of content <= cap greatest in their class.

    Letters ``0..n-1`` compare as integers; ``zeta[a]`` masks those that do
    not commute with a, a included: a graph's ``zeta``, or one relabelled.
    No letter of such a word commutes left past a smaller one, so they are
    prefix-closed and only the last letter is checked.  Each node yields the
    word (one list, reused) and the index of its content in ``weights_up_to(cap)``.
    """
    order = range(len(zeta))
    stride = [math.prod(c + 1 for c in cap[i + 1:]) for i in order]
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
def _enumerate_plain(graph: Supergraph, k: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The standard words of weight ``k`` over a plain graph, for every psi."""
    m = sum(k)
    return tuple(tuple(word) for word, _ in _standard_words(graph.zeta, k) if len(word) == m)


def enumerate_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """All heaps of weight exactly ``k``, ascending in the heap order."""
    k = check_weight(graph, k)
    return tuple(_intern(graph, word) for word in _enumerate_plain(plain(graph), k))


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
    graph = plain(heap.graph)
    for d in range(2, g + 1):
        if g % d:
            continue
        root_weight = divide_weight(k, d)
        for f in _enumerate_plain(graph, root_weight):
            power = f
            for _ in range(d - 1):
                power = _superpose_plain(graph, power, f)[0]
            if power == heap._word:
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
    for word, code in _standard_words(graph.zeta, cap):
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


def is_super_letter(heap: Heap, base=0) -> bool:
    """A single minimal piece, on the ``base`` vertex (a name or a position),
    which the heap uses once.

    At base 0 the same as ``classify(heap).super_letter`` (false for the
    empty heap), without the primitivity and Lyndon tests.
    """
    b = heap.graph.index(base)
    return is_pyramid(heap) and heap.pieces[0][0] == b and heap.weight()[b] == 1


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
    position, zeta = _base_order(heap.graph, b)
    return _cut_super_letters(heap, _base_first_word(heap, position, zeta), position)


def _cut_super_letters(heap: Heap, word, position) -> tuple[Heap, ...]:
    """:func:`super_letter_factors` of ``heap`` from its ``word`` in a
    :func:`_base_order`, whose letter 0 is the base."""
    cuts = [i for i, a in enumerate(word) if not a]
    if not cuts:
        raise InputError("no piece on the base vertex")
    if cuts[0]:
        raise InputError(f"{heap!r} is not a product of super-letters")
    word = [position[a] for a in word]
    return tuple(heap_from_word(heap.graph, word[i:j])
                 for i, j in zip(cuts, cuts[1:] + [len(word)]))
