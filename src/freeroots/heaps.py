"""The heap monoid over a supergraph.

A heap is a finite pile of pieces, one vertex each, where pieces on equal or
adjacent positions must sit on distinct levels and every raised piece rests
on one below it.  Heaps are the commutation classes of words: dropping the
letters of a word one by one, each to the lowest level compatible with the
pieces already placed, yields the canonical representative of its class, and
the map is a monoid morphism onto superposition.

The total order on heaps compares standard words (the lexicographically
greatest linearization, shorter words preceding their extensions), and the
standard word decides all of the Lyndon structure with word tests alone:
a heap is Lyndon exactly when its standard word is a Lyndon word (Lalonde);
it is super Lyndon exactly when the word is Lyndon or the square of an odd
Lyndon word; its standard factorization is the word's split; and its
super-letter factors are the pieces of its word in the order that makes
the base least, cut before each base letter.  Conjugacy classes and
decompositions stay public, and square roots are searched for in the test
suite, as the definitions the word rules are checked against.  Enumeration
is a depth-first search over standard words: each heap once, ascending.

A heap lives on the adjacency; psi only gives its letters a parity.  Every
heap is interned in one pool per graph, and a heap over a graph with psi,
real or psi0 vertices shares the heap of its plain twin, where standard
words, enumeration and Lyndon structure are computed once for every psi.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import InputError
from .supergraph import Supergraph, plain, check_weight, weight_gcd, weight_parity, \
    divide_weight, is_connected_support, weights_up_to


class Heap:
    """Canonical heap of pieces; a piece is a ``(position, level)`` pair.

    Instances are interned, immutable, hashable and equal when their graph
    is the same object (graphs are canonical) and their pieces are equal, so
    a heap kept across :func:`freeroots.clear_caches` equals the one built
    after it.  ``pieces`` is in drop order, sorted by ``(level, position)``:
    the minimal pieces, those on level 0, come first.  ``_shared`` is
    the heap over the plain twin: the heap itself over a plain graph.  Use
    :func:`heap_from_word` or :func:`heap_from_pieces` to construct.
    """

    __slots__ = ("graph", "pieces", "_shared", "_hash", "_st")

    def __init__(self, graph: Supergraph, pieces: tuple, shared=None):
        self.graph = graph
        self.pieces = pieces
        self._shared = self if shared is None else shared  # empty heaps are falsy
        self._hash = hash((graph, pieces))
        self._st = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Heap):
            return NotImplemented
        return self.graph is other.graph and self.pieces == other.pieces

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.pieces)

    def weight(self) -> tuple[int, ...]:
        k = [0] * self.graph.n
        for p, _ in self.pieces:
            k[p] += 1
        return tuple(k)

    def parity(self) -> int:
        return sum(1 for p, _ in self.pieces if p in self.graph.psi) & 1

    def word(self) -> str:
        """Standard word with vertex names (dot-joined unless single chars)."""
        return _spell(self.graph, standard_word(self))

    def __repr__(self):
        return f"Heap({self.word()})" if self.pieces else "Heap(0)"

    def to_json(self):
        return {"pieces": [[self.graph.names[p], lvl] for p, lvl in self.pieces]}


def _spell(graph: Supergraph, word) -> str:
    """A word of positions in vertex names (dot-joined unless single chars)."""
    names = [graph.names[p] for p in word]
    if all(len(s) == 1 for s in names):
        return "".join(names)
    return ".".join(names)


_REGISTRY: dict[Supergraph, dict[tuple, Heap]] = {}


def _intern(graph: Supergraph, pieces: tuple) -> Heap:
    """The pooled heap of these pieces, in drop order, over ``graph``."""
    pool = _REGISTRY.get(graph)
    if pool is None:
        pool = _REGISTRY.setdefault(graph, {})
    heap = pool.get(pieces)
    if heap is None:  # setdefault keeps one heap when two threads race
        shared = None if graph.is_plain() else _intern(plain(graph), pieces)
        heap = pool.setdefault(pieces, Heap(graph, pieces, shared))
    return heap


_DROP_ORDER = operator.itemgetter(1, 0)  # (level, position): the order of Heap.pieces


def _drop(graph: Supergraph, pieces, positions) -> Heap:
    """Drop each position in turn onto the pile ``pieces``, as low as it fits."""
    tops = [-1] * graph.n
    for p, lvl in pieces:  # in drop order, so a position's top comes last
        tops[p] = lvl
    pieces = list(pieces)
    zn = graph.zeta_neighbors
    for p in positions:
        level = 0
        for j in zn[p]:
            if tops[j] >= level:
                level = tops[j] + 1
        tops[p] = level
        pieces.append((p, level))
    return _intern(graph, tuple(sorted(pieces, key=_DROP_ORDER)))


def heap_from_word(graph: Supergraph, letters) -> Heap:
    """Drop the letters in order; commuting words give the same heap."""
    return _drop(graph, (), map(graph.index, letters))


def heap_from_pieces(graph: Supergraph, pieces) -> Heap:
    """Re-canonicalize an arbitrary collection of pieces (levels recomputed)."""
    ordered = sorted(pieces, key=_DROP_ORDER)
    return heap_from_word(graph, (p for p, _ in ordered))


def empty_heap(graph: Supergraph) -> Heap:
    return _intern(graph, ())


def single(graph: Supergraph, v) -> Heap:
    return _intern(graph, ((graph.index(v), 0),))


@functools.lru_cache(maxsize=1 << 18)
def _superpose_plain(left: Heap, right: Heap) -> Heap:
    return _drop(left.graph, left.pieces, (p for p, _ in right.pieces))


def superpose(left: Heap, right: Heap) -> Heap:
    """Let ``right`` fall on top of ``left``; the monoid product."""
    graph = left.graph
    if graph is not right.graph:
        raise InputError("superposition needs a common supergraph")
    return _intern(graph, _superpose_plain(left._shared, right._shared).pieces)


def standard_word(heap: Heap) -> tuple[int, ...]:
    """Lexicographically greatest linearization, as a tuple of positions.

    Greedy: among the currently minimal pieces (no remaining piece below
    them) take the one with the greatest position.  Minimal pieces occupy
    pairwise non-adjacent distinct positions, so the choice is unique and
    the greedy word dominates every other linearization letter by letter.
    """
    heap = heap._shared
    if heap._st is None:
        heap._st = _base_first_word(heap, 0)
    return heap._st


def _base_first_word(heap: Heap, base: int) -> tuple[int, ...]:
    """The standard word in the order that makes position ``base`` least.

    :func:`standard_word`'s greedy loop, taking ``base`` last among the
    minimal pieces; base 0 gives the standard word.  The word is a tuple
    of the graph's positions, and it is not cached.  Pieces on equal
    or adjacent positions are ordered by level, so the lowest remaining
    piece of a position is minimal exactly when it lies below the lowest
    remaining piece of every neighbouring position.
    """
    m = len(heap.pieces)
    zn = heap.graph.zeta_neighbors
    stacks = [[m] for _ in zn]  # remaining levels per position, lowest last
    for p, lvl in reversed(heap.pieces):
        stacks[p].append(lvl)
    low = [st[-1] for st in stacks]  # m once a position is used up
    at = low.__getitem__
    order = (*range(len(zn) - 1, base, -1), *range(base - 1, -1, -1), base)
    out = []
    for _ in range(m):
        for p in order:  # zn[p] holds p itself, so the min is at most low[p]
            if low[p] < m and min(map(at, zn[p])) == low[p]:
                break
        stacks[p].pop()
        low[p] = stacks[p][-1]
        out.append(p)
    return tuple(out)


def sort_key(heap: Heap) -> tuple[int, ...]:
    return standard_word(heap)


# ---------------------------------------------------------------------------
# Enumeration.

def _standard_words(graph: Supergraph, cap, base: int = 0):
    """Walk, ascending, the words of content <= cap greatest in their class.

    In the order that makes ``base`` least, those are the words with no
    letter that commutes left past a smaller one; they are prefix-closed,
    so only the last letter is checked.  Each node yields the word (one
    list, reused) and the index of its content in ``weights_up_to(cap)``.
    """
    zeta, order = graph.zeta, sorted(range(graph.n), key=base.__ne__)  # base first
    rank = [order.index(p) for p in range(graph.n)]
    stride = [math.prod(c + 1 for c in cap[i + 1:]) for i in range(graph.n)]
    word, stack = [], [(iter(order), 0)]
    yield word, 0
    while stack:
        letters, code = stack[-1]
        for b in letters:
            if code // stride[b] % (cap[b] + 1) == cap[b]:
                continue  # no b left
            i = len(word) - 1
            while i >= 0 and not zeta[b] >> word[i] & 1 and rank[word[i]] > rank[b]:
                i -= 1
            if i < 0 or zeta[b] >> word[i] & 1:  # b passes no smaller letter
                word.append(b)
                stack.append((iter(order), code + stride[b]))
                yield word, code + stride[b]
                break
        else:
            stack.pop()
            del word[-1:]


def _heaps_with_words(graph: Supergraph, k, base: int = 0) -> list[tuple[Heap, tuple]]:
    """Heaps of weight k, ascending, with their words in ``base``-least order."""
    return [(_drop(graph, (), word), tuple(word))
            for word, _ in _standard_words(graph, k, base) if len(word) == sum(k)]


@functools.lru_cache(maxsize=None)
def _enumerate_plain(graph: Supergraph, k: tuple[int, ...]) -> tuple[Heap, ...]:
    found = _heaps_with_words(graph, k)
    for heap, word in found:
        heap._st = word
    return tuple(heap for heap, _ in found)


def enumerate_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """All heaps of weight exactly ``k``, ascending in the heap order."""
    k = check_weight(graph, k)
    return tuple(_intern(graph, h.pieces) for h in _enumerate_plain(plain(graph), k))


def heaps_up_to(graph: Supergraph, cap) -> dict[tuple[int, ...], tuple[Heap, ...]]:
    """Heaps for every weight componentwise <= cap, keyed by weight, from one
    walk: a prefix of a standard word is the standard word of its heap."""
    cap = check_weight(graph, cap)
    table = [[] for _ in weights_up_to(cap)]
    for word, code in _standard_words(graph, cap):
        table[code].append(_drop(graph, (), word))
    return dict(zip(weights_up_to(cap), map(tuple, table)))


# ---------------------------------------------------------------------------
# Decompositions and conjugacy.

def decompositions(heap: Heap):
    """All splits ``heap = left o right`` with both parts nonempty.

    The right parts are exactly the nonempty proper subsets closed upward
    under "higher level on an equal or adjacent position", the relation
    that generates the heap order; each part is re-canonicalized.
    """
    ps = heap.pieces
    m = len(ps)
    zeta = heap.graph.zeta
    above = [sum(1 << j for j, (q, lj) in enumerate(ps) if lj > li and zeta[p] >> q & 1)
             for p, li in ps]
    for sub in range(1, (1 << m) - 1):
        if any(sub >> i & 1 and above[i] & ~sub for i in range(m)):
            continue
        right = heap_from_pieces(heap.graph, [ps[i] for i in range(m) if sub >> i & 1])
        left = heap_from_pieces(heap.graph, [ps[i] for i in range(m) if not sub >> i & 1])
        yield left, right


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
                power = _superpose_plain(power, f)
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
    if not heap.pieces:
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
    return bool(heap.pieces) and is_lyndon_word(standard_word(heap))


@functools.lru_cache(maxsize=None)
def _lyndon_plain(graph: Supergraph, k: tuple[int, ...]) -> tuple[Heap, ...]:
    """Lyndon heaps of weight k over a plain graph, ascending.

    A heap is Lyndon exactly when its standard word is a Lyndon word, so
    the enumeration (already ascending) is filtered by the word test.  The
    definition by conjugacy classes (the least element of each class, kept
    when primitive) is swept in the test suite as an oracle.
    """
    return tuple(h for h in _enumerate_plain(graph, k) if is_lyndon(h))


def lyndon_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """All Lyndon heaps of weight ``k``, ascending."""
    k = check_weight(graph, k)
    return tuple(_intern(graph, h.pieces) for h in _lyndon_plain(plain(graph), k))


def super_lyndon_heaps(graph: Supergraph, k) -> tuple[Heap, ...]:
    """Lyndon heaps plus squares F o F of odd Lyndon heaps F."""
    k = check_weight(graph, k)
    out = list(lyndon_heaps(graph, k))
    if any(k) and all(x % 2 == 0 for x in k):
        for f in lyndon_heaps(graph, divide_weight(k, 2)):
            if f.parity() == 1:
                out.append(superpose(f, f))
    return tuple(sorted(out, key=sort_key))


@functools.lru_cache(maxsize=None)
def _super_lyndon_counts(graph: Supergraph, cap: tuple[int, ...]):
    """Heaps and super Lyndon heaps of each weight <= cap, counted in one walk.

    Both tuples are indexed like ``weights_up_to(cap)``, by the walk's
    codes.  A standard word counts as Lyndon by the word test, and an
    all-even weight 2u adds the squares of u's Lyndon heaps when u is
    odd; the code of u is half that of 2u.  No heap is built.
    """
    heaps = [0] * math.prod(c + 1 for c in cap)
    lyndon = heaps.copy()
    for word, code in _standard_words(graph, cap):
        heaps[code] += 1
        lyndon[code] += bool(word) and is_lyndon_word(word)
    weights = list(weights_up_to(cap))
    squares = [lyndon[c // 2] if not any(x & 1 for x in w)
               and weight_parity(graph, weights[c // 2]) else 0
               for c, w in enumerate(weights)]
    return tuple(heaps), tuple(map(operator.add, lyndon, squares))


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


def is_super_letter(heap: Heap) -> bool:
    """A single minimal piece, on vertex 0, which the heap uses once.

    The same as ``classify(heap).super_letter`` (false for the empty heap),
    without the primitivity and Lyndon tests.
    """
    return is_pyramid(heap) and heap.pieces[0][0] == 0 and heap.weight()[0] == 1


def classify(heap: Heap) -> HeapClasses:
    """Flags per the definitions; admissibility is against the global order."""
    if not heap.pieces:
        raise InputError("cannot classify the empty heap")
    pyramid = is_pyramid(heap)
    base = heap.pieces[0][0]
    admissible = pyramid and base == 0
    elementary = pyramid and heap.weight()[base] == 1
    super_letter = admissible and elementary
    primitive = is_primitive(heap)
    lyndon = is_lyndon(heap)
    super_lyndon = lyndon or is_odd_lyndon_square(standard_word(heap), heap.graph.psi)
    return HeapClasses(pyramid=pyramid, admissible_pyramid=admissible,
                       elementary=elementary, super_letter=super_letter,
                       primitive=primitive, lyndon=lyndon,
                       super_lyndon=super_lyndon)


# ---------------------------------------------------------------------------
# Standard factorization.

def standard_factorization(heap: Heap) -> tuple[Heap, Heap]:
    """(F, N) with heap = F o N and N the least Lyndon right factor.

    Both are read off the standard word.  A prefix of a standard word is
    the standard word of its own heap and the rest is the standard word of
    the remaining pieces, so the heap factorization with minimal Lyndon
    right factor is the word split at the smallest proper suffix.  A
    Lyndon heap F has a single minimal piece, on the least letter of its
    word, so st(F o F) = st(F)^2, whose least proper suffix is st(F): the
    square of an odd Lyndon heap splits as (F, F).  The brute-force search
    over all two-part decompositions is kept as a test oracle.
    """
    if len(heap) < 2:
        raise InputError("cannot factor a heap with fewer than 2 pieces")
    word = standard_word(heap)
    if not is_super_lyndon_word(word, heap.graph.psi):
        raise InputError(f"{heap!r} is not a super Lyndon heap")
    u, v = word_standard_factorization(word)
    return heap_from_word(heap.graph, u), heap_from_word(heap.graph, v)


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


# ---------------------------------------------------------------------------
# Independent word-level oracles, used for cross-checks (kept tiny and dumb
# on purpose; no heap machinery involved).

def word_class(graph: Supergraph, letters) -> frozenset[tuple[int, ...]]:
    """Commutation class of a word by closure of adjacent swaps."""
    start = tuple(graph.index(v) for v in letters)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not graph.has_edge(a, b):
                w2 = w[:i] + (b, a) + w[i + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return frozenset(seen)


def lyndon_words_of_content(k: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Free-monoid Lyndon words with letter i used k_i times (rotation test)."""
    letters = [i for i, c in enumerate(k) for _ in range(c)]
    out = []
    for w in set(itertools.permutations(letters)):
        if all(w < w[r:] + w[:r] for r in range(1, len(w))):
            out.append(w)
    return sorted(out)
