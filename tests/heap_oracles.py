"""Definitions the library's word rules are checked against.

The library identifies a heap by its standard word and builds products,
signs and base-first words with one insertion rule.  The first oracles
here are the definitions that rule is checked against, computed on
``(position, level)`` pieces in drop order, sorted by ``(level,
position)``: dropping letters to the lowest level they fit, the greedy
linearization, and the sign of a rewriting read off the two words.

The library decides Lyndon heaps and their factorizations from standard
words alone.  The rest are the definitions those word tests replace:
the two-part decompositions of a heap, the factorization with the least
Lyndon right factor, commutation classes by adjacent swaps and Lyndon
words by rotation.  ``relabel`` reorders or restricts a graph's vertices.
"""

import itertools

from freeroots import InputError, Supergraph
from freeroots.heaps import (heap_from_pieces, heap_from_word, is_super_lyndon,
                             standard_word, word_standard_factorization)


def drop_order(piece):
    """The sort key of ``Heap.pieces``: level first, then position."""
    return piece[1], piece[0]


def drop(graph, pieces, positions):
    """The pieces of the pile ``pieces`` with each position dropped on top in
    turn, as low as it fits, in drop order."""
    tops = [-1] * graph.n
    for p, lvl in pieces:  # in drop order, so a position's top comes last
        tops[p] = lvl
    pieces = list(pieces)
    for p in positions:
        level = 0
        for j in graph.zeta_neighbors[p]:
            if tops[j] >= level:
                level = tops[j] + 1
        tops[p] = level
        pieces.append((p, level))
    return tuple(sorted(pieces, key=drop_order))


def greedy_word(graph, pieces, base=0):
    """The word of the pieces that is greatest with position ``base`` least.

    Among the remaining minimal pieces take the one whose position is
    greatest, ``base`` last; base 0 gives the standard word.  Pieces on
    equal or adjacent positions are ordered by level, so the lowest
    remaining piece of a position is minimal exactly when it lies below
    the lowest remaining piece of every neighbouring position.
    """
    m = len(pieces)
    zn = graph.zeta_neighbors
    stacks = [[m] for _ in zn]  # remaining levels per position, lowest last
    for p, lvl in reversed(sorted(pieces, key=drop_order)):
        stacks[p].append(lvl)
    low = [st[-1] for st in stacks]  # m once a position is used up
    order = (*range(len(zn) - 1, base, -1), *range(base - 1, -1, -1), base)
    out = []
    for _ in range(m):
        for p in order:  # zn[p] holds p itself, so the min is at most low[p]
            if low[p] < m and min(low[j] for j in zn[p]) == low[p]:
                break
        stacks[p].pop()
        low[p] = stacks[p][-1]
        out.append(p)
    return tuple(out)


def rewriting_sign(graph, word, target):
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


def decompositions(heap):
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


def standard_factorization(heap):
    """(F, N) with heap = F o N and N the least Lyndon right factor.

    Both are read off the standard word.  A prefix of a standard word is
    the standard word of its own heap and the rest is the standard word of
    the remaining pieces, so the heap factorization with minimal Lyndon
    right factor is the word split at the smallest proper suffix.  A
    Lyndon heap F has a single minimal piece, on the least letter of its
    word, so st(F o F) = st(F)^2, whose least proper suffix is st(F): the
    square of an odd Lyndon heap splits as (F, F).  The tests check it
    against the search over all two-part decompositions.
    """
    if len(heap) < 2:
        raise InputError("cannot factor a heap with fewer than 2 pieces")
    if not is_super_lyndon(heap):
        raise InputError(f"{heap!r} is not a super Lyndon heap")
    u, v = word_standard_factorization(standard_word(heap))
    return heap_from_word(heap.graph, u), heap_from_word(heap.graph, v)


def word_class(graph, letters):
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


def lyndon_words_of_content(k):
    """Free-monoid Lyndon words with letter i used k_i times (rotation test)."""
    letters = [i for i, c in enumerate(k) for _ in range(c)]
    out = []
    for w in set(itertools.permutations(letters)):
        if all(w < w[r:] + w[:r] for r in range(1, len(w))):
            out.append(w)
    return sorted(out)


def relabel(graph, keep):
    """The sub-supergraph on the positions ``keep``, in that order.

    A permutation of the positions reorders the vertices; names, edges and
    annotations follow them.
    """
    pos = {old: new for new, old in enumerate(keep)}
    return Supergraph(
        tuple(graph.names[o] for o in keep),
        tuple((pos[i], pos[j]) for i, j in graph.edges if i in pos and j in pos),
        *(tuple(pos[i] for i in vs if i in pos)
          for vs in (graph.psi, graph.real, graph.psi0)),
    )
