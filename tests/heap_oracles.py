"""The heap layer's conversions as they were defined on pieces and levels.

The library identifies a heap by its standard word and builds products,
signs and base-first words with one insertion rule.  These are the
definitions that rule is checked against, computed on ``(position, level)``
pieces in drop order, sorted by ``(level, position)``: dropping letters to
the lowest level they fit, the greedy linearization, and the sign of a
rewriting read off the two words.
"""


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
