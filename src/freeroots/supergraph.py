"""Supergraphs, Cartan-type supermatrices and weight vectors.

A supergraph is a finite simple graph with a totally ordered vertex set, a
distinguished subset ``psi`` of odd vertices, and two optional annotations
coming from a supermatrix: ``real`` (vertices with diagonal entry 2) and
``psi0`` (odd vertices with diagonal entry 0).  The vertex order is the
declaration order of the vertex list; everything downstream (standard words,
Lyndon heaps, bases) depends on it.  A left-normed basis also reads words
with its base least, over the same graph.

A supergraph is canonical: constructing one returns the live instance with
the same names, edges and annotations, so two equal graphs are the same
object and compare by identity.  The table of live graphs is weak, so a
graph nothing refers to is freed as usual.

Weights are plain tuples of non-negative integers in vertex order.

One walk finds the independent vertex sets: ``independent_sets`` sorts
them, the chromatic counts and the Cartier-Foata check read them per
support as cached 0/1 steps, and the join route takes its blocks from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import threading
import weakref
from fractions import Fraction

from .errors import InputError


# The live graph for each (names, edges, psi, real, psi0); a graph that
# nothing else refers to drops out by itself.
_CANONICAL = weakref.WeakValueDictionary()
_CANONICAL_LOCK = threading.Lock()


def _integer(x) -> int:
    """``operator.index(x)``, refusing bools, which Python counts as integers."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool")
    return operator.index(x)


def _vertex_index(index: dict, v) -> int:
    """Position of a vertex given by name or by integer index.

    ``index`` maps each name to its position.
    """
    if isinstance(v, str):
        try:
            return index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None
    try:
        i = _integer(v)
    except TypeError:
        raise InputError(f"a vertex is a name or an integer index, got {v!r}") from None
    if not 0 <= i < len(index):
        raise InputError(f"vertex index {i} out of range")
    return i


def _items(xs, what: str) -> tuple:
    """``tuple(xs)``; ``InputError`` naming ``what`` if ``xs`` is not iterable."""
    try:
        return tuple(xs)
    except TypeError:
        raise InputError(f"{what} must be iterable, got {xs!r}") from None


def _vertex_set(index: dict, vs, what: str) -> frozenset:
    """Positions of a collection of vertices; a string is refused, not
    read as its characters."""
    if isinstance(vs, str):
        raise InputError(f"{what} is a collection of vertices, got the string {vs!r}")
    return frozenset(_vertex_index(index, v) for v in _items(vs, what))


def _edge(index: dict, e) -> tuple[int, int]:
    """Positions of an edge: a non-string iterable of exactly two vertices."""
    try:
        a, b = () if isinstance(e, str) else e
    except (TypeError, ValueError):
        raise InputError(f"an edge is a pair of vertices, got {e!r}") from None
    return _vertex_index(index, a), _vertex_index(index, b)


class Supergraph:
    """Immutable simple graph with odd / real / zero-norm-odd vertex subsets.

    Vertices may be referred to by name (str) or by index (int) when
    constructing; internally everything is index based, with ``names[i]``
    giving the display name of vertex ``i``.  Equal graphs are one object:
    the constructor returns the live instance with the same names, edges
    and annotations, so graphs compare and hash by identity.
    """

    __slots__ = ("names", "n", "edges", "psi", "real", "psi0",
                 "adj", "zeta", "zeta_neighbors", "_index", "__weakref__")

    def __new__(cls, names, edges=(), psi=(), real=(), psi0=()):
        names = tuple(map(str, _items(names, "the vertex list")))
        if len(set(names)) != len(names):
            raise InputError(f"duplicate vertex names: {names}")
        index = {v: i for i, v in enumerate(names)}

        norm_edges = set()
        for e in _items(edges, "edges"):
            i, j = _edge(index, e)
            if i == j:
                raise InputError(f"self-loop at vertex {names[i]!r}")
            norm_edges.add((min(i, j), max(i, j)))
        edges = frozenset(norm_edges)
        psi, real, psi0 = (_vertex_set(index, vs, what)
                           for vs, what in ((psi, "psi"), (real, "real"), (psi0, "psi0")))
        if not psi0 <= psi:
            raise InputError("psi0 must be a subset of psi")
        if real & psi0:
            raise InputError("a vertex cannot be both real and of zero norm")

        self = super().__new__(cls)
        self.names, self.n, self._index = names, len(names), index
        self.edges, self.psi, self.real, self.psi0 = edges, psi, real, psi0
        adj = [0] * self.n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.adj = tuple(adj)
        # Concurrency relation: adjacency made reflexive.  A letter never
        # commutes with itself, so equal positions always stack.
        self.zeta = tuple(adj[i] | (1 << i) for i in range(self.n))
        self.zeta_neighbors = tuple(
            tuple(j for j in range(self.n) if self.zeta[i] >> j & 1)
            for i in range(self.n))
        with _CANONICAL_LOCK:
            return _CANONICAL.setdefault((names, edges, psi, real, psi0), self)

    def __reduce__(self):
        return Supergraph, (self.names, self.edges, self.psi, self.real, self.psi0)

    def index(self, v) -> int:
        """Index of a vertex given by name or index."""
        return _vertex_index(self._index, v)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def __repr__(self):
        return (f"Supergraph({list(self.names)}, edges={sorted(self.edges)}, "
                f"psi={sorted(self.psi)})")


@functools.lru_cache(maxsize=None)
def plain(graph: Supergraph) -> Supergraph:
    """The psi/real/psi0-free twin of a graph (itself when already plain).

    The heap monoid, its order and the Lyndon structure depend only on the
    plain twin, so caches for those layers key on it.
    """
    return Supergraph(graph.names, graph.edges)


# ---------------------------------------------------------------------------
# Weight helpers.  A weight is a tuple of non-negative ints in vertex order.

def check_weight(graph: Supergraph, k) -> tuple[int, ...]:
    try:
        k = tuple(map(_integer, k))
    except TypeError:
        raise InputError(f"weight entries must be integers, got {k!r}") from None
    if len(k) != graph.n:
        raise InputError(f"weight has {len(k)} entries, graph has {graph.n} vertices")
    if any(x < 0 for x in k):
        raise InputError(f"negative weight entry in {k}")
    return k


def ht(k) -> int:
    """Height: total number of letters."""
    return sum(k)


def support(k) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(k) if x > 0)


def support_mask(k) -> int:
    m = 0
    for i, x in enumerate(k):
        if x > 0:
            m |= 1 << i
    return m


def weight_parity(graph: Supergraph, k) -> int:
    """0 for an even weight, 1 for an odd one (odd-letter count mod 2)."""
    return sum(k[i] for i in graph.psi) & 1


def weight_gcd(k) -> int:
    return math.gcd(*k) if any(k) else 0


def divide_weight(k, l: int) -> tuple[int, ...]:
    if any(x % l for x in k):
        raise ValueError(f"{l} does not divide {k}")
    return tuple(x // l for x in k)


def weights_up_to(cap) -> "itertools.product":
    """All weights componentwise <= cap, in lexicographic order (0 included)."""
    return itertools.product(*(range(c + 1) for c in cap))


def is_free_weight(graph: Supergraph, k) -> bool:
    """True if every real or zero-norm-odd vertex is used at most once."""
    return _is_free(graph, check_weight(graph, k))


def _is_free(graph: Supergraph, k: tuple[int, ...]) -> bool:
    return all(k[i] <= 1 for i in graph.real | graph.psi0)


def is_connected_support(graph: Supergraph, k) -> bool:
    """True if the support of ``k`` induces a connected nonempty subgraph."""
    return _is_connected(graph, check_weight(graph, k))


def _is_connected(graph: Supergraph, k: tuple[int, ...]) -> bool:
    mask = support_mask(k)
    if mask == 0:
        return False
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    frontier = [start]
    while frontier:
        i = frontier.pop()
        new = graph.adj[i] & mask & ~seen
        while new:
            b = new & -new
            seen |= b
            frontier.append(b.bit_length() - 1)
            new ^= b
    return seen == mask


def _independent_walk(graph: Supergraph, verts) -> list[tuple[tuple[int, ...], int]]:
    """(positions, bitmask) of every independent subset of ``verts``: each
    vertex in turn joins every set found so far that holds none of its
    neighbours.  The empty set comes first, all of ``verts`` last when it
    is independent."""
    found = [((), 0)]
    for v in verts:
        bit, near = 1 << v, graph.adj[v]
        found += [(sub + (v,), mask | bit) for sub, mask in found if not near & mask]
    return found


def independent_sets(graph: Supergraph, restrict=None) -> list[tuple[int, ...]]:
    """Every subset of ``restrict`` spanning no edge, the empty set included.

    A vertex named twice in ``restrict`` counts once; a string is refused,
    not read as its characters.  Deterministic order: by size, then
    lexicographically.
    """
    verts = range(graph.n) if restrict is None else \
        sorted(_vertex_set(graph._index, restrict, "restrict"))
    return sorted(sorted(sub for sub, _ in _independent_walk(graph, verts)), key=len)


@functools.lru_cache(maxsize=None)
def _nonempty_independent_sets(graph: Supergraph,
                               sup: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nonempty independent subsets of a support as 0/1 weight steps,
    listed once per support; the last is the support itself when it is
    independent."""
    return tuple(tuple(int(v in sub) for v in range(graph.n))
                 for sub in independent_sets(graph, sup)[1:])


def join_graph(graph: Supergraph, k) -> Supergraph:
    """Blow vertex i up into a clique of size k_i, cliques joined along edges.

    Annotations are dropped: the result is a plain graph for colouring.
    """
    k = check_weight(graph, k)
    if not any(k):
        raise InputError("join graph needs a nonempty support")
    names = []
    owner = []
    for i in support(k):
        for r in range(1, k[i] + 1):
            names.append(f"{graph.names[i]}^{r}")
            owner.append(i)
    edges = []
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            if owner[a] == owner[b] or graph.has_edge(owner[a], owner[b]):
                edges.append((a, b))
    return Supergraph(names, edges)


# ---------------------------------------------------------------------------
# Supermatrices.

def _rational(x) -> Fraction:
    """A matrix entry as a ``Fraction``: an int, a ``Fraction`` or a string
    such as ``"-3/2"``.  Anything else, bools and floats included, is an
    ``InputError``."""
    if isinstance(x, (int, Fraction, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"bad matrix entry {x!r}")


class BkmSupermatrix:
    """Square matrix of exact rationals with a set of odd indices."""

    __slots__ = ("names", "n", "entries", "psi")

    def __init__(self, names, entries, psi=()):
        self.names = tuple(map(str, _items(names, "the vertex list")))
        self.n = len(self.names)
        rows = []
        for row in _items(entries, "matrix entries"):
            row = tuple(map(_rational, _items(row, "a matrix row")))
            if len(row) != self.n:
                raise InputError("matrix is not square")
            rows.append(row)
        if len(rows) != self.n:
            raise InputError("matrix is not square")
        self.entries = tuple(rows)
        index = {v: i for i, v in enumerate(self.names)}
        self.psi = _vertex_set(index, psi, "psi")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def symmetrizer(matrix: BkmSupermatrix):
    """Positive rational diagonal D with D A symmetric, or None.

    d is propagated over a spanning forest of the nonzero off-diagonal
    pattern via d_i a_ij = d_j a_ji, then every remaining pair is checked,
    so cycles cannot hide an inconsistency.  Scaled so the minimum is 1.
    """
    a = matrix.entries
    n = matrix.n
    d: list[Fraction | None] = [None] * n
    for root in range(n):
        if d[root] is not None:
            continue
        d[root] = Fraction(1)
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or a[i][j] == 0 or d[j] is not None:
                    continue
                if a[j][i] == 0:
                    return None  # asymmetric zero pattern
                d[j] = d[i] * a[i][j] / a[j][i]
                if d[j] <= 0:
                    return None
                stack.append(j)
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                return None
    lo = min(d)
    return tuple(x / lo for x in d)


def validate_supermatrix(matrix: BkmSupermatrix) -> list[str]:
    """Check the defining conditions; empty list means valid.

    Conditions: diagonal 2 or <= 0; off-diagonal <= 0; symmetric zero
    pattern; integer rows at real vertices, even integer rows at odd real
    vertices; a positive symmetrizer exists.
    """
    a = matrix.entries
    n = matrix.n
    names = matrix.names
    bad = []
    for i in range(n):
        if a[i][i] != 2 and a[i][i] > 0:
            bad.append(f"condition 1: a[{names[i]},{names[i]}] = {a[i][i]} is neither 2 nor <= 0")
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j] > 0:
                bad.append(f"condition 2: a[{names[i]},{names[j]}] = {a[i][j]} > 0")
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i][j] == 0) != (a[j][i] == 0):
                bad.append(f"condition 3: a[{names[i]},{names[j]}] and a[{names[j]},{names[i]}] "
                           "are not both zero")
    for i in range(n):
        if a[i][i] == 2:
            for j in range(n):
                if a[i][j].denominator != 1:
                    bad.append(f"condition 4: a[{names[i]},{names[j]}] = {a[i][j]} "
                               "is not an integer on a real row")
                elif i in matrix.psi and a[i][j] % 2 != 0 and i != j:
                    bad.append(f"condition 5: a[{names[i]},{names[j]}] = {a[i][j]} "
                               "is odd on an odd real row")
    if not bad and symmetrizer(matrix) is None:
        bad.append("condition 6: no positive diagonal D makes DA symmetric")
    return bad


def quasi_dynkin(matrix: BkmSupermatrix) -> Supergraph:
    """Underlying simple graph: edge wherever the off-diagonal entry is nonzero."""
    violations = validate_supermatrix(matrix)
    if violations:
        raise InputError("invalid supermatrix: " + "; ".join(violations))
    a = matrix.entries
    n = matrix.n
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if a[i][j] != 0]
    real = [i for i in range(n) if a[i][i] == 2]
    psi0 = [i for i in matrix.psi if a[i][i] == 0]
    return Supergraph(matrix.names, edges, matrix.psi, real, psi0)


# ---------------------------------------------------------------------------
# JSON input.

_GRAPH_KEYS = {"vertices", "edges", "psi", "matrix"}


def _array(doc: dict, key: str, item_ok, items: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(map(item_ok, value)):
        raise InputError(f"'{key}' must be an array of {items}")
    return value


def _is_vertex(v) -> bool:
    return type(v) in (str, int)


def matrix_from_document(doc: dict) -> BkmSupermatrix | None:
    """Shape-check a graph document; its supermatrix (unvalidated) or None."""
    if not isinstance(doc, dict):
        raise InputError("graph document must be a JSON object")
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise InputError(f"unknown keys in graph document: {sorted(unknown)}")
    if "vertices" not in doc:
        raise InputError("graph document needs a 'vertices' array")
    names = _array(doc, "vertices", _is_vertex, "vertex names")
    if not names:
        raise InputError("'vertices' must not be empty")
    psi = _array(doc, "psi", _is_vertex, "vertex names or indices")
    _array(doc, "edges", lambda e: type(e) is list and len(e) == 2
           and all(map(_is_vertex, e)), "[vertex, vertex] pairs")
    if "matrix" not in doc:
        return None
    if "edges" in doc:
        raise InputError("'edges' must be absent when 'matrix' is given")
    rows = _array(doc, "matrix", lambda row: type(row) is list, "rows")
    return BkmSupermatrix(names, rows, psi)


def graph_from_document(doc: dict) -> tuple[Supergraph, BkmSupermatrix | None]:
    """Build a supergraph from the JSON input schema.

    With a ``matrix`` the edges are derived (and must be absent); without
    one the graph gets empty real / psi0 annotations.
    """
    matrix = matrix_from_document(doc)
    if matrix is None:
        return Supergraph(doc["vertices"], doc.get("edges", ()), doc.get("psi", ())), None
    return quasi_dynkin(matrix), matrix


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_graph(path) -> tuple[Supergraph, BkmSupermatrix | None]:
    return graph_from_document(load_document(path))


def parse_weight(graph: Supergraph, text: str) -> tuple[int, ...]:
    """Comma-separated ASCII integers in vertex order; length must match."""
    parts = text.split(",")
    if not all(re.fullmatch(r"\s*[+-]?[0-9]+\s*", part) for part in parts):
        raise InputError(f"bad weight {text!r}")
    return check_weight(graph, tuple(map(int, parts)))
