"""Exact k-chromatic polynomials and the weighted bond lattice.

The multicoloring count where vertex i receives k_i colours and neighbours
get disjoint sets is an integer-valued polynomial in the number of colours
q.  Each route computes its integer coefficients c_m in the binomial basis
C(q, m): directly, as counts of ordered m-tuples of independent sets; by the
clique-join graph, as m! times its partitions into m independent blocks; by
the bond-lattice expansion, whose coefficients are root multiplicities, as
forward differences of its values at q = 0..ht(k).  Only ``_from_binomial``
builds a polynomial, for output: one integer conversion to the monomial
basis, then one Fraction per coefficient.  The routes must agree, as tuples
with trailing zeros dropped, and the tests and ``verify all`` enforce that.

The multiplicities need only the coefficient of q, which is [x^k] log I(G, x)
for the independence polynomial I.  ``_log_count`` gives it as one integer
per weight, M_k = ht(k) [x^k] log I(G, x), by a recursion over the same
independent sets, with no tuple counts; ``linear_coefficient`` is
M_k / ht(k).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from fractions import Fraction

from .errors import InputError
from .supergraph import Supergraph, plain, check_weight, support, ht, \
    weight_parity, independent_sets, join_graph, is_connected_support, \
    is_free_weight, weights_up_to


class RationalPoly:
    """Univariate polynomial in q with exact rational coefficients: the
    routes' output value, which compares, evaluates and prints."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self):
        return [str(c) for c in self.coeffs]

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}q" + (f"^{i}" if i > 1 else "")
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def factored(self) -> str | None:
        """scale * prod (q - r) when all roots are small integers, else None.

        A nonzero constant is its own value.
        """
        if not self:
            return None
        counts = {}
        work = self
        for r in range(0, self.degree() + 1):
            while work.degree() >= 1:
                quotient, remainder = _divide_linear(work, r)
                if remainder:
                    break
                work = quotient
                counts[r] = counts.get(r, 0) + 1
        if work.degree() != 0:
            return None
        scale = work.coeffs[0]
        if not counts:
            return str(scale)
        pieces = []
        for r in sorted(counts):
            base = "q" if r == 0 else f"(q-{r})"
            pieces.append(base + (f"^{counts[r]}" if counts[r] > 1 else ""))
        head = "" if scale == 1 else f"{scale} * "
        return head + "".join(pieces)

    def __repr__(self):
        return f"RationalPoly({self.pretty()})"


def _divide_linear(poly: RationalPoly, root: int) -> tuple[RationalPoly, Fraction]:
    """(poly // (q - root), poly(root)) by one pass of synthetic division."""
    acc = Fraction(0)
    out = []
    for c in reversed(poly.coeffs):
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    return RationalPoly(reversed(out)), remainder


def _trimmed(counts) -> tuple[int, ...]:
    """The coefficient tuple without trailing zeros, so equal polynomials match."""
    counts = list(counts)
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def _from_binomial(counts) -> RationalPoly:
    """sum_m counts[m] * C(q, m), the one place a route builds a polynomial.

    With F = M! for the top index M, F * C(q, m) = (F / m!) q(q-1)...(q-m+1)
    has integer coefficients, so the sum runs in integers and each monomial
    coefficient is one Fraction over F.
    """
    scale = math.factorial(max(len(counts) - 1, 0))
    acc = [0] * len(counts)
    falling = [1]  # q(q-1)...(q-m+1), lowest degree first
    for m, cnt in enumerate(counts):
        if cnt:
            cnt *= scale // math.factorial(m)
            for i, f in enumerate(falling):
                acc[i] += cnt * f
        falling = [a - m * b for a, b in zip((0, *falling), (*falling, 0))]
    return RationalPoly(Fraction(a, scale) for a in acc)


def _choose(n: int, d: int) -> int:
    """C(n, d) for any integer n, using C(-x, d) = (-1)^d C(x+d-1, d)."""
    return math.comb(n, d) if n >= 0 else (-1) ** d * math.comb(d - n - 1, d)


# ---------------------------------------------------------------------------
# Chromatic polynomials.

@functools.lru_cache(maxsize=None)
def _partition_counts(graph: Supergraph) -> tuple[int, ...]:
    """Binomial-basis coefficients m! p_m of the chromatic polynomial.

    pi(q) = sum_m p_m q(q-1)...(q-m+1) = sum_m m! p_m C(q, m), where p_m
    counts partitions of the vertex set into m nonempty independent blocks;
    pinning the least remaining vertex in each block avoids double counting.
    """
    n = graph.n
    adj = graph.adj
    full = (1 << n) - 1

    @functools.lru_cache(maxsize=None)
    def parts(mask: int) -> tuple[int, ...]:
        """parts(mask)[m] = number of partitions of mask into m blocks."""
        if mask == 0:
            return (1,)
        low = (mask & -mask).bit_length() - 1
        rest_mask = mask & ~(1 << low)
        acc = [0] * (bin(mask).count("1") + 1)
        # independent subsets of rest_mask avoiding neighbours of the block
        members = [i for i in range(n) if rest_mask >> i & 1]

        def grow(block: int, banned: int, candidates: list[int]):
            sub = parts(mask & ~block)
            for m, cnt in enumerate(sub):
                acc[m + 1] += cnt
            for idx, v in enumerate(candidates):
                if banned >> v & 1:
                    continue
                grow(block | (1 << v), banned | adj[v], candidates[idx + 1:])

        grow(1 << low, adj[low], members)
        return tuple(acc)

    return tuple(cnt * math.factorial(m) for m, cnt in enumerate(parts(full)))


@functools.lru_cache(maxsize=None)
def _nonempty_independent_sets(graph: Supergraph,
                               sup: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The nonempty independent subsets of a support as 0/1 weight steps,
    listed once per support; the last is the support itself when it is
    independent."""
    return tuple(tuple(int(v in sub) for v in range(graph.n))
                 for sub in independent_sets(graph, sup)[1:])


@functools.lru_cache(maxsize=None)
def _tuple_counts(graph: Supergraph, k: tuple[int, ...]) -> tuple[int, ...]:
    """Number of ordered tuples of nonempty independent sets realizing k,
    indexed by tuple length; memoized on the remaining weight.

    These are the coefficients of the k-chromatic polynomial in the
    binomial basis C(q, m): each colour class is one set of the tuple.
    """
    if not any(k):
        return (1,)
    acc = [0] * (ht(k) + 1)
    for step in _nonempty_independent_sets(graph, support(k)):
        for m, cnt in enumerate(_tuple_counts(graph, tuple(map(operator.sub, k, step)))):
            acc[m + 1] += cnt
    return _trimmed(acc)


@functools.lru_cache(maxsize=None)
def _log_count(graph: Supergraph, k: tuple[int, ...]) -> int:
    """M_k = ht(k) [x^k] log I(G, x), for a checked weight, I being the
    independence polynomial; memoized on the remaining weight.

    Euler's operator turns I = exp(log I) into I * D(log I) = D(I), whose
    coefficient at k reads M_k = ht(k) [k is a 0/1 independent set] minus
    the sum of M_(k-S) over the nonempty independent S in supp(k); M_0 = 0.
    """
    if not any(k):
        return 0
    steps = _nonempty_independent_sets(graph, support(k))
    # k is a 0/1 independent set exactly when it is the last step
    total = ht(k) if steps[-1] == k else 0
    for step in steps:
        total -= _log_count(graph, tuple(map(operator.sub, k, step)))
    return total


def linear_coefficient(graph: Supergraph, k) -> Fraction:
    """Coefficient of q in the k-chromatic polynomial, [x^k] log I(G, x),
    from one integer per weight; 0 on the zero weight."""
    k = check_weight(graph, k)
    return Fraction(_log_count(plain(graph), k), ht(k) or 1)


def k_chromatic_direct(graph: Supergraph, k) -> RationalPoly:
    """Multicolouring polynomial from ordered tuples of independent sets."""
    return _from_binomial(_tuple_counts(plain(graph), check_weight(graph, k)))


def _join_counts(graph: Supergraph, k) -> tuple[int, ...]:
    """Binomial-basis coefficients m! p_m / k! of the join route; each tuple
    realizing k gives k! ordered partitions of the join graph, so it is exact."""
    k = check_weight(graph, k)
    if not any(k):
        return (1,)
    scale = math.prod(map(math.factorial, k))
    return _trimmed(c // scale for c in _partition_counts(join_graph(graph, k)))


def k_chromatic_join(graph: Supergraph, k) -> RationalPoly:
    """Multicolouring polynomial via the clique-join graph, divided by k!."""
    return _from_binomial(_join_counts(graph, k))


# ---------------------------------------------------------------------------
# Bond lattice.

def _connected_subweights(graph: Supergraph, k: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    out = [w for w in weights_up_to(k) if any(w) and is_connected_support(graph, w)]
    return tuple(sorted(out, reverse=True))


def bond_lattice(graph: Supergraph, k) -> list[tuple[tuple[int, ...], ...]]:
    """All multisets of connected-support blocks splitting the weight of k.

    Each multiset is a tuple of blocks, a block being a weight with
    connected support.  Blocks are nonincreasing, so repeats sit next to
    each other and each multiset appears once; deterministic output order.
    The zero weight has one multiset, the empty one.
    """
    k = check_weight(graph, k)
    blocks = _connected_subweights(plain(graph), k)
    out = []

    def rec(remaining: tuple[int, ...], start: int, chosen: list):
        if not any(remaining):
            out.append(tuple(chosen))
            return
        for idx in range(start, len(blocks)):
            b = blocks[idx]
            if all(map(operator.le, b, remaining)):
                chosen.append(b)
                rec(tuple(r - x for r, x in zip(remaining, b)), idx, chosen)
                chosen.pop()

    rec(k, 0, [])
    return out


def _bond_counts(graph: Supergraph, k) -> tuple[int, ...]:
    """Binomial-basis coefficients by the bond-lattice expansion.

    Each block's free-root multiplicity ``mult`` comes from
    ``multiplicity.mult_free_root``.  Blocks of even weight contribute
    C(q*mult, D) and blocks of odd weight C(-q*mult, D), with a sign from
    the number of blocks and of odd blocks.  Only free weights are
    accepted, and k is checked before any multiplicity is looked up.  Block
    parities add up to k's, so the odd blocks number k's parity mod 2.  The
    values at q = 0..ht(k) are summed in integers; their forward
    differences are c.
    """
    # multiplicity imports this module, so the import waits for the call
    from .multiplicity import mult_free_root
    k = check_weight(graph, k)
    if not is_free_weight(graph, k):
        raise InputError(f"weight {k} is not free")
    points = range(ht(k) + 1)
    flip = ht(k) + weight_parity(graph, k)
    scales = {}  # block -> its multiplicity, negated for an odd block
    columns = {}  # (scale, d) -> C(scale * q, d) at every point
    values = [0] * len(points)
    for partition in bond_lattice(graph, k):
        term = [(-1) ** (len(partition) + flip)] * len(points)
        for block, d in Counter(partition).items():
            if block not in scales:
                scales[block] = ((-1) ** weight_parity(graph, block)
                                 * mult_free_root(graph, block))
            key = (scales[block], d)
            if key not in columns:
                columns[key] = [_choose(key[0] * q, d) for q in points]
            term = [t * c for t, c in zip(term, columns[key])]
        values = [v + t for v, t in zip(values, term)]
    counts = []
    while values:
        counts.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return _trimmed(counts)


def k_chromatic_bond(graph: Supergraph, k) -> RationalPoly:
    """Bond-lattice expansion of the multicolouring polynomial."""
    return _from_binomial(_bond_counts(graph, k))
