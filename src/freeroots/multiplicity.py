"""Free-root multiplicities and the series identities that certify them.

The dimension of a free root space is recovered from the linear
coefficients of k-chromatic polynomials.  Each coefficient is read off the
integer counts of ordered tuples of independent sets (the polynomial's
coefficients in the binomial basis C(q, m)), so no polynomial is built.
Two methods are implemented:

* ``closed_form`` is the plain Moebius sum sum_l (mu(l) / l) |pi_{k/l}[q]|
  over the divisors l of gcd(k), with no sign pattern: every l dividing an
  odd weight is odd, since l divides its odd total of odd letters;

* ``recursion`` inverts, divisor by divisor, the logarithm of the graded
  product sum_l (s_l / l) mult(k/l) = |pi_{k}[q]| where the sign s_l is
  (-1)^(l+1) when the sub-weight k/l is odd and 1 when it is even.

The two agree unless an even l has an odd sub-weight k/l (a square of an
odd root); disagreements are reported, never averaged, and the recursion
is the ground truth: it matches the super Lyndon heap count, which is
checked wherever both are computed.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, ConsistencyError
from .supergraph import Supergraph, plain, check_weight, support, \
    weight_parity, weight_gcd, divide_weight, _is_free, _is_connected, \
    independent_sets, weights_up_to
from .heaps import enumerate_heaps, super_lyndon_heaps, _standard_words
from .chromatic import linear_coefficient, _linear_plain


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def linear_coefficient_magnitude(graph: Supergraph, k) -> Fraction:
    """|coefficient of q| in the k-chromatic polynomial."""
    return abs(linear_coefficient(graph, k))


def _magnitude(graph: Supergraph, k: tuple[int, ...]) -> Fraction:
    """linear_coefficient_magnitude for a weight already checked."""
    return abs(_linear_plain(plain(graph), k))


@functools.lru_cache(maxsize=None)
def _mult_recursion(graph: Supergraph, k: tuple[int, ...]) -> int:
    total = _magnitude(graph, k)
    for l in divisors(weight_gcd(k))[1:]:
        sub = divide_weight(k, l)
        # s_l = (-1)^(l+1) for an odd sub-weight, 1 for an even one
        total -= (Fraction((-1) ** ((l + 1) * weight_parity(graph, sub)), l)
                  * _mult_recursion(graph, sub))
    if total.denominator != 1 or total < 0:
        raise ConsistencyError(
            f"multiplicity recursion gave {total} at weight {k}")
    return int(total)


def _mult_closed_form(graph: Supergraph, k: tuple[int, ...]) -> int | Fraction:
    """The Moebius sum, as an int when it is integral."""
    total = Fraction(0)
    for l in divisors(weight_gcd(k)):
        mu = moebius(l)
        if mu:
            total += Fraction(mu, l) * _magnitude(graph, divide_weight(k, l))
    return int(total) if total.denominator == 1 else total


def mult_free_root(graph: Supergraph, k, method: str = "recursion"):
    """Multiplicity of the free root with weight k.

    ``method`` is ``recursion`` (default, exact ground truth),
    ``closed_form`` (the plain Moebius sum, may disagree on even
    weights with odd sub-weights) or ``both`` for a comparison record.
    Non-free weights are rejected; disconnected supports give 0.
    """
    k = check_weight(graph, k)
    if not _is_free(graph, k):
        raise InputError(f"weight {k} is not free")
    if not any(k):
        raise InputError("zero weight has no root")
    connected = _is_connected(graph, k)
    if method == "recursion":
        return _mult_recursion(graph, k) if connected else 0
    if method == "closed_form":
        return _mult_closed_form(graph, k) if connected else 0
    if method == "both":
        rec = _mult_recursion(graph, k) if connected else 0
        closed = _mult_closed_form(graph, k) if connected else 0
        return MultRecord(
            weight=k,
            parity="odd" if weight_parity(graph, k) else "even",
            recursion=rec,
            closed_form=closed,
            agree=(closed == rec),
            linear_coefficient=_magnitude(graph, k),
        )
    raise InputError(f"unknown method {method!r}")


@dataclass(frozen=True)
class MultRecord:
    weight: tuple[int, ...]
    parity: str
    recursion: int
    closed_form: int | Fraction
    agree: bool
    linear_coefficient: Fraction

    def to_json(self):
        closed = self.closed_form
        return {
            "weight": list(self.weight),
            "parity": self.parity,
            "mult_recursion": self.recursion,
            "mult_closed_form": closed if isinstance(closed, int) else str(closed),
            "agree": self.agree,
            "linear_coeff": str(self.linear_coefficient),
        }


@dataclass
class MultiplicityTable:
    graph: Supergraph
    cap: tuple[int, ...]
    entries: dict[tuple[int, ...], MultRecord] = field(default_factory=dict)

    def discrepancies(self) -> list[MultRecord]:
        return [r for r in self.entries.values() if not r.agree]

    def to_json(self):
        return {
            "cap": list(self.cap),
            "entries": [self.entries[w].to_json() for w in sorted(self.entries)],
            "discrepancies": [list(r.weight) for r in self.discrepancies()],
        }


def free_roots_up_to(graph: Supergraph, cap) -> MultiplicityTable:
    """Every free, connected-support weight <= cap with both method values."""
    cap = check_weight(graph, cap)
    table = MultiplicityTable(graph, cap)
    for w in weights_up_to(cap):
        if any(w) and _is_free(graph, w) and _is_connected(graph, w):
            table.entries[w] = mult_free_root(graph, w, method="both")
    return table


# ---------------------------------------------------------------------------
# Series oracles.  Both work with truncated multivariate series represented
# as dicts weight -> integer coefficient, truncated componentwise at cap.

@dataclass(frozen=True)
class SeriesReport:
    ok: bool
    description: str
    first_mismatch: tuple[int, ...] | None = None
    expected: int | None = None
    got: int | None = None

    def to_json(self):
        out = {"ok": self.ok, "check": self.description}
        if not self.ok:
            out.update({"first_mismatch": list(self.first_mismatch),
                        "expected": self.expected, "got": self.got})
        return out


def _series_mul(a: dict, b: dict, cap) -> dict:
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            if any(x > c for x, c in zip(w, cap)):
                continue
            out[w] = out.get(w, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def _heap_counts(graph: Supergraph, cap) -> dict:
    """Heaps of each weight <= cap: the standard words of one walk, counted."""
    counts = collections.Counter(code for _, code in _standard_words(graph, cap))
    return {w: counts[i] for i, w in enumerate(weights_up_to(cap))}


def verify_pbw(graph: Supergraph, cap) -> SeriesReport:
    """Graded dimension identity of the enveloping algebra.

    The heap-count series must equal the product over weights w <= cap of
    (1 - x^w)^(-d) for even w and (1 + x^w)^d for odd w, where d is the
    number of super Lyndon heaps of weight w.  Even graded pieces behave
    polynomially, odd ones exterior-like; a mismatch pins the first bad
    coefficient.
    """
    cap = check_weight(graph, cap)
    lhs = _heap_counts(graph, cap)
    rhs = {tuple([0] * graph.n): 1}
    for w in weights_up_to(cap):
        if not any(w):
            continue
        d = len(super_lyndon_heaps(graph, w))
        if not d:
            continue
        top = min(c // x for c, x in zip(cap, w) if x)
        factor = {}
        for j in range(top + 1):
            jw = tuple(j * x for x in w)
            if weight_parity(graph, w) == 0:
                factor[jw] = math.comb(d - 1 + j, j)
            elif j <= d:
                factor[jw] = math.comb(d, j)
        rhs = _series_mul(rhs, factor, cap)
    return _series_compare(lhs, rhs, cap, "heap series vs graded product")


def verify_cartier_foata(graph: Supergraph, cap) -> SeriesReport:
    """Inversion of the heap series by the alternating independent-set sum.

    (sum over heaps x^w) * (sum over independent S (-1)^|S| x^S) = 1,
    truncated at cap; the support of cap bounds the independent sets.
    """
    cap = check_weight(graph, cap)
    lhs = _heap_counts(graph, cap)
    inv = {}
    for sub in independent_sets(graph, support(cap)):
        w = tuple(1 if i in sub else 0 for i in range(graph.n))
        inv[w] = 1 if len(sub) % 2 == 0 else -1
    product = _series_mul(lhs, inv, cap)
    unit = {tuple([0] * graph.n): 1}
    return _series_compare(product, unit, cap, "heap series times alternating independence sum")


def _series_compare(a: dict, b: dict, cap, description: str) -> SeriesReport:
    for w in weights_up_to(cap):
        ca, cb = a.get(w, 0), b.get(w, 0)
        if ca != cb:
            return SeriesReport(False, description, w, cb, ca)
    return SeriesReport(True, description)
