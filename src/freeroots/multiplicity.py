"""Free-root multiplicities and the series identities that certify them.

The dimension of a free root space is recovered from the linear
coefficients of k-chromatic polynomials.  The coefficient of q at k is
M_k / ht(k), where the integer M_k = ht(k) [x^k] log I(G, x) comes from
``chromatic._log_count``, so no polynomial and no tuple count is built.
Both methods are integer sums over the divisors l of gcd(k), divided once
by ht(k):

* ``closed_form`` is the plain Moebius sum sum_l mu(l) |M_{k/l}| / ht(k),
  with no sign pattern: every l dividing an odd weight is odd, since l
  divides its odd total of odd letters; it is a Fraction when ht(k) does
  not divide it;

* ``recursion`` inverts, divisor by divisor, the logarithm of the graded
  product sum_l (s_l / l) mult(k/l) = |M_k| / ht(k), where the sign s_l is
  (-1)^(l+1) when the sub-weight k/l is odd and 1 when it is even.  Times
  ht(k), ht(k) mult(k) = |M_k| - sum_{l > 1} s_l ht(k/l) mult(k/l), and
  the division by ht(k) must be exact.

The two agree unless an even l has an odd sub-weight k/l (a square of an
odd root); disagreements are reported, never averaged, and the recursion
is the ground truth: it matches the super Lyndon heap count, which is
checked wherever both are computed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, ConsistencyError
from .supergraph import Supergraph, plain, check_weight, support, ht, \
    weight_parity, weight_gcd, divide_weight, _is_free, _is_connected, \
    independent_sets, weights_up_to
# enumerate_heaps stays bound here: perfbench/selftest.py checks that tracing wraps it
from .heaps import enumerate_heaps, _super_lyndon_counts  # noqa: F401
from .chromatic import _log_count


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


def _magnitude(graph: Supergraph, k: tuple[int, ...]) -> int:
    """|M_k| = ht(k) |coefficient of q|, for a weight already checked."""
    return abs(_log_count(plain(graph), k))


@functools.lru_cache(maxsize=None)
def _mult_recursion(graph: Supergraph, k: tuple[int, ...]) -> int:
    total = _magnitude(graph, k)
    for l in divisors(weight_gcd(k))[1:]:
        sub = divide_weight(k, l)
        # s_l = (-1)^(l+1) for an odd sub-weight, 1 for an even one
        sign = (-1) ** ((l + 1) * weight_parity(graph, sub))
        total -= sign * ht(sub) * _mult_recursion(graph, sub)
    mult, remainder = divmod(total, ht(k))
    if remainder or mult < 0:
        raise ConsistencyError(
            f"multiplicity recursion gave {Fraction(total, ht(k))} at weight {k}")
    return mult


def _mult_closed_form(graph: Supergraph, k: tuple[int, ...]) -> int | Fraction:
    """The Moebius sum, as an int when it is integral."""
    total = sum(moebius(l) * _magnitude(graph, divide_weight(k, l))
                for l in divisors(weight_gcd(k)))
    mult, remainder = divmod(total, ht(k))
    return Fraction(total, ht(k)) if remainder else mult


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
            linear_coefficient=Fraction(_magnitude(graph, k), ht(k)),
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
# as flat integer lists indexed like ``weights_up_to(cap)``.

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


def _above(cap, w) -> list[tuple[int, int]]:
    """(code of v, greatest j with j w <= v) for each w <= v <= cap, highest first."""
    out = [(0, sum(cap))]
    for c, x in zip(cap, w):
        out = [(code * (c + 1) + a, min(j, a // x) if x else j)
               for code, j in out for a in range(c, x - 1, -1)]
    return out


def verify_pbw(graph: Supergraph, cap) -> SeriesReport:
    """Graded dimension identity of the enveloping algebra.

    The heap-count series must equal the product over weights w <= cap of
    (1 - x^w)^(-d) for even w and (1 + x^w)^d for odd w, where d is the
    number of super Lyndon heaps of weight w.  Even graded pieces behave
    polynomially, odd ones exterior-like; a mismatch pins the first bad
    coefficient.  Both sides are integer counts from one walk of standard
    words: all words and the super Lyndon words, per weight.  Each factor
    multiplies the series in place, from the highest weight down.
    """
    cap = check_weight(graph, cap)
    heaps, dims = _super_lyndon_counts(graph, cap)
    rhs = [1] + [0] * (len(heaps) - 1)
    for cw, (w, d) in enumerate(zip(weights_up_to(cap), dims)):
        if d:
            even = weight_parity(graph, w) == 0
            factor = [math.comb(d - 1 + j, j) if even else math.comb(d, j)
                      for j in range(min(c // x for c, x in zip(cap, w) if x) + 1)]
            for v, top in _above(cap, w):
                rhs[v] += sum(factor[j] * rhs[v - j * cw] for j in range(1, top + 1))
    return _series_compare(heaps, rhs, cap, "heap series vs graded product")


def verify_cartier_foata(graph: Supergraph, cap) -> SeriesReport:
    """Inversion of the heap series by the alternating independent-set sum.

    (sum over heaps x^w) * (sum over independent S (-1)^|S| x^S) = 1,
    truncated at cap; the support of cap bounds the independent sets.
    The heaps are counted by enumeration, in one walk of standard words.
    """
    cap = check_weight(graph, cap)
    heaps, _ = _super_lyndon_counts(graph, cap)
    product = [0] * len(heaps)
    for sub in independent_sets(graph, support(cap)):
        box = _above(cap, [int(i in sub) for i in range(graph.n)])
        sign, cw = (-1) ** len(sub), box[-1][0]  # the least v >= w is w
        for v, _ in box:
            product[v] += sign * heaps[v - cw]
    unit = [1] + [0] * (len(heaps) - 1)
    return _series_compare(product, unit, cap, "heap series times alternating independence sum")


def _series_compare(a: list, b: list, cap, description: str) -> SeriesReport:
    """The first weight, in ``weights_up_to`` order, where a and b differ."""
    for w, ca, cb in zip(weights_up_to(cap), a, b):
        if ca != cb:
            return SeriesReport(False, description, w, cb, ca)
    return SeriesReport(True, description)
