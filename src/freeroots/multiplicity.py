"""Free-root multiplicities and the series identities that certify them.

The dimension of a free root space is recovered from the linear
coefficients of k-chromatic polynomials.  The coefficient of q at k is
M_k / ht(k), where the integer M_k = ht(k) [x^k] log I(G, x) comes from
``chromatic._log_count``, so no polynomial and no tuple count is built.
That kernel works on weights packed into integers and keeps its own
stack, so a multiplicity has no height limit; at a disconnected support it
gives 0 without descending, so no entry point tests connectivity first.
Both methods are integer sums over the divisors l of gcd(k), divided once
by ht(k).  One cached triple per weight, (recursion, closed form, |M_k|),
feeds both: it reads |M_k| once and takes each k/l's values from k/l's
own triple, since k/l has the same support as k.

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

The series oracles multiply flat truncated series with the helpers in
``chromatic``, whose product loop the chromatic routes run too."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, ConsistencyError
from .supergraph import Supergraph, plain, check_weight, ht, \
    weight_parity, weight_gcd, divide_weight, _is_free, _is_connected, \
    weights_up_to
# enumerate_heaps stays bound here: perfbench/selftest.py checks that tracing wraps it
from .heaps import enumerate_heaps, _super_lyndon_counts  # noqa: F401
from .chromatic import _log_count, _times_power, _terms, _times_terms, \
    _independence_series


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


@functools.lru_cache(maxsize=None)
def _mults(graph: Supergraph, k: tuple[int, ...]) -> tuple[int, int | Fraction, int]:
    """(recursion, closed form, |M_k|) at a checked nonzero free weight;
    each k/l has k's support, so its own triple serves both sums.  On a
    disconnected support the kernel gives |M_k| = 0 and so every k/l does:
    the triple is (0, 0, 0)."""
    magnitude = abs(_log_count(plain(graph), k))
    rec_total = closed_total = magnitude
    for l in divisors(weight_gcd(k))[1:]:
        sub = divide_weight(k, l)
        sub_rec, _, sub_m = _mults(graph, sub)
        # s_l = (-1)^(l+1) for an odd sub-weight, 1 for an even one
        sign = (-1) ** ((l + 1) * weight_parity(graph, sub))
        rec_total -= sign * ht(sub) * sub_rec
        closed_total += moebius(l) * sub_m
    rec, remainder = divmod(rec_total, ht(k))
    if remainder or rec < 0:
        raise ConsistencyError(
            f"multiplicity recursion gave {Fraction(rec_total, ht(k))} at weight {k}")
    closed, remainder = divmod(closed_total, ht(k))
    return rec, Fraction(closed_total, ht(k)) if remainder else closed, magnitude


def mult_free_root(graph: Supergraph, k, method: str = "recursion"):
    """Multiplicity of the free root with weight k.

    ``method`` is ``recursion`` (default, exact ground truth),
    ``closed_form`` (the plain Moebius sum, may disagree on even
    weights with odd sub-weights) or ``both`` for a comparison record.
    Each method reads one cached triple and so runs the recursion's check.
    Non-free weights are rejected; a disconnected support gives 0, from the
    kernel, which stores 0 there without descending.
    """
    if method not in ("recursion", "closed_form", "both"):
        raise InputError(f"unknown method {method!r}")
    k = check_weight(graph, k)
    if not _is_free(graph, k):
        raise InputError(f"weight {k} is not free")
    if not any(k):
        raise InputError("zero weight has no root")
    if method == "both":
        return _record(graph, k)
    rec, closed, _ = _mults(graph, k)
    return rec if method == "recursion" else closed


def _record(graph: Supergraph, k: tuple[int, ...]) -> MultRecord:
    """Both methods at a checked nonzero free weight, from its triple."""
    rec, closed, magnitude = _mults(graph, k)
    return MultRecord(weight=k, parity="odd" if weight_parity(graph, k) else "even",
                      recursion=rec, closed_form=closed, agree=(closed == rec),
                      linear_coefficient=Fraction(magnitude, ht(k)))


@dataclass(frozen=True)
class MultRecord:
    """Both methods at one weight.  ``linear_coefficient`` (JSON
    ``linear_coeff``) is the magnitude |M_k| / ht(k), while
    ``chromatic.linear_coefficient`` keeps the sign: on one edge at (1, 1)
    the record reads 1 and the coefficient is -1."""
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
    """Every free, connected-support weight <= cap with both method values.

    The cap is checked once; each weight the filter keeps is already a
    checked nonzero free weight, so its record is built directly.
    """
    cap = check_weight(graph, cap)
    table = MultiplicityTable(graph, cap)
    for w in weights_up_to(cap):
        if any(w) and _is_free(graph, w) and _is_connected(graph, w):
            table.entries[w] = _record(graph, w)
    return table


# ---------------------------------------------------------------------------
# Series oracles, on the truncated series of ``chromatic``.

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


def verify_pbw(graph: Supergraph, cap) -> SeriesReport:
    """Graded dimension identity of the enveloping algebra.

    The heap-count series must equal the product over weights w <= cap of
    (1 - x^w)^(-d) for even w and (1 + x^w)^d for odd w, where d is the
    number of super Lyndon heaps of weight w.  Even graded pieces behave
    polynomially, odd ones exterior-like; a mismatch pins the first bad
    coefficient.  Both sides are integer counts from one walk of standard
    words: all words and the super Lyndon words, per weight.  Each factor
    multiplies in place by ``_times_power``, as in the bond route too.
    """
    cap = check_weight(graph, cap)
    heaps, dims = _super_lyndon_counts(graph, cap)
    rhs = [1] + [0] * (len(heaps) - 1)
    for w, d in zip(weights_up_to(cap), dims):
        if d:
            sign = 1 if weight_parity(graph, w) else -1
            _times_power(rhs, cap, w, sign * d, sign)
    return _series_compare(heaps, rhs, cap, "heap series vs graded product")


def verify_cartier_foata(graph: Supergraph, cap) -> SeriesReport:
    """Inversion of the heap series by the alternating independent-set sum.

    (sum over heaps x^w) * (sum over independent S (-1)^|S| x^S) = 1,
    truncated at cap; the support of cap bounds the independent sets.
    The heaps are counted by enumeration, in one walk of standard words.
    """
    cap = check_weight(graph, cap)
    heaps, _ = _super_lyndon_counts(graph, cap)
    product = _times_terms(heaps, _terms(_independence_series(graph, cap, -1), cap))
    unit = [1] + [0] * (len(heaps) - 1)
    return _series_compare(product, unit, cap, "heap series times alternating independence sum")


def _series_compare(a: list, b: list, cap, description: str) -> SeriesReport:
    """The first weight, in ``weights_up_to`` order, where a and b differ."""
    for w, ca, cb in zip(weights_up_to(cap), a, b):
        if ca != cb:
            return SeriesReport(False, description, w, cb, ca)
    return SeriesReport(True, description)
