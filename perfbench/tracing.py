"""Layer tracing installed from outside the program.

A :class:`Tracer` replaces each traced function by a wrapper in every
``freeroots`` module namespace that binds it (the defining module, the
modules that imported the name, and the package itself), so calls made
through ``hp.``, ``sl.``, ``ch.`` and ``mult_mod.`` are seen too.  Each
wrapper records a span (name, parent span, start, end) under the id of the
current request; when the request ends, its spans are folded into per-name
call counts and self times, where a span's self time is its duration minus
the durations of its direct children.  Counter hooks run at the same
boundaries, and the time they take is charged to no span.

Nothing in ``src/`` is edited; :meth:`Tracer.restore` puts every original
function back.  A run installs the wrappers once per pass, on that pass's
freshly imported program, and :meth:`Tracer.harvest` reads the caches
before they are dropped; the report gives counts and times per pass.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("supergraph", "heaps", "superlie", "chromatic", "multiplicity", "cli")

# (module, function): the layer boundaries that get spans.
TARGETS = (
    ("supergraph", "independent_sets"),
    ("supergraph", "load_graph"),
    ("heaps", "enumerate_heaps"),
    ("heaps", "super_lyndon_heaps"),
    ("heaps", "lyndon_heaps"),
    ("heaps", "conjugacy_class"),
    ("heaps", "classify"),
    ("superlie", "integer_rank"),
    ("superlie", "lyndon_heap_basis"),
    ("superlie", "lln_basis"),
    ("superlie", "expand_monomial"),
    ("superlie", "_expand_lambda"),
    ("chromatic", "k_chromatic_direct"),
    ("chromatic", "k_chromatic_join"),
    ("chromatic", "k_chromatic_bond"),
    ("chromatic", "bond_lattice"),
    ("multiplicity", "mult_free_root"),
    ("multiplicity", "free_roots_up_to"),
    ("multiplicity", "verify_pbw"),
    ("multiplicity", "verify_cartier_foata"),
    ("cli", "main"),
    ("cli", "run_verification_suite"),
)

# metric name -> (module, lru_cache-wrapped function) read through cache_info().
CACHES = {
    "heaps.superpose_cache": ("heaps", "_superpose_plain"),
    "superlie.signed_superpose_cache": ("superlie", "signed_superpose"),
    "chromatic.tuple_counts_cache": ("chromatic", "_tuple_counts"),
}

COUNTERS = ("superlie.integer_rank.cells", "superlie.integer_rank.nonzero",
            "superlie.expand.terms_out", "heaps.enumerate_heaps.heaps_out",
            "heaps.super_lyndon_heaps.found", "heaps.super_lyndon_heaps.swept",
            "chromatic.bond_lattice.partitions",
            "multiplicity.closed_form_disagreements", "cli.output_bytes")


def _span_name(module: str, func: str) -> str:
    return f"{module}.{func.lstrip('_')}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, func in TARGETS:
        base = _span_name(module, func)
        names += [f"{base}.calls", f"{base}.self_s"]
    names += ["superlie.integer_rank.cells", "superlie.integer_rank.nonzero_ratio",
              "superlie.expand.terms_out", "heaps.enumerate_heaps.heaps_out",
              "heaps.super_lyndon_heaps.found_per_heap", "heaps.interned",
              "chromatic.bond_lattice.partitions",
              "multiplicity.closed_form_disagreements", "cli.output_bytes"]
    for cache in CACHES:
        names.append(f"{cache}.hit_ratio")
    names += ["heaps.superpose_cache.evictions", "chromatic.tuple_counts_cache.states"]
    names += [f"layer.{layer}.self_share" for layer in LAYERS]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Spans and counters for one process; create, install, run, restore."""

    def __init__(self, package: str = "freeroots", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._request = None
        self._seen_slh: set = set()
        self.passes = 0
        self._caches = {metric: [0, 0, 0] for metric in CACHES}  # hits, misses, size
        self._interned = 0

    # -- installation -------------------------------------------------------

    def _module(self, name: str):
        return sys.modules.get(f"{self.package}.{name}")

    def _namespaces(self):
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(self.package + "."))]

    def install(self, targets=TARGETS):
        """Wrap every target in every package namespace that binds it."""
        for module, func in targets:
            mod = self._module(module)
            original = getattr(mod, func, None) if mod is not None else None
            name = _span_name(module, func)
            if original is None:
                self._absent(name)
                continue
            wrapper = self._wrap(name, original, _BEFORE.get(name), _AFTER.get(name))
            for ns in self._namespaces():
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
            self.calls.setdefault(name, 0)
            self.self_s.setdefault(name, 0.0)

    def restore(self):
        """Put back every function :meth:`install` replaced."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, before, after):
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            h0 = clock()
            if before:
                before(tracer, args)
            stack = tracer._stack
            sid = tracer._next_id = tracer._next_id + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                tracer._spans.append((tracer._request, sid, parent, name, t0, t1, t1 - h0))
                raise
            t1 = clock()
            stack.pop()
            if after:
                after(tracer, args, result)
            h1 = clock()
            # outer span: the child's share of its parent, bookkeeping included
            tracer._spans.append((tracer._request, sid, parent, name, t0, t1, h1 - h0))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- requests -----------------------------------------------------------

    def begin(self, request_id):
        """Start a request; spans until :meth:`end` share its id."""
        self._request = request_id
        self._spans.clear()
        self._stack.clear()

    def end(self, duration: float):
        """Fold the request's spans into totals; ``duration`` is its latency.

        Returns the request's unattributed self time: its duration minus
        the outer durations of its top-level spans.
        """
        covered: dict[int, float] = {}
        for _, sid, parent, name, t0, t1, outer in self._spans:
            covered[parent] = covered.get(parent, 0.0) + outer
        for _, sid, parent, name, t0, t1, outer in self._spans:
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - covered.get(sid, 0.0)
        self._spans.clear()
        self._request = None
        return duration - covered.get(0, 0.0)

    def spans(self):
        """The open request's spans.

        Each is (request id, span id, parent span id or 0, name, start,
        end, outer duration including the wrapper's own bookkeeping).
        """
        return list(self._spans)

    # -- caches -------------------------------------------------------------

    def cache_info(self, metric: str):
        """cache_info() of a probed cache, or None when it no longer exists."""
        module, func = CACHES[metric]
        mod = self._module(module)
        fn = getattr(mod, func, None) if mod is not None else None
        fn = getattr(fn, "__wrapped__", None) if not hasattr(fn, "cache_info") else fn
        info = getattr(fn, "cache_info", None)
        return info() if info is not None else None

    def harvest(self):
        """End a pass: add up its caches and interned heaps, before the program goes."""
        self.passes += 1
        for metric, totals in self._caches.items():
            info = self.cache_info(metric)
            if info is None:
                self._absent(metric)
                continue
            totals[0] += info.hits
            totals[1] += info.misses
            totals[2] += info.currsize
        registry = getattr(self._module("heaps"), "_REGISTRY", None)
        if isinstance(registry, dict):
            self._interned += sum(len(pool) for pool in registry.values())
        else:
            self._absent("heaps.interned")
        self._seen_slh.clear()

    def _absent(self, name: str):
        if name not in self.absent:
            self.absent.append(name)

    # -- report -------------------------------------------------------------

    def report(self, busy_s: float) -> dict:
        """Per-layer metrics per pass; metrics whose source is gone are left out."""
        per = max(self.passes, 1)
        out = {}
        for module, func in TARGETS:
            name = _span_name(module, func)
            if name in self.calls:
                out[f"{name}.calls"] = self.calls[name] / per
                out[f"{name}.self_s"] = self.self_s[name] / per
        c = self.counters
        out["superlie.integer_rank.cells"] = c["superlie.integer_rank.cells"] / per
        out["superlie.integer_rank.nonzero_ratio"] = _ratio(
            c["superlie.integer_rank.nonzero"], c["superlie.integer_rank.cells"])
        out["superlie.expand.terms_out"] = c["superlie.expand.terms_out"] / per
        out["heaps.enumerate_heaps.heaps_out"] = c["heaps.enumerate_heaps.heaps_out"] / per
        out["heaps.super_lyndon_heaps.found_per_heap"] = _ratio(
            c["heaps.super_lyndon_heaps.found"], c["heaps.super_lyndon_heaps.swept"])
        if "heaps.interned" not in self.absent:
            out["heaps.interned"] = self._interned / per
        for key in ("chromatic.bond_lattice.partitions",
                    "multiplicity.closed_form_disagreements", "cli.output_bytes"):
            out[key] = c[key] / per
        for metric, (hits, misses, size) in self._caches.items():
            if metric in self.absent:
                continue
            out[f"{metric}.hit_ratio"] = _ratio(hits, hits + misses)
            if metric == "heaps.superpose_cache":
                out[f"{metric}.evictions"] = (misses - size) / per
            if metric == "chromatic.tuple_counts_cache":
                out[f"{metric}.states"] = size / per
        for layer in LAYERS:
            total = sum(s for name, s in self.self_s.items()
                        if name.startswith(layer + "."))
            out[f"layer.{layer}.self_share"] = _ratio(total, busy_s)
        return {name: out[name] for name in metric_names() if name in out}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Counter hooks, keyed by span name: before(tracer, args) and
# after(tracer, args, result).  The program passes these arguments
# positionally.

def _rank_cells(tracer, args):
    rows = args[0]
    if rows:
        c = tracer.counters
        c["superlie.integer_rank.cells"] += len(rows) * len(rows[0])
        c["superlie.integer_rank.nonzero"] += sum(len(r) - r.count(0) for r in rows)


def _basis_terms(tracer, args, basis):
    tracer.counters["superlie.expand.terms_out"] += sum(
        len(e.expansion.terms) for e in basis.elements)


def _heaps_out(tracer, args, heaps):
    tracer.counters["heaps.enumerate_heaps.heaps_out"] += len(heaps)


def _slh_sweep(tracer, args, found):
    """Super Lyndon heaps found per heap of the weight, once per distinct weight.

    The sweep behind ``super_lyndon_heaps`` visits every heap of a weight
    with connected support; the heap list comes from the enumeration cache
    that sweep has just filled, so counting it adds no work.
    """
    enum = getattr(tracer._module("heaps"), "_enumerate_plain", None)
    plain = getattr(tracer._module("supergraph"), "plain", None)
    if enum is None or plain is None or not found:
        return
    key = (plain(args[0]), tuple(args[1]))
    if key in tracer._seen_slh:
        return
    tracer._seen_slh.add(key)
    tracer.counters["heaps.super_lyndon_heaps.found"] += len(found)
    tracer.counters["heaps.super_lyndon_heaps.swept"] += len(enum(*key))


def _partitions(tracer, args, parts):
    tracer.counters["chromatic.bond_lattice.partitions"] += len(parts)


def _disagreements(tracer, args, record):
    if getattr(record, "agree", True) is False:
        tracer.counters["multiplicity.closed_form_disagreements"] += 1


_BEFORE = {"superlie.integer_rank": _rank_cells}
_AFTER = {
    "superlie.lyndon_heap_basis": _basis_terms,
    "superlie.lln_basis": _basis_terms,
    "heaps.enumerate_heaps": _heaps_out,
    "heaps.super_lyndon_heaps": _slh_sweep,
    "chromatic.bond_lattice": _partitions,
    "multiplicity.mult_free_root": _disagreements,
}
