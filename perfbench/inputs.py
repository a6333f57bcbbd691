"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code: graphs, weights and request
lists are built with ``random.Random`` and plain bitmask arithmetic, so
the program under test never sees the benchmark seed and its caches are
untouched until the timed loop starts.

Inputs come in two parts.  A fixed *catalogue* holds every graph (shape,
vertex order and odd vertices) and, per graph, the weights and caps its
requests use.  It does not depend on the seed: the graph sets the cost of
a request (heap counts, the Lyndon heaps, signs and cancellations, the
size of every basis and expansion), and on a shared machine the run-to-run
spread must come from the program and the host, not from drawing harder
graphs on some seeds.  The seed draws the *order* of the requests of one
*pass*: the turn order of the graphs at each height of ``mult-sweep`` (and
the sample re-checked after it), the order of the graphs in each draw of
the ``basis-stream`` pool, and the order of the ``oracle-mix`` rounds.  A
run repeats the same pass, each time on a freshly imported program, so
every pass is the same work whatever the speed of the program.  The same
seed always gives the same graph files and the same pass.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
import random

FAMILIES = ("path", "cycle", "tree", "random")
SHAPES_PER_FAMILY = 3

# mult-sweep: one graph per family and size plus the two matrix graphs of
# sample_graphs/; a pass sweeps every weight under a cap of 3 up to a fixed
# height, height by height.
MULT_GRAPHS = tuple((fam, n) for n in (6, 7, 8) for fam in FAMILIES)
MATRIX_GRAPHS = ("path6.json", "tree6.json")
MULT_CAP = 3
MULT_HEIGHT = 7              # a pass takes about 3 s on a 2-vCPU machine
MULT_BATCH = 32              # weights per request
MULT_SAMPLE_CAP = 40         # results re-checked against the heap count
MULT_SAMPLE_MAX_HEAPS = 400  # keeps that re-check cheap

# basis-stream: weights of height 6-10 on 6-vertex graphs, one near each
# rung of a ladder of heap counts; a pass draws every weight twice.
BASIS_GRAPHS = 12
BASIS_POOL_PER_GRAPH = 3
BASIS_DRAWS = 2
BASIS_HEIGHTS = (6, 10)
BASIS_HEAP_BAND = (40, 120)
BASIS_CANDIDATES = 40

# oracle-mix: a pass is these rounds of small-cap oracle requests, each
# round on its own graph; every family and size comes up four times.
ORACLE_ROUNDS = 32
ORACLE_SIZES = (4, 5)
ORACLE_SERIES_BUDGET = 800     # heaps under the pbw / cartier-foata / table cap
ORACLE_SUITE_BUDGET = 160      # heaps under the verify-all cap
ORACLE_WEIGHT_BAND = (8, 90)   # heaps of the single-weight requests
ORACLE_KINDS = ("verify-pbw", "verify-cartier-foata", "mult-table",
                "heaps-super-lyndon", "verify-triangular", "chromatic-join",
                "chromatic-bond", "verify-all")


# ---------------------------------------------------------------------------
# Weights and heap counts.

def adjacency(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return tuple(adj)


def connected_support(adj, k) -> bool:
    mask = 0
    for i, x in enumerate(k):
        if x:
            mask |= 1 << i
    if not mask:
        return False
    seen = mask & -mask
    frontier = seen
    while frontier:
        nxt = 0
        bits = frontier
        while bits:
            b = bits & -bits
            nxt |= adj[b.bit_length() - 1]
            bits ^= b
        frontier = nxt & mask & ~seen
        seen |= frontier
    return seen == mask


class HeapCounter:
    """Heap counts by the Cartier-Foata inversion, without the program.

    With P = sum over independent sets S of (-1)^|S| x^S, the heap series
    is 1 / P, so H(k) = sum over nonempty independent S inside the support
    of k of (-1)^(|S|+1) H(k - 1_S), with H(0) = 1.  The cumulative count
    G(k) = sum of H(j) over j <= k is the series 1 / (P * prod(1 - x_i)),
    and obeys the same recursion with 1 in place of the base case.  The
    generator uses both to keep request sizes inside a band.
    """

    def __init__(self, n: int, edges):
        adj = adjacency(n, edges)
        # (mask, sign, decrement) for each nonempty independent set
        self.independent = [
            (m, 1 if bin(m).count("1") & 1 else -1,
             tuple(m >> i & 1 for i in range(n)))
            for m in range(1, 1 << n)
            if all(not adj[i] & m for i in range(n) if m >> i & 1)]
        self._memo = ({}, {})

    def _fold(self, k: tuple[int, ...], cumulative: int) -> int:
        memo = self._memo[cumulative]
        got = memo.get(k)
        if got is not None:
            return got
        mask = 0
        for i, x in enumerate(k):
            if x:
                mask |= 1 << i
        total = cumulative if mask else 1
        for s, sign, dec in self.independent:
            if not s & ~mask:
                total += sign * self._fold(tuple(map(operator.sub, k, dec)), cumulative)
        memo[k] = total
        return total

    def count(self, k) -> int:
        """Heaps of weight exactly k."""
        return self._fold(tuple(k), 0)

    def up_to(self, cap) -> int:
        """Heaps of every weight componentwise <= cap, the empty heap included."""
        return self._fold(tuple(cap), 1)


def random_weight(rng: random.Random, adj, height: int, top: int):
    """A weight of the given height, entries <= top, connected support."""
    n = len(adj)
    for _ in range(1000):
        k = [0] * n
        for _ in range(height):
            k[rng.randrange(n)] += 1
        if max(k) <= top and connected_support(adj, k):
            return tuple(k)
    raise ValueError("no weight found; graph too small for the height")


def weight_text(k) -> str:
    return ",".join(map(str, k))


# ---------------------------------------------------------------------------
# The catalogue: fixed shapes, and per shape the weights and caps requests
# use, all in the shape's own vertex numbering.

@functools.lru_cache(maxsize=None)
def shapes(family: str, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Connected edge sets of a family on n vertices."""
    if family == "path":
        return (tuple((i, i + 1) for i in range(n - 1)),)
    if family == "cycle":
        return (tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),),)
    if family not in ("tree", "random"):
        raise ValueError(f"unknown graph family {family!r}")
    rng = random.Random(f"catalogue:{family}:{n}")
    out = []
    while len(out) < SHAPES_PER_FAMILY:
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        if family == "random":
            target = len(edges) + n // 2
            while len(edges) < target:
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
        shape = tuple(sorted(edges))
        if shape not in out:
            out.append(shape)
    return tuple(out)


def shape(family: str, n: int, index: int):
    catalogue = shapes(family, n)
    return catalogue[index % len(catalogue)]


def basis_pool(family: str, n: int, index: int):
    """(weight, base vertex) pairs, one near each rung of the heap-count ladder.

    Candidates are random weights of height 6-10 with entries <= 3 inside
    the heap band; the ladder spreads each shape's pool over the band.
    """
    edges = shape(family, n, index)
    adj = adjacency(n, edges)
    counter = HeapCounter(n, edges)
    rng = random.Random(f"catalogue:basis:{family}:{n}:{index}")
    lo, hi = BASIS_HEAP_BAND
    candidates = {}
    for _ in range(BASIS_CANDIDATES * 20):
        k = random_weight(rng, adj, rng.randint(*BASIS_HEIGHTS), 3)
        if lo <= counter.count(k) <= hi:
            candidates[k] = counter.count(k)
            if len(candidates) == BASIS_CANDIDATES:
                break
    if len(candidates) < BASIS_POOL_PER_GRAPH:
        raise ValueError(f"too few weights inside the heap band on {family} {index}")
    pool = []
    for i in range(BASIS_POOL_PER_GRAPH):
        rung = lo * (hi / lo) ** (i / (BASIS_POOL_PER_GRAPH - 1))
        k = min(candidates, key=lambda w: (abs(math.log(candidates[w] / rung)), w))
        del candidates[k]
        pool.append((k, rng.choice([v for v, x in enumerate(k) if x])))
    return tuple(pool)


def _grown_cap(rng, n, counter, low, top, budget):
    """Raise random entries of the cap while it stays within the heap budget."""
    cap = [low] * n
    while True:
        options = []
        for i in range(n):
            if cap[i] < top:
                cap[i] += 1
                if counter.up_to(cap) <= budget:
                    options.append(i)
                cap[i] -= 1
        if not options:
            return tuple(cap)
        cap[rng.choice(options)] += 1


def _weight_in_band(rng, adj, counter, band):
    for _ in range(1000):
        k = random_weight(rng, adj, rng.randint(4, 8), 3)
        if band[0] <= counter.count(k) <= band[1]:
            return k
    raise ValueError("no weight found inside the band")


def oracle_rounds():
    """Per round: family, size, shape index, two caps and two weights."""
    rng = random.Random("catalogue:oracle")
    counters = {}
    rounds = []
    for r in range(ORACLE_ROUNDS):
        family = FAMILIES[r % len(FAMILIES)]
        n = ORACLE_SIZES[(r // len(FAMILIES)) % len(ORACLE_SIZES)]
        index = rng.randrange(SHAPES_PER_FAMILY)
        edges = shape(family, n, index)
        adj = adjacency(n, edges)
        counter = counters.setdefault((n, edges), HeapCounter(n, edges))
        rounds.append({
            "family": family, "n": n, "index": index,
            "series_cap": _grown_cap(rng, n, counter, 1, 2, ORACLE_SERIES_BUDGET),
            "suite_cap": _grown_cap(rng, n, counter, 0, 2, ORACLE_SUITE_BUDGET),
            "heap_weight": _weight_in_band(rng, adj, counter, ORACLE_WEIGHT_BAND),
            "chromatic_weight": _weight_in_band(rng, adj, counter, ORACLE_WEIGHT_BAND),
        })
    return tuple(rounds)


# ---------------------------------------------------------------------------
# Graph instances.  A spec holds the instance in index form; ``document``
# gives the program's graph-file schema.

def make_graph(family: str, n: int, index: int, slot: str) -> dict:
    """Catalogue shape ``index`` of a family, as the graph in a workload slot.

    The vertex order (``perm[i]`` is the vertex given to shape vertex i)
    and psi, a set of round(n / 3) odd vertices, are fixed per slot: the
    order decides the heap order and the Lyndon heaps, psi the signs,
    cancellations and super Lyndon squares, and together they set the
    size of every basis and expansion.
    """
    rng = random.Random(f"catalogue:graph:{slot}")
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in shape(family, n, index))
    psi = sorted(rng.sample(range(n), round(n / 3)))
    return {"n": n, "family": family, "edges": edges, "psi": psi, "perm": perm}


def relabel(spec: dict, k) -> tuple[int, ...]:
    """A weight in shape numbering moved onto the instance's vertices."""
    out = [0] * spec["n"]
    for i, x in enumerate(k):
        out[spec["perm"][i]] = x
    return tuple(out)


def document(spec: dict) -> dict:
    """The graph-file JSON document of a generated spec."""
    names = [str(i + 1) for i in range(spec["n"])]
    return {"vertices": names,
            "edges": [[names[a], names[b]] for a, b in spec["edges"]],
            "psi": [names[i] for i in spec["psi"]]}


def write_graph(spec: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document(spec), fh)
    spec["path"] = path
    return path


def matrix_spec(graph, path: str) -> dict:
    """Spec of a graph the program loaded from a matrix file.

    The cap allows each real vertex and each odd vertex of zero norm once
    and the others ``MULT_CAP`` times, so every weight under it is free.
    """
    bounded = graph.real | graph.psi0
    return {"n": graph.n, "family": "matrix", "edges": sorted(graph.edges),
            "psi": sorted(graph.psi), "path": path,
            "cap": tuple(1 if i in bounded else MULT_CAP for i in range(graph.n))}


# ---------------------------------------------------------------------------
# Workload plans: the graph specs (their files written) and the requests
# of one pass, in order.

def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def weights_of_height(spec: dict, h: int):
    """Free weights of height h with connected support under the cap, lex order."""
    adj = adjacency(spec["n"], spec["edges"])
    cap = spec["cap"]
    n = spec["n"]
    room = [sum(cap[i:]) for i in range(n)] + [0]

    def rec(i, left, prefix):
        if i == n:
            if connected_support(adj, prefix):
                yield tuple(prefix)
            return
        for x in range(min(cap[i], left), -1, -1):
            if left - x <= room[i + 1]:
                prefix.append(x)
                yield from rec(i + 1, left - x, prefix)
                prefix.pop()

    yield from rec(0, h, [])


def plan_mult_sweep(seed: int, workdir: str, matrix_specs=()) -> dict:
    """One graph per (family, size), then ``matrix_specs``; batches of weights.

    A pass sweeps heights 1 to ``MULT_HEIGHT``; within a height the graphs
    take turns, in an order the seed shuffles at each height, so every
    sub-weight is requested before the weights built on it.  A request is
    the next ``MULT_BATCH`` (spec, weight) pairs.
    """
    rng = _rng(seed, "mult-sweep")
    graphs = []
    for fam, n in MULT_GRAPHS:
        spec = make_graph(fam, n, 0, f"mult:{fam}:{n}")
        spec["cap"] = (MULT_CAP,) * n
        write_graph(spec, os.path.join(workdir, f"mult-{fam}-{n}.json"))
        graphs.append(spec)
    graphs += matrix_specs
    order = random.Random(rng.randrange(1 << 30))
    turns = list(graphs)
    pairs = []
    for h in range(1, MULT_HEIGHT + 1):
        order.shuffle(turns)
        iters = [(g, weights_of_height(g, h)) for g in turns]
        while iters:
            for item in list(iters):
                k = next(item[1], None)
                if k is None:
                    iters.remove(item)
                else:
                    pairs.append((item[0], k))
    batches = [pairs[i:i + MULT_BATCH] for i in range(0, len(pairs), MULT_BATCH)]
    return {"graphs": graphs, "requests": batches, "sample_seed": rng.randrange(1 << 30)}


def plan_basis_stream(seed: int, workdir: str) -> dict:
    """Requests in pairs: the Lyndon basis of a drawn weight, then its LLN basis.

    A pass draws the pool ``BASIS_DRAWS`` times over, so every weight is
    requested equally often and the draws after the first of a weight
    repeat it.  Each time the graphs come in a new seeded order, and each
    graph's weights in the catalogue's order.  Requests on different graphs
    share little cached work, so the seed changes the order of the
    requests but hardly their cost.
    """
    rng = _rng(seed, "basis-stream")
    pool = []
    for gi in range(BASIS_GRAPHS):
        family, index = FAMILIES[gi % len(FAMILIES)], gi // len(FAMILIES)
        spec = make_graph(family, 6, index, f"basis:{gi}")
        write_graph(spec, os.path.join(workdir, f"basis-{gi}.json"))
        pool.append([(spec, relabel(spec, k), str(spec["perm"][base] + 1))
                     for k, base in basis_pool(family, 6, index)])
    requests = []
    for _ in range(BASIS_DRAWS):
        rng.shuffle(pool)
        for spec, k, base in (item for weights in pool for item in weights):
            w = weight_text(k)
            requests.append(("lyndon", spec, k, ["basis", "lyndon", "--graph", spec["path"],
                                                 "--weight", w, "--json"]))
            requests.append(("lln", spec, k, ["basis", "lln", "--graph", spec["path"],
                                              "--weight", w, "--base", base, "--json"]))
    return {"requests": requests}


def plan_oracle_mix(seed: int, workdir: str) -> dict:
    """Every catalogue round on its graph, the rounds in a seeded order.

    Requests are (kind, round index, argv), the kinds of a round in the
    order of ``ORACLE_KINDS``.  Rounds share little cached work, since
    each has its own graph, so the seed changes the order of the requests
    but hardly their cost.
    """
    rng = _rng(seed, "oracle-mix")
    rounds = []
    for r, rd in enumerate(oracle_rounds()):
        spec = make_graph(rd["family"], rd["n"], rd["index"], f"oracle:{r}")
        g = write_graph(spec, os.path.join(workdir, f"oracle-{r}.json"))
        series = weight_text(relabel(spec, rd["series_cap"]))
        hw = weight_text(relabel(spec, rd["heap_weight"]))
        cw = weight_text(relabel(spec, rd["chromatic_weight"]))
        argvs = {
            "verify-pbw": ["verify", "pbw", "--graph", g, "--cap", series],
            "verify-cartier-foata": ["verify", "cartier-foata", "--graph", g,
                                     "--cap", series],
            "mult-table": ["mult", "table", "--graph", g, "--cap", series],
            "heaps-super-lyndon": ["heaps", "enumerate", "--graph", g, "--weight", hw,
                                   "--class", "super-lyndon"],
            "verify-triangular": ["verify", "triangular", "--graph", g, "--weight", hw],
            "chromatic-join": ["chromatic", "--graph", g, "--weight", cw,
                               "--method", "join"],
            "chromatic-bond": ["chromatic", "--graph", g, "--weight", cw,
                               "--method", "bond"],
            "verify-all": ["verify", "all", "--graph", g,
                           "--cap", weight_text(relabel(spec, rd["suite_cap"]))],
        }
        rounds.append([(kind, r, argvs[kind] + ["--json"]) for kind in ORACLE_KINDS])
    rng.shuffle(rounds)
    return {"requests": [request for one in rounds for request in one]}


PLANNERS = {"mult-sweep": plan_mult_sweep, "basis-stream": plan_basis_stream,
            "oracle-mix": plan_oracle_mix}
