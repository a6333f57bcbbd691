"""One workload in a fresh interpreter: set up, run the closed loop, check.

``run.py`` starts this file as a child process.  The child builds the
workload's inputs from the seed and writes its graph files, times the
program's set-up, then runs one closed-loop client (the next request is
sent when the previous one has returned) in *passes*: each pass imports
``freeroots`` afresh from the checkout's ``src/``, so the program's
module-level caches start cold, and sends the same list of requests.
Passes start until ``--seconds`` have gone by (or ``--passes`` have run),
and a started pass is finished, so every run measures whole passes of the
same work.  Latencies and set-up times are also given at the reference
speed of ``calibrate.py``.  Every result is checked.  The last line of standard output is
a JSON object with the raw measurements; ``run.py`` turns them into
metrics.

    python3 perfbench/worker.py --workload basis-stream --seed 1 --seconds 10 \
        --trace 0 --workdir .perfbench_work/basis-stream
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3  # before the first pass; every pass sets up once more
clock = time.perf_counter


def _use_src():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "freeroots", "__init__.py")):
        raise SystemExit(f"no freeroots package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def drop_program():
    """Forget every imported ``freeroots`` module and collect the garbage."""
    for key in [k for k in sys.modules if k == "freeroots" or k.startswith("freeroots.")]:
        del sys.modules[key]
    gc.collect()


def _import():
    importlib.import_module("freeroots")
    importlib.import_module("freeroots.cli")
    return sys.modules


def import_program():
    """Import ``freeroots`` afresh, dropping any copy imported before."""
    _use_src()
    drop_program()
    return _import()


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """The workload's graph files and the requests of one pass.

    The matrix graphs of ``mult-sweep`` are read by the program's own
    ``load_graph``, which decides their edges and bounded vertices.
    """
    if workload != "mult-sweep":
        return inputs.PLANNERS[workload](seed, workdir)
    load = import_program()["freeroots.supergraph"].load_graph
    paths = [os.path.join(ROOT, "sample_graphs", name) for name in inputs.MATRIX_GRAPHS]
    return inputs.plan_mult_sweep(seed, workdir,
                                  [inputs.matrix_spec(load(p)[0], p) for p in paths])


def fresh_program(workload: str, plan: dict) -> float:
    """Drop the program, then import it (and load the graphs); returns the time taken.

    This is the program's set-up: a ``mult-sweep`` caller also loads its
    graphs, while a CLI request loads its own graph file.
    """
    _use_src()
    for spec in plan.get("graphs", ()):
        spec.pop("graph", None)
    drop_program()
    t0 = clock()
    modules = _import()
    if workload == "mult-sweep":
        load = modules["freeroots.supergraph"].load_graph
        for spec in plan["graphs"]:
            spec["graph"] = load(spec["path"])[0]
    return clock() - t0


def timed_setup(workload: str, plan: dict) -> float:
    """:func:`fresh_program` in seconds at the reference speed."""
    before = calibrate.reference()
    dt = fresh_program(workload, plan)
    return dt * calibrate.NOMINAL_S / ((before + calibrate.reference()) / 2)


def use_bytecode_cache(prefix: str):
    """Compile the program once into ``prefix`` and import from there after.

    Every timed import then loads bytecode, whether or not the environment
    lets Python write ``__pycache__`` (``PYTHONDONTWRITEBYTECODE``), so
    ``setup_s`` is the same work everywhere: executing the modules, not
    compiling their source.
    """
    sys.pycache_prefix = prefix
    sys.dont_write_bytecode = False
    import_program()


def set_up(workload: str, seed: int, workdir: str):
    """Inputs and graph files once, then the program's set-up, repeated.

    Returns the time of each set-up and the plan.  Writing the inputs is
    the benchmark's own work and is not timed.  The set-up at the start of
    each pass is timed too, so the samples are spread over the run.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    use_bytecode_cache(os.path.join(workdir, "pycache"))
    plan = make_plan(workload, seed, workdir)
    return [timed_setup(workload, plan) for _ in range(SETUP_REPEATS)], plan


class Loop:
    """Closed-loop client state: latencies per pass, failures, the optional tracer.

    ``passes`` holds the wall-clock latencies of each pass in request
    order, and ``scaled`` the same at the reference speed once the pass
    has ended.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.passes: list[list[float]] = []
        self.scaled: list[list[float]] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.unattributed_s = 0.0
        self._marks: list[int] = []
        self._refs: list[float] = []
        self._last_ref = 0.0

    @property
    def latencies(self) -> list[float]:
        return [dt for one in self.passes for dt in one]

    def _sample(self):
        self._refs.append(calibrate.reference())
        self._last_ref = clock()

    def start_pass(self):
        self.passes.append([])
        self._marks, self._refs = [], []
        self._sample()

    def end_pass(self):
        self._sample()
        self.scaled.append(calibrate.scale(self.passes[-1], self._marks, self._refs))
        self.refs += self._refs

    def call(self, fn, *args):
        """Time one request of the current pass; returns (result, exception or None)."""
        if not self.passes:
            self.start_pass()
        if clock() - self._last_ref >= calibrate.INTERVAL_S:
            self._sample()
        self._marks.append(len(self._refs))
        self.attempted += 1
        if self.tracer:
            self.tracer.begin(self.attempted)
        err = result = None
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            err = exc
        dt = clock() - t0
        if self.tracer:
            self.unattributed_s += self.tracer.end(dt)
        self.passes[-1].append(dt)
        return result, err

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def run_cli(argv):
    """cli.main with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sys.modules["freeroots.cli"].main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_output(loop: Loop, result, exc, argv, tracer):
    """The request's standard output, or None after counting the failure."""
    if exc is not None:
        loop.fail(f"{' '.join(argv)}: raised {exc!r}")
        return None
    rc, out, err = result
    if tracer:
        tracer.counters["cli.output_bytes"] += len(out.encode())
    if rc != 0:
        loop.fail(f"{' '.join(argv)}: exit {rc}: {err.strip()[:200]}")
        return None
    return out


def _cli_doc(loop: Loop, result, exc, argv, tracer):
    """The request's JSON document, or None after counting the failure."""
    out = _cli_output(loop, result, exc, argv, tracer)
    if out is None:
        return None
    try:
        return json.loads(out)
    except ValueError:
        loop.fail(f"{' '.join(argv)}: output is not JSON")
        return None


# A basis document has sorted keys: one "dimension" (in result) and two
# "rank" entries (certificates[0] and result.certificate).  Reading them
# from the text keeps the check from parsing megabytes of expansions,
# which would also raise the child's peak memory above the program's own.
_DIMENSION = re.compile(r'^    "dimension": (\d+),$', re.M)
_RANK = re.compile(r'^ +"rank": (\d+),$', re.M)


def basis_numbers(text: str):
    """(dimension, certified ranks) of a ``basis ... --json`` document."""
    dims = _DIMENSION.findall(text)
    ranks = _RANK.findall(text)
    if len(dims) != 1 or len(ranks) != 2:
        return None, None
    return int(dims[0]), sorted(int(r) for r in ranks)


# ---------------------------------------------------------------------------
# Workloads.  Each runs one pass of the plan's requests; ``state`` carries
# what the checks compare across passes, and the report's extra fields.

def mult_sweep(loop: Loop, plan: dict, state: dict, tracer) -> None:
    """One request asks for the multiplicities of the next batch of weights.

    Every pass must give the first pass's results, record for record.
    """
    mult = sys.modules["freeroots.multiplicity"]

    def request(batch):
        return [mult.mult_free_root(spec["graph"], k, method="both") for spec, k in batch]

    results = []
    for batch in plan["requests"]:
        records, exc = loop.call(request, batch)
        if exc is not None:
            loop.fail(f"mult_free_root batch from {batch[0][1]}: raised {exc!r}")
            results.append(None)
            continue
        bad = [r for r in records if not isinstance(r.recursion, int) or r.recursion < 0
               or r.agree != (r.closed_form == r.recursion)]
        if bad:
            loop.fail(f"mult_free_root: inconsistent record {bad[0]!r}")
            results.append(None)
            continue
        results.append(tuple((r.recursion, r.closed_form) for r in records))
    first = state.setdefault("results", results)
    for batch, got, want in zip(plan["requests"], results, first):
        if got is not None and want is not None and got != want:
            loop.fail(f"mult_free_root batch from {batch[0][1]}: results differ "
                      "from the first pass")
    state["disagreements"] = sum(rec != cf for res in first if res for rec, cf in res)


def check_mult_sample(loop: Loop, plan: dict, state: dict) -> int:
    """Compare a seeded sample of results with the super Lyndon heap count."""
    heaps = sys.modules["freeroots.heaps"]
    done = [(spec, k, res[i][0])
            for batch, res in zip(plan["requests"], state.get("results", ())) if res
            for i, (spec, k) in enumerate(batch)]
    rng = random.Random(plan["sample_seed"])
    rng.shuffle(done)
    counters = {}
    checked = 0
    for spec, k, rec in done:
        if checked == inputs.MULT_SAMPLE_CAP:
            break
        counter = counters.setdefault(id(spec), inputs.HeapCounter(spec["n"], spec["edges"]))
        if counter.count(k) > inputs.MULT_SAMPLE_MAX_HEAPS:
            continue
        checked += 1
        found = len(heaps.super_lyndon_heaps(spec["graph"], k))
        if found != rec:
            loop.fail(f"mult {k} on {spec['path']}: {rec} != {found} super Lyndon heaps")
    return checked


def basis_stream(loop: Loop, plan: dict, state: dict, tracer) -> None:
    dims = state.setdefault("dims", {})
    seen_in_pass = set()
    for kind, spec, k, argv in plan["requests"]:
        key = (spec["path"], k)
        if kind == "lyndon":
            state["draws"] = state.get("draws", 0) + 1
            state["repeats"] = state.get("repeats", 0) + (key in seen_in_pass)
            seen_in_pass.add(key)
        result, exc = loop.call(run_cli, argv)
        out = _cli_output(loop, result, exc, argv, tracer)
        if out is None:
            continue
        dim, ranks = basis_numbers(out)
        if dim is None or ranks != [dim, dim]:
            loop.fail(f"{' '.join(argv)}: dimension {dim}, certified ranks {ranks}")
            continue
        seen = dims.setdefault(key, {})
        seen.setdefault(kind, set()).add(dim)
        if len(set().union(*seen.values())) > 1:
            loop.fail(f"weight {k} on {spec['path']}: lyndon and lln dimensions {seen}")


def oracle_mix(loop: Loop, plan: dict, state: dict, tracer) -> None:
    chromatic: dict[int, dict[str, list]] = {}
    discrepancies = 0
    for kind, r, argv in plan["requests"]:
        result, exc = loop.call(run_cli, argv)
        doc = _cli_doc(loop, result, exc, argv, tracer)
        if doc is None:
            continue
        res = doc["result"]
        if kind.startswith("verify") and res.get("ok") is not True:
            loop.fail(f"{' '.join(argv)}: ok is {res.get('ok')!r}")
        elif kind.startswith("chromatic"):
            seen = chromatic.setdefault(r, {})
            seen[kind] = res["coefficients"]
            if len(seen) == 2 and seen["chromatic-join"] != seen["chromatic-bond"]:
                loop.fail(f"round {r}: join and bond polynomials differ")
        elif kind == "heaps-super-lyndon" and res["count"] != len(res["heaps"]):
            loop.fail(f"{' '.join(argv)}: count {res['count']} for {len(res['heaps'])} heaps")
        elif kind == "mult-table":
            discrepancies += len(res["discrepancies"])
    state["discrepancies"] = discrepancies


WORKLOADS = {"mult-sweep": mult_sweep, "basis-stream": basis_stream,
             "oracle-mix": oracle_mix}


def run_passes(workload: str, plan: dict, loop: Loop, seconds: float,
               passes: int | None, setup_s: list[float]) -> dict:
    """Whole passes, each on a freshly imported program, until time or count is up.

    The time each pass's set-up takes is appended to ``setup_s``.
    """
    state: dict = {}
    deadline = clock() + seconds
    while len(loop.passes) < passes if passes is not None else clock() < deadline:
        setup_s.append(timed_setup(workload, plan))
        if loop.tracer:
            loop.tracer.install()
        loop.start_pass()
        WORKLOADS[workload](loop, plan, state, loop.tracer)
        loop.end_pass()
        if loop.tracer:
            loop.tracer.harvest()
            loop.tracer.restore()
    return state


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--passes", type=int, default=None,
                   help="run this many passes instead of passes until --seconds")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    try:
        setup_s, plan = set_up(args.workload, args.seed, args.workdir)
        loop = Loop(tracing.Tracer() if args.trace else None)
        t0 = clock()
        state = run_passes(args.workload, plan, loop, args.seconds, args.passes, setup_s)
        wall_s = clock() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        busy_s = sum(loop.latencies)
        extra = {key: state[key] for key in ("disagreements", "discrepancies") if key in state}
        if "draws" in state:
            extra["draws"] = state["draws"]
            extra["repeat_share"] = state["repeats"] / state["draws"]
        layer = None
        if loop.tracer:
            layer = loop.tracer.report(busy_s)
            extra["absent"] = loop.tracer.absent
            extra["unattributed_s"] = loop.unattributed_s
        if args.workload == "mult-sweep":
            extra["sampled"] = check_mult_sample(loop, plan, state)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "passes": loop.scaled, "busy_s": busy_s,
              "scaled_busy_s": sum(map(sum, loop.scaled)),
              "ref_s": statistics.median(loop.refs),
              "wall_s": wall_s, "attempted": loop.attempted, "failed": loop.failed,
              "failures": loop.failures, "rss_kb": rss_kb, "layer": layer, **extra}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
