"""Self-tests for the benchmark's own helpers.

    python3 perfbench/selftest.py

Covers the seeded generator, the tail-percentile rule, installing and
restoring the tracing wrappers (and the self time they compute), failure
counting, and the agreement of BENCHMARK.json with the metrics the code
emits.  The program is only imported, never run at benchmark sizes.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _fingerprint(workload, seed):
    """Graph files and the requests of a pass, with paths made relative."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        plan = worker.make_plan(workload, seed, workdir)
        files = {}
        for name in sorted(os.listdir(workdir)):
            with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        items = plan["requests"]
        if workload == "mult-sweep":
            items = [pair for batch in items for pair in batch]
        graph = {id(spec): os.path.basename(spec["path"]) for spec in plan.get("graphs", ())}
        requests = [json.dumps([graph.get(id(x), x) for x in item]).replace(workdir, "<dir>")
                    for item in items]
        return files, requests
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = _fingerprint(workload, 7)
                self.assertEqual(first, _fingerprint(workload, 7))
                other = _fingerprint(workload, 8)
                self.assertNotEqual(first, other)
                # another seed reorders the same work
                self.assertEqual(sorted(first[1]), sorted(other[1]))

    def test_heap_counter_matches_brute_force(self):
        # path 1-2-3: the letters 1 and 3 commute
        counter = inputs.HeapCounter(3, [(0, 1), (1, 2)])
        self.assertEqual(counter.count((1, 1, 1)), 4)
        self.assertEqual(counter.count((2, 0, 1)), 1)
        self.assertEqual(counter.up_to((1, 0, 1)), 1 + 1 + 1 + 1)

    def test_generated_graphs_are_connected(self):
        for family in inputs.FAMILIES:
            spec = inputs.make_graph(family, 7, 0, family)
            adj = inputs.adjacency(spec["n"], spec["edges"])
            self.assertTrue(inputs.connected_support(adj, (1,) * 7), family)
            self.assertEqual(len(spec["psi"]), 2)

    def test_matrix_graphs_get_a_free_cap(self):
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
        try:
            plan = worker.make_plan("mult-sweep", 1, workdir)
        finally:
            shutil.rmtree(workdir)
            with contextlib.suppress(OSError):
                os.rmdir(WORK)
        sg = sys.modules["freeroots.supergraph"]
        matrix = [g for g in plan["graphs"] if g["family"] == "matrix"]
        self.assertEqual(len(matrix), len(inputs.MATRIX_GRAPHS))
        for spec in matrix:
            graph = sg.load_graph(spec["path"])[0]
            for h in range(1, inputs.MULT_HEIGHT + 1):
                for k in inputs.weights_of_height(spec, h):
                    self.assertTrue(sg.is_free_weight(graph, k), (spec["path"], k))
                    self.assertTrue(sg.is_connected_support(graph, k), (spec["path"], k))


class TailRuleTest(unittest.TestCase):
    def test_metrics_use_each_request_median_over_passes(self):
        base = [float(i) for i in range(1, 101)]
        # the second pass runs fast and the third slow; the first is typical
        passes = [base, [x / 2 for x in base], [x * 3 for x in base]]
        child = {"passes": passes, "busy_s": 1.0, "setup_s": [0.3, 0.1, 0.2],
                 "rss_kb": 2048}
        e2e, pct = run.end_to_end(child)
        self.assertEqual(pct, 90.0)
        self.assertEqual(e2e["latency_tail_ms"], (90.0 * 1e3, "ms"))
        self.assertEqual(e2e["latency_p50_ms"], (50.5 * 1e3, "ms"))
        self.assertEqual(e2e["ops_per_s"], (100 / sum(base), "1/s"))
        self.assertEqual(e2e["setup_s"], (0.2, "s"))

    def test_eleventh_largest(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail_percentile(values), (90.0, 90.0))
        values = [float(i) for i in range(1, 1001)]
        value, pct = run.tail_percentile(values)
        self.assertEqual(value, 990.0)
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail_percentile([3.0, 5.0]), (5.0, 100.0))
        self.assertEqual(run.tail_percentile([1.0] * 10), (1.0, 100.0))
        with self.assertRaises(ValueError):
            run.tail_percentile([])


class CalibrationTest(unittest.TestCase):
    def test_each_latency_is_scaled_by_the_samples_around_it(self):
        n = calibrate.NOMINAL_S
        # requests 0 and 1 fall between the first two samples, request 2
        # between the second and third
        out = calibrate.scale([1.0, 2.0, 1.0], [1, 1, 2], [2 * n, n, n])
        for got, want in zip(out, [1 / 1.5, 2 / 1.5, 1.0], strict=True):
            self.assertAlmostEqual(got, want)

    def test_loop_samples_around_every_pass(self):
        loop = worker.Loop()
        loop.start_pass()
        loop.call(lambda: None)
        loop.end_pass()
        self.assertEqual(len(loop.refs), 2)
        self.assertEqual(len(loop.scaled), 1)
        self.assertEqual(len(loop.scaled[0]), 1)

    def test_reference_leaves_the_collector_as_it_was(self):
        self.assertTrue(gc.isenabled())
        self.assertGreater(calibrate.reference(), 0.0)
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            calibrate.reference()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_package(clock):
    """fakepkg.a defines inner/outer; fakepkg.b and fakepkg import inner."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        clock.now += 1.0
        return "inner"

    def outer():
        clock.now += 2.0
        a.inner()
        b.inner()
        clock.now += 3.0
        return "outer"

    def broken():
        clock.now += 1.0
        raise KeyError("boom")

    a.inner, a.outer, a.broken = inner, outer, broken
    b.inner = inner
    pkg.inner = inner
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.clock = _FakeClock()
        self.modules = _fake_package(self.clock)
        sys.modules.update(self.modules)
        self.originals = {name: getattr(self.modules["fakepkg.a"], name)
                          for name in ("inner", "outer", "broken")}

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_install_patches_every_binding_and_restore_undoes_it(self):
        tracer = tracing.Tracer("fakepkg", clock=self.clock)
        tracer.install([("a", "inner"), ("a", "outer"), ("a", "gone")])
        self.assertEqual(tracer.absent, ["a.gone"])
        a, b, pkg = (self.modules[k] for k in ("fakepkg.a", "fakepkg.b", "fakepkg"))
        self.assertIsNot(a.inner, self.originals["inner"])
        self.assertIs(b.inner, a.inner)
        self.assertIs(pkg.inner, a.inner)
        self.assertIs(a.inner.__wrapped__, self.originals["inner"])
        tracer.restore()
        self.assertIs(a.inner, self.originals["inner"])
        self.assertIs(b.inner, self.originals["inner"])
        self.assertIs(pkg.inner, self.originals["inner"])
        self.assertIs(a.outer, self.originals["outer"])

    def test_nested_spans_give_self_time(self):
        tracer = tracing.Tracer("fakepkg", clock=self.clock)
        tracer.install([("a", "inner"), ("a", "outer")])
        try:
            tracer.begin(1)
            start = self.clock()
            self.assertEqual(self.modules["fakepkg.a"].outer(), "outer")
            spans = tracer.spans()
            self.assertEqual({s[0] for s in spans}, {1})
            outer_id = next(s[1] for s in spans if s[3] == "a.outer")
            self.assertEqual([s[2] for s in spans if s[3] == "a.inner"], [outer_id] * 2)
            unattributed = tracer.end(self.clock() - start)
        finally:
            tracer.restore()
        self.assertEqual(tracer.calls, {"a.inner": 2, "a.outer": 1})
        self.assertEqual(tracer.self_s, {"a.inner": 2.0, "a.outer": 5.0})
        self.assertEqual(unattributed, 0.0)

    def test_a_raising_call_still_closes_its_span(self):
        tracer = tracing.Tracer("fakepkg", clock=self.clock)
        tracer.install([("a", "broken")])
        try:
            tracer.begin(1)
            with self.assertRaises(KeyError):
                self.modules["fakepkg.a"].broken()
            tracer.end(1.0)
        finally:
            tracer.restore()
        self.assertEqual(tracer.calls, {"a.broken": 1})
        self.assertEqual(tracer.self_s, {"a.broken": 1.0})

    def test_missing_cache_is_absent(self):
        tracer = tracing.Tracer("fakepkg", clock=self.clock)
        tracer.harvest()
        report = tracer.report(busy_s=1.0)
        for cache in tracing.CACHES:
            self.assertIn(cache, tracer.absent)
            self.assertNotIn(f"{cache}.hit_ratio", report)

    def test_program_namespaces(self):
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        modules = worker.import_program()
        heaps = modules["freeroots.heaps"]
        original = heaps.enumerate_heaps
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.absent, [])
            wrapped = heaps.enumerate_heaps
            self.assertIsNot(wrapped, original)
            for name in ("freeroots", "freeroots.superlie", "freeroots.multiplicity"):
                self.assertIs(getattr(modules[name], "enumerate_heaps"), wrapped, name)
            self.assertIs(modules["freeroots.cli"].hp.enumerate_heaps, wrapped)
            for cache in tracing.CACHES:
                self.assertIsNotNone(tracer.cache_info(cache), cache)
            tracer.begin(1)
            graph = os.path.join(ROOT, "sample_graphs", "tree6.json")
            worker.run_cli(["verify", "all", "--graph", graph, "--cap", "1,1,2,1,1,1"])
            worker.run_cli(["basis", "lyndon", "--graph", graph, "--weight", "0,0,3,0,0,3"])
            tracer.end(1.0)
            tracer.harvest()
        finally:
            tracer.restore()
        report = tracer.report(busy_s=1.0)
        self.assertEqual(list(report) + ["trace.overhead_ratio"], tracing.metric_names())
        self.assertGreater(report["superlie.integer_rank.calls"], 0)
        self.assertGreater(report["heaps.super_lyndon_heaps.found_per_heap"], 0)
        self.assertIs(modules["freeroots.superlie"].enumerate_heaps, original)

    def test_each_pass_starts_cold(self):
        worker.import_program()
        graph = os.path.join(ROOT, "sample_graphs", "tree6.json")
        worker.run_cli(["basis", "lyndon", "--graph", graph, "--weight", "0,0,2,0,0,2"])
        tracer = tracing.Tracer()
        self.assertGreater(tracer.cache_info("heaps.superpose_cache").misses, 0)
        worker.fresh_program("basis-stream", {})
        info = tracer.cache_info("heaps.superpose_cache")
        self.assertEqual((info.hits, info.misses), (0, 0))


class FailureCountingTest(unittest.TestCase):
    def test_raising_request_is_counted(self):
        loop = worker.Loop()
        result, exc = loop.call(lambda: 1 / 0)
        self.assertIsNone(result)
        self.assertIsInstance(exc, ZeroDivisionError)
        self.assertEqual((loop.attempted, len(loop.latencies)), (1, 1))
        self.assertEqual(len(loop.passes), 1)

    def test_cli_outcomes(self):
        loop = worker.Loop()
        self.assertIsNone(worker._cli_doc(loop, (1, "", "bad"), None, ["x"], None))
        self.assertIsNone(worker._cli_doc(loop, (0, "not json", ""), None, ["x"], None))
        self.assertIsNone(worker._cli_doc(loop, None, RuntimeError(), ["x"], None))
        self.assertEqual(worker._cli_doc(loop, (0, '{"a": 1}', ""), None, ["x"], None),
                         {"a": 1})
        self.assertEqual(loop.failed, 3)

    @staticmethod
    def _basis_reply(dim, rank):
        cert = {"cols": 9, "rank": rank, "rows": dim}
        doc = {"certificates": [cert], "command": "basis",
               "result": {"certificate": cert, "dimension": dim, "elements": []}}
        return 0, json.dumps(doc, indent=2, sort_keys=True), ""

    def test_basis_dimension_checks(self):
        spec = {"path": "g.json"}
        plan = {"requests": [("lyndon", spec, (1, 1), ["a"]), ("lln", spec, (1, 1), ["b"]),
                             ("lyndon", spec, (1, 1), ["a"])]}
        replies = iter([self._basis_reply(2, 2), self._basis_reply(3, 3),
                        self._basis_reply(2, 1)])
        saved = worker.run_cli
        worker.run_cli = lambda argv: next(replies)
        state = {}
        try:
            loop = worker.Loop()
            worker.basis_stream(loop, plan, state, None)
        finally:
            worker.run_cli = saved
        # lyndon 2 vs lln 3 disagree; then rank 1 for dimension 2
        self.assertEqual((loop.attempted, loop.failed), (3, 2))
        self.assertEqual((state["draws"], state["repeats"]), (2, 1))

    def test_basis_numbers_read_the_program_output(self):
        src = os.path.join(ROOT, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        worker.import_program()
        graph = os.path.join(ROOT, "sample_graphs", "path6.json")
        for argv in (["basis", "lyndon", "--graph", graph, "--weight", "0,0,2,1,2,1"],
                     ["basis", "lln", "--graph", graph, "--weight", "0,0,2,1,2,1",
                      "--base", "3"]):
            rc, out, _ = worker.run_cli(argv + ["--json"])
            self.assertEqual(rc, 0)
            doc = json.loads(out)
            dim = doc["result"]["dimension"]
            self.assertEqual(worker.basis_numbers(out), (dim, [dim, dim]))
            self.assertEqual(doc["certificates"][0]["rank"], dim)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_match_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(worker.WORKLOADS), sorted(run.WORKLOADS))
        child = {"passes": [[0.001 * i for i in range(1, 50)]], "busy_s": 1.0,
                 "setup_s": [0.1], "rss_kb": 1024}
        e2e, _ = run.end_to_end(child)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {name: unit for name, (_, unit) in e2e.items()})
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracing.metric_names())
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run._layer_unit(m["name"]), m["name"])


if __name__ == "__main__":
    unittest.main()
