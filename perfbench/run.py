"""The freeroots benchmark: one workload per invocation, in a fresh interpreter.

    python3 perfbench/run.py --workload mult-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``); the child runs one closed-loop client in whole passes of
the same requests, each on a freshly imported program so its module
caches start cold, until ``--seconds`` have gone by, and checks every
result.  With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced child, and an untraced child then runs the same number
of passes to measure the tracing overhead.  Earlier lines are a readable
summary.  The exit code is 0 only when a result was produced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import NOMINAL_S  # noqa: E402

WORKLOADS = ("mult-sweep", "basis-stream", "oracle-mix")
TIMEOUT_S = 170  # for all children of one invocation together
TAIL_BEYOND = 10


def tail_percentile(sorted_values, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    That is the (beyond + 1)-th largest sample; its percentile is the share
    of samples at or below it.  Returns (value, percentile); with too few
    samples the maximum is returned at percentile 100.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return sorted_values[-1], 100.0
    return sorted_values[n - beyond - 1], 100.0 * (n - beyond) / n


def end_to_end(child: dict) -> dict:
    """The end-to-end metrics of a child's report, and the tail's percentile.

    Every pass sends the same requests in the same order, so each request
    has one latency per pass, given at the reference speed of
    ``calibrate.py``; its median over the passes is its typical latency,
    which a slow or fast stretch of the host during one pass does not
    move.  The latency metrics and ``ops_per_s`` are taken over these
    typical latencies, one per request of a pass, so the tail's percentile
    is fixed by the size of a pass.
    """
    typical = sorted(statistics.median(one) for one in zip(*child["passes"]))
    tail, pct = tail_percentile(typical)
    return {
        "latency_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "setup_s": (statistics.median(child["setup_s"]), "s"),
        "peak_rss_mb": (child["rss_kb"] / 1024.0, "MB"),
    }, pct


def run_child(workload: str, seed: int, seconds: float, trace: int, deadline: float,
              passes: int | None = None) -> dict:
    """Run worker.py to completion by ``deadline`` and return its report, or raise."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}-{trace}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no report")
    report = json.loads(lines[-1])
    if not report["passes"]:
        raise RuntimeError("worker ran no pass")
    return report


def summary(child: dict, pct: float) -> list[str]:
    n = child["attempted"]
    lines = [f"workload {child['workload']} seed {child['seed']}: "
             f"{n} requests in {child['wall_s']:.2f} s wall, "
             f"{child['busy_s']:.2f} s inside the program, "
             f"{child['scaled_busy_s']:.2f} s at the reference speed",
             f"reference median {child['ref_s'] * 1e3:.3f} ms "
             f"(nominal {NOMINAL_S * 1e3:g} ms)",
             f"failed_ratio {child['failed'] / n if n else 0.0:.6f} "
             f"({child['failed']} of {n})",
             f"{len(child['passes'])} passes of {len(child['passes'][0])} requests; "
             f"latency_tail_ms is p{pct:.3f} of the requests' median latencies"]
    if "repeat_share" in child:
        lines.append(f"repeat_share {child['repeat_share']:.3f} "
                     f"of {child['draws']} weight draws, repeats counted within a pass")
    if "disagreements" in child:
        lines.append(f"closed-form disagreements per pass (documented, not failures): "
                     f"{child['disagreements']}")
    if "discrepancies" in child:
        lines.append(f"mult table discrepancies per pass (documented, not failures): "
                     f"{child['discrepancies']}")
    if "sampled" in child:
        lines.append(f"results re-checked against the super Lyndon heap count: "
                     f"{child['sampled']}")
    lines += [f"failure: {f}" for f in child["failures"]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="freeroots benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        deadline = time.monotonic() + TIMEOUT_S
        child = run_child(args.workload, args.seed, args.seconds, args.trace, deadline)
        if args.trace:
            plain = run_child(args.workload, args.seed, args.seconds, 0, deadline,
                              passes=len(child["passes"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    e2e, pct = end_to_end(child)
    for line in summary(child, pct):
        print(line)
    if args.trace:
        metrics = dict(child["layer"])
        metrics["trace.overhead_ratio"] = child["scaled_busy_s"] / plain["scaled_busy_s"]
        for name in child["absent"]:
            print(f"absent: {name}")
        print(f"unattributed share: {child['unattributed_s'] / child['busy_s']:.4f}")
        out = {name: {"value": value, "unit": _layer_unit(name)}
               for name, value in metrics.items()}
        failed = child["failed"] + plain["failed"]
        attempted = child["attempted"] + plain["attempted"]
    else:
        for name, (value, unit) in e2e.items():
            print(f"{name} {value:.6g} {unit}")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
        failed, attempted = child["failed"], child["attempted"]
    if not all(math.isfinite(m["value"]) for m in out.values()):
        print("benchmark failed: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_heap")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
