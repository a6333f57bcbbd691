"""Host-speed reference: a fixed piece of pure-Python work, timed often.

The speed of a shared virtual machine drifts: on the 2-vCPU host this
benchmark was tuned on, the same pure-Python loop ran up to twice as fast
in some stretches of seconds or minutes as in others, so wall-clock
latencies of one commit differ from run to run by more than a change worth
measuring.  The worker therefore times :func:`reference_work` every
``INTERVAL_S`` seconds between requests and scales each latency by
``NOMINAL_S`` over the reference times around it: latencies are reported
in seconds *at the reference speed*, the speed at which the reference
takes ``NOMINAL_S``.  The reference is the benchmark's own code and never
calls the program, so a change in the program moves the scaled latencies
exactly as it moves the raw ones.

The work mixes what the workloads spend their time on: tuple and dict
operations on small ints, ``Fraction`` arithmetic and ``json.dumps``.  The
garbage collector is off while it runs, so the program's live objects
(its caches) do not change the reference's cost, and each sample is
taken after an untimed warm-up run.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

NOMINAL_S = 0.004   # about one reference on the tuning host, in its slower stretches
INTERVAL_S = 0.2    # between reference samples during a pass

_DOC = {"rows": [[i, str(i), [i, 2 * i]] for i in range(150)],
        "names": {str(i): i for i in range(100)}}


def reference_work() -> int:
    d: dict = {}
    acc = 0
    for i in range(2500):
        k = (i % 17, i % 13, i & 7)
        d[k] = d.get(k, 0) + i
        acc += len(k) * (i ^ acc) % 1009
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 3) * Fraction(2, i + 1)
    return acc + len(d) + s.numerator % 7 + len(json.dumps(_DOC, indent=2, sort_keys=True))


def reference(clock=time.perf_counter) -> float:
    """Seconds one run of :func:`reference_work` takes now.

    A first, untimed run brings the work back into the processor's caches
    after the program's request, so what the program leaves there does not
    change the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        t0 = clock()
        reference_work()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def scale(latencies, marks, refs) -> list[float]:
    """Latencies at the reference speed.

    ``marks[i]`` is the number of reference samples taken before request
    i, and ``refs`` holds the samples, with at least one taken after the
    last request; request i is scaled by the mean of the samples just
    before and just after it.
    """
    out = []
    for dt, j in zip(latencies, marks):
        local = (refs[j - 1] + refs[j]) / 2 if j > 0 else refs[0]
        out.append(dt * NOMINAL_S / local)
    return out
