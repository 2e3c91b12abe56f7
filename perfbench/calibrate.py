"""Machine-speed calibration: scale op times to a fixed reference speed.

The machine this benchmark runs on is shared: the same pure-Python code
runs up to 1.8 times slower in spells that last from seconds to tens of
minutes, and process CPU time slows just as much as wall time, so neither
hides it.  A fixed reference task, timed right before every op, slows
nearly in step with the ops (``TRAJECTORY.md`` records one spell in which
it did not).  Each op's time is therefore scaled by ``REF_MS`` over
the median reference time around it, so the benchmark reports times on a
machine whose reference task takes exactly ``REF_MS`` ms.

The reference task is frozen benchmark code: Erdos-Gallai, a cold
realization count and a small sweep from ``oracle.py`` on inputs made from
a fixed seed, not from ``--seed``, so it does the same work on every run and
every commit.  It imports nothing from degseq; a faster or slower library
moves the scaled times and leaves the reference alone.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import oracle
import workloads

# The reference task's time on the machine the scaled times refer to: about
# its median on the 2-CPU Xeon this benchmark was tuned on.
REF_MS = 0.7
# Reference samples on each side of an op that set its scale.
HALF_WINDOW = 10

_rng = random.Random("perfbench reference")
_EG = workloads.random_graph_degrees(_rng, 200, 0.3)
_COUNT = workloads.random_graph_degrees(_rng, 8, 0.4)


def _task() -> None:
    oracle.eg_holds(_EG)
    oracle.Counter().count(_COUNT)
    oracle.sweep_rows(5, False)


def reference_ns() -> int:
    """Nanoseconds of one pass of the reference task, after a warm-up pass.

    The warm-up pass refills the caches the program under test used, so
    the timed pass sees little of the program's footprint.  The collector
    is off during both: its cost grows with the objects the program keeps
    alive, and the reference must not see them.
    """
    enabled = gc.isenabled()
    gc.disable()
    _task()
    start = time.perf_counter_ns()
    _task()
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def scales(ref_ns: list[int]) -> list[float]:
    """For each sample, REF_MS over the median reference time around it."""
    out = []
    for i in range(len(ref_ns)):
        window = ref_ns[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        out.append(REF_MS * 1e6 / statistics.median(window))
    return out
