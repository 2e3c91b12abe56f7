"""One benchmark client: runs a list of ops through ``degseq.cli.main``.

    python3 -I perfbench/worker.py JOB.json

``run.py`` starts this in a fresh interpreter for every round, so the
counter memo starts cold.  It is a closed loop with one client: the next op
is sent only when the last has returned.  Each op's stdout goes to memory,
and its latency covers only the ``main`` call.  Right before each op the
worker times one pass of the reference task in ``calibrate.py``, by which
``run.py`` scales the op's time to the reference speed.  The loop runs
every op of the job, or stops early once its wall-time limit has passed.
The last op's record is written between the timed calls.

The job file names the checkout's ``src`` directory, the ops, the wall-time
limit, whether to trace, and the output directory.  The worker writes
``ops.jsonl`` (one record per op), ``summary.json`` and, when tracing,
``spans.json``.  Answers are checked later, by ``run.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """The process's resident memory now (Linux)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import degseq.cli

    import calibrate

    # Resident memory before the first op: the interpreter, numpy, the
    # library and the job.  The ops' growth (the counter memo, histograms,
    # arenas the allocator keeps) is measured above it, after every op.
    base = high = rss_bytes()
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    out_dir = Path(job["out"])
    wall_limit = time.monotonic() + job["wall_limit"]
    busy_ns = 0
    with open(out_dir / "ops.jsonl", "w") as records:
        for count, op in enumerate(job["ops"]):
            if time.monotonic() > wall_limit:
                break
            ref_ns = calibrate.reference_ns()
            stdout, stderr = io.StringIO(), io.StringIO()
            if tracer:
                tracer.op = count
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter_ns()
                try:
                    rc = degseq.cli.main(op["argv"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an op that raises is a failed op
                    rc = f"raised {type(exc).__name__}: {exc}"
                end = time.perf_counter_ns()
            busy_ns += end - start
            records.write(json.dumps({
                "op": op, "rc": rc, "start": start, "end": end, "ref": ref_ns,
                "out": stdout.getvalue(), "err": stderr.getvalue()[-300:],
            }) + "\n")
            high = max(high, rss_bytes())
    (out_dir / "summary.json").write_text(json.dumps(
        {"busy_ns": busy_ns, "rss_growth_bytes": high - base}))
    if tracer:
        (out_dir / "spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
