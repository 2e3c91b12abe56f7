"""Steadiness check: run every workload on seeds 1..10 and report spreads.

    python3 perfbench/steady.py

For each workload in ``BENCHMARK.json`` and each end-to-end metric it prints
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread (Q3 - Q1) / median next to the metric's bound.  A
spread above the bound is flagged and makes the exit code 1, except for
``setup_s``, whose bound only limits the change of its median.  Runs go one
at a time, so they do not compete for the CPUs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    flagged = 0
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = 0
        for seed in SEEDS:
            result = run_once(bench, workload, seed)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(SEEDS)} runs, {failed} failed ops")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  <- above the bound"
                flagged += 1
            print(f"  {name:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{bounds[name]:6.2f}{flag}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
