"""The degseq benchmark: seeded closed-loop workloads through the CLI.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it exercises ``src/degseq`` there.
Workloads (see ``workloads.py`` and ``README.md``): ``regions``,
``counting`` and ``sampling``.

With ``--trace 0`` it runs the same ops in two fresh worker processes,
samples set-up (``import degseq.cli`` in fresh interpreters) between them,
checks every answer against ``oracle.py`` and prints the end-to-end
metrics.  Every time is scaled to a fixed machine speed by the reference
task in ``calibrate.py``, timed next to it; the unscaled figures are
printed too.  The number of ops depends on ``--seconds`` alone, never on
how fast the program runs, so every commit is timed on the same work.  With
``--trace 1`` it runs the workload's first ``TRACE_OPS`` ops plain and
traced, twice each, and prints the per-layer metrics from the traced runs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers for people, with the environment they were measured in.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "output.json"

ROUNDS = 2  # fresh workers per run, each running the same ops
SETUP_PER_ROUND = 4  # set-up samples taken before each round and after the last
SETUP_REF_PASSES = 9  # reference passes that scale each set-up sample
MIN_OPS = 100  # p90 then has at least ten samples beyond it
# Ops per second of ``--seconds``, from the first measured commit and fixed
# there: a run takes about ``--seconds`` of op time at that commit.
OPS_PER_SECOND = {"regions": 16, "counting": 170, "sampling": 12}
# Ops in a traced run: six to ten seconds of untraced work at the first
# measured commit.  Fixed, so that the per-layer counts repeat exactly.
TRACE_OPS = {"regions": 128, "counting": 1000, "sampling": 100}
# Seconds of worker wall time per run, shared out among its workers, so that
# a run ends within 180 seconds with set-up samples and checks included
# even if the program becomes much slower.
WORKER_BUDGET = 130
CHILD_TIMEOUT = 60


def clean_env() -> dict:
    """The caller's environment without the library's limit overrides.

    Children also run with ``-I``, which ignores every PYTHON* variable and
    the user's site directory.  glibc's malloc gets a fixed mmap threshold:
    by default it raises the threshold each time a large block is freed, so
    how much freed memory stays resident, and with it ``peak_rss_mb``,
    depended on the order of the ops' large outputs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEGSEQ_")}
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=30)
        sha = probe.stdout.strip() or sha
    return {
        "machine": f"{platform.system()} {platform.machine()} {platform.processor()}".strip(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git": sha,
    }


def measure_setup(env: dict, repeats: int) -> list[tuple[float, float]]:
    """Seconds of ``import degseq.cli``, each in a fresh interpreter.

    Each sample is (seconds, scale): the interpreter then times
    SETUP_REF_PASSES passes of the reference task, and the scale is REF_MS
    over their median.
    """
    code = ("import statistics, sys, time; sys.path[:0] = sys.argv[1:]; "
            "t = time.perf_counter(); import degseq.cli; "
            "t = time.perf_counter() - t; import calibrate; "
            f"r = statistics.median(calibrate.reference_ns() for _ in range({SETUP_REF_PASSES})); "
            "print(t, calibrate.REF_MS * 1e6 / r)")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC), str(HERE)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if done.returncode:
            raise RuntimeError(f"import degseq.cli failed:\n{done.stderr}")
        seconds, scale = done.stdout.split()
        samples.append((float(seconds), float(scale)))
    return samples


def make_ops(args, count: int) -> list[dict]:
    return list(itertools.islice(workloads.ops(args.workload, args.seed), count))


def run_worker(env: dict, work: Path, ops: list, trace: bool, wall_limit: float) -> dict:
    """Run ``ops`` in one fresh worker; return its summary, op records and spans."""
    out = Path(tempfile.mkdtemp(dir=work))
    job = {"src": str(SRC), "ops": ops, "wall_limit": wall_limit, "trace": trace,
           "out": str(out)}
    (out / "job.json").write_text(json.dumps(job))
    done = subprocess.run([sys.executable, "-I", str(HERE / "worker.py"), str(out / "job.json")],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode:
        raise RuntimeError(f"worker failed:\n{done.stderr[-2000:]}")
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "ops.jsonl") as lines:
        summary["records"] = [json.loads(line) for line in lines]
    spans = out / "spans.json"
    summary["spans"] = json.loads(spans.read_text()) if spans.exists() else []
    shutil.rmtree(out)
    return summary


def wall_limits(runs: int):
    """Wall-time limits for ``runs`` workers in a row, sharing WORKER_BUDGET."""
    deadline = time.monotonic() + WORKER_BUDGET
    for left in range(runs, 0, -1):
        yield min(CHILD_TIMEOUT - 15, (deadline - time.monotonic()) / left)


def check_rounds(rounds, validator) -> list[str]:
    """One line per failed op; empty when every answer is right.

    The oracle checks the first round; every later round must print the
    same thing for the same op.
    """
    failures = []
    counter = oracle.Counter()
    for i, rec in enumerate(rounds[0]):
        why = oracle.check(rec["op"], rec["rc"], rec["out"], validator, counter)
        if not why and any((r[i]["rc"], r[i]["out"]) != (rec["rc"], rec["out"])
                           for r in rounds[1:]):
            why = "output differs between rounds"
        if why:
            failures.append(f"op {i} {' '.join(rec['op']['argv'][1:4])}: {why} {rec['err']}")
    return failures


def op_latencies_ms(rounds) -> tuple[list[float], list[float]]:
    """Each op's mean latency over the rounds, in ms: scaled, and unscaled.

    An op's scale is REF_MS over the median of the reference passes timed
    around it in the same worker (``calibrate.scales``).  Once scaled, the
    mean of the rounds varied less from run to run than their minimum.
    """
    scaled, raw = [], []
    for records in rounds:
        factors = calibrate.scales([r["ref"] for r in records])
        raw.append([(r["end"] - r["start"]) / 1e6 for r in records])
        scaled.append([ms * f for ms, f in zip(raw[-1], factors)])
    return ([statistics.fmean(op) for op in zip(*scaled)],
            [statistics.fmean(op) for op in zip(*raw)])


def p90(values) -> float:
    """The 90th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(args, env, work, validator):
    """Run ROUNDS fresh workers on the same ops, interleaved with set-up samples.

    Each op's latency is its mean over the rounds and set-up the median of
    its samples, all scaled to the reference speed.
    """
    ops = make_ops(args, max(MIN_OPS, round(OPS_PER_SECOND[args.workload] * args.seconds
                                            / ROUNDS)))
    measure_setup(env, 1)  # may write bytecode caches; not counted
    setup: list[tuple[float, float]] = []
    rounds: list[dict] = []
    for wall_limit in wall_limits(ROUNDS):
        setup += measure_setup(env, SETUP_PER_ROUND)
        rounds.append(run_worker(env, work, ops, False, wall_limit))
    setup += measure_setup(env, SETUP_PER_ROUND)
    # A round that hit its wall limit ran fewer ops: keep the common prefix.
    n = min(len(r["records"]) for r in rounds)
    records = [r["records"][:n] for r in rounds]
    latencies_ms, raw_ms = op_latencies_ms(records)
    failures = check_rounds(records, validator)
    metrics = {
        "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (p90(latencies_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_growth_bytes"] for r in rounds) / 2**20, "MB"),
        "setup_s": (statistics.median(s * f for s, f in setup), "s"),
    }
    beyond = sum(1 for x in latencies_ms if x > metrics["latency_p90_ms"][0])
    notes = [f"{n} of {len(ops)} ops x {ROUNDS} rounds; {beyond} beyond p90",
             f"error_rate {len(failures) / len(latencies_ms):.4f} ratio (failed / attempted)",
             f"unscaled: ops_per_s {len(raw_ms) / (sum(raw_ms) / 1e3):.4f} 1/s, "
             f"latency_p50_ms {statistics.median(raw_ms):.4f} ms, "
             f"latency_p90_ms {p90(raw_ms):.4f} ms, "
             f"setup_s {statistics.median(s for s, _ in setup):.6f} s; "
             f"median scale {statistics.median(f for _, f in setup):.4f} at set-up"]
    return records[0], failures, metrics, notes


def per_layer(args, env, work, validator):
    """The first TRACE_OPS ops, plain and traced, twice each in fresh workers.

    Runs alternate plain, traced, plain, traced; each op's latency is its
    scaled mean on either side, as in ``end_to_end``.  Per-layer figures
    come from the faster traced run; they are not scaled.
    """
    import tracing

    ops = make_ops(args, TRACE_OPS[args.workload])
    runs = [run_worker(env, work, ops, trace, wall_limit)
            for trace, wall_limit in zip((False, True, False, True), wall_limits(4))]
    # A worker that hit its wall limit ran fewer ops: keep the common prefix.
    n = min(len(r["records"]) for r in runs)
    for r in runs:
        r["records"] = r["records"][:n]
    failures = check_rounds([r["records"] for r in runs], validator)

    def busy_ms(side):
        return sum(op_latencies_ms([r["records"] for r in side])[0])

    plain, traced = runs[0::2], runs[1::2]
    best = min(traced, key=lambda r: r["busy_ns"])
    ops_ns = [(r["start"], r["end"], len(r["out"].encode())) for r in best["records"]]
    values = tracing.summarize([span for span in best["spans"] if span[3] < n], ops_ns)
    values["trace.overhead"] = busy_ms(plain) / busy_ms(traced)
    metrics = {name: (value, tracing.UNITS[name]) for name, value in values.items()}
    notes = [f"{n} ops, run plain and traced twice each; {len(best['spans'])} spans"]
    return best["records"], failures, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "degseq" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: run from a degseq checkout; missing {SRC / 'degseq'} or {SCHEMA}",
              file=sys.stderr)
        return 2
    try:
        from jsonschema import Draft7Validator
    except ImportError:
        print("error: the envelope check needs the jsonschema package", file=sys.stderr)
        return 2
    validator = Draft7Validator(json.loads(SCHEMA.read_text()))

    env = clean_env()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        measure = per_layer if args.trace else end_to_end
        records, failures, metrics, notes = measure(args, env, work, validator)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"degseq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for note in notes:
        print(note)
    for failure in failures[:20]:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
