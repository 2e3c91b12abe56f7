"""The benchmark's oracle accepts the CLI's answers to the first ops of each workload.

``perfbench/run.py`` checks every answer of a benchmark run with
``perfbench/oracle.py``, which imports nothing from degseq.  Here the first
ops of seed 1 of each workload run in-process through ``degseq.cli.main``,
and the oracle checks each envelope against the schema and its own answer,
so a change that breaks an answer fails here before a benchmark run.  The
perfbench files are loaded read-only, by path.
"""

import hashlib
import importlib
import itertools
import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from degseq import graphicality
from degseq.cli import main
from degseq.enumeration import RealizationCounter, default_counter

ROOT = Path(__file__).resolve().parent.parent
VALIDATOR = Draft7Validator(json.loads((ROOT / "schema" / "output.json").read_text()))


# Per workload and command, after the first ops of seed 1 from a fresh memo:
# (ops, stdout bytes, Erdos-Gallai scans, indices those scans decided (their
# ``checked_ks``; those past the crossover are implied), chain moves
# accepted, region decisions: calls to ``_leg_graphic`` and ``_min_slack``,
# the sweep's included).  The work is exact and the same on every Python
# version.  A change that moves a figure re-pins it and records old and new
# in CHANGES.md.
WORK_LEDGER = {
    "regions": {
        "check": (12, 48710, 12, 2979, 0, 0),
        "region": (28, 30396, 0, 0, 0, 28),
        "sweep": (8, 462827, 0, 0, 0, 1355),
    },
    "counting": {
        "count": (78, 12816, 0, 0, 0, 0),
        "enumerate": (6, 76434, 6, 58, 0, 0),
        "family-bounds": (6, 2893, 6, 54, 0, 0),
        "nonstab-witness": (6, 1824, 0, 0, 0, 6),
        "pmeasure": (6, 1001, 6, 48, 0, 0),
        "split-witness": (6, 2877, 0, 0, 0, 6),
        "staircase-family": (6, 1199, 0, 0, 0, 0),
        "tyshkevich": (6, 2251, 18, 104, 0, 0),
    },
    "sampling": {"mcmc": (8, 1244780, 12, 164, 7052, 0)},
}


@pytest.mark.parametrize("workload, count", [("regions", 48), ("counting", 120), ("sampling", 8)])
def test_the_oracle_accepts_the_first_ops_of_seed_1(monkeypatch, capsys, workload, count):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads, oracle = map(importlib.import_module, ("workloads", "oracle"))
    monkeypatch.setattr(default_counter(), "_memo", {})
    scans = []  # the indices each scan of the current op decided
    scan = graphicality._eg_scan

    def spy(degs, ks):
        report = scan(degs, ks)
        scans.append(len(report.checked_ks))
        return report

    # is_graphic, is_graphic_tv and require_graphic all scan through it
    monkeypatch.setattr(graphicality, "_eg_scan", spy)
    decisions = []
    for name in ("_leg_graphic", "_min_slack"):
        decide = getattr(graphicality, name)
        monkeypatch.setattr(graphicality, name, lambda *region, decide=decide:
                            decisions.append(region) or decide(*region))
    counter = oracle.Counter()
    ledger = {}
    for op in itertools.islice(workloads.ops(workload, 1), count):
        rc = main(op["argv"])
        out = capsys.readouterr().out
        assert oracle.check(op, rc, out, VALIDATOR, counter) is None, op["argv"]
        command = op["argv"][1]
        accepted = json.loads(out)["result"]["metadata"]["accepted"] if command == "mcmc" else 0
        row = (1, len(out.encode()), len(scans), sum(scans), accepted, len(decisions))
        ledger[command] = tuple(map(sum, zip(ledger.get(command, (0,) * 6), row)))
        scans.clear()
        decisions.clear()
    pinned = WORK_LEDGER[workload]
    assert ledger == pinned, "\n" + "\n".join(
        f"{command}: pinned {pinned.get(command)}, ran {ledger.get(command)}"
        for command in sorted(pinned.keys() | ledger.keys()))


# (_query calls, cold ones, nodes expanded, memo entries, budget checks, the
# sum over cold queries of the highest step total each compared) after the
# first ops of counting seed 1, from a fresh memo: the counter's work, exact
# and the same on every Python version.  A change that moves a figure re-pins
# it and records old and new in CHANGES.md.
COUNTER_LEDGER = {120: (441, 105, 4924, 4918, 56371, 131092),
                  1700: (6347, 1058, 14012, 14006, 211029, 567805)}


class StepRecorder:
    """A stand-in for a counter's step budget that never refuses: ``steps >
    budget`` asks ``budget < steps``, so each check the counter makes lands
    here, and the cold query's highest total is kept in ``peaks[-1]``."""

    def __init__(self):
        self.checks, self.peaks = 0, []

    def __lt__(self, steps):
        self.checks += 1
        self.peaks[-1] = max(self.peaks[-1], steps)
        return False


def test_the_counter_ledger_of_counting_seed_1(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    counter = default_counter()
    monkeypatch.setattr(counter, "_memo", {})
    calls = cold = nodes = 0
    query = RealizationCounter._query
    recorder = StepRecorder()

    def spy(self, key):
        nonlocal calls, cold, nodes
        result = query(self, key)
        calls, cold, nodes = calls + 1, cold + (not result[2]), nodes + result[1]
        return result

    def budget(self):  # read once by each cold query
        recorder.peaks.append(0)
        return recorder

    monkeypatch.setattr(RealizationCounter, "_query", spy)
    monkeypatch.setattr(RealizationCounter, "step_budget", property(budget))
    ledger = {}
    ops = itertools.islice(workloads.ops("counting", 1), max(COUNTER_LEDGER))
    for done, op in enumerate(ops, 1):
        main(op["argv"])
        capsys.readouterr()
        if done in COUNTER_LEDGER:
            ledger[done] = (calls, cold, nodes, len(counter._memo),
                            recorder.checks, sum(recorder.peaks))
    assert len(recorder.peaks) == cold
    assert ledger == COUNTER_LEDGER, f"\npinned {COUNTER_LEDGER}\nran    {ledger}"


# sha256 of the --json stdout, concatenated, of the 89 enumerate ops among the
# first 1,700 ops of counting seed 1: every graph they list, in the search's
# order.  Pinned before the search yielded masks, so the masks and their text
# must give the edge lists' output byte for byte.
ENUMERATE_STDOUT_SHA256 = "5da133a4bceb85a01c424d299384bf9b42fd8360c5c252e25b3253a7ceda7933"


def test_the_enumerate_ops_of_counting_seed_1_print_the_pinned_bytes(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = itertools.islice(workloads.ops("counting", 1), 1700)
    argvs = [op["argv"] for op in ops if op["argv"][1] == "enumerate"]
    assert len(argvs) == 89
    digest = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0, argv
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ENUMERATE_STDOUT_SHA256
