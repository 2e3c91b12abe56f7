"""The benchmark's oracle accepts the CLI's answers to the first ops of each workload.

``perfbench/run.py`` checks every answer of a benchmark run with
``perfbench/oracle.py``, which imports nothing from degseq.  Here the first
ops of seed 1 of each workload run in-process through ``degseq.cli.main``,
and the oracle checks each envelope against the schema and its own answer,
so a change that breaks an answer fails here before a benchmark run.  The
perfbench files are loaded read-only, by path.
"""

import importlib
import itertools
import json
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from degseq.cli import main
from degseq.enumeration import RealizationCounter, default_counter

ROOT = Path(__file__).resolve().parent.parent
VALIDATOR = Draft7Validator(json.loads((ROOT / "schema" / "output.json").read_text()))


@pytest.mark.parametrize("workload, count", [("regions", 48), ("counting", 120), ("sampling", 8)])
def test_the_oracle_accepts_the_first_ops_of_seed_1(monkeypatch, capsys, workload, count):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads, oracle = map(importlib.import_module, ("workloads", "oracle"))
    counter = oracle.Counter()
    for op in itertools.islice(workloads.ops(workload, 1), count):
        rc = main(op["argv"])
        out = capsys.readouterr().out
        assert oracle.check(op, rc, out, VALIDATOR, counter) is None, op["argv"]


# (_query calls, cold ones, nodes expanded, memo entries) after the first ops
# of counting seed 1, from a fresh memo: the counter's work, exact and the
# same on every Python version.  A change that moves a figure re-pins it and
# records old and new in CHANGES.md.
COUNTER_LEDGER = {120: (441, 105, 4924, 4918), 1700: (6347, 1058, 14012, 14006)}


def test_the_counter_ledger_of_counting_seed_1(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    counter = default_counter()
    monkeypatch.setattr(counter, "_memo", {})
    calls = cold = nodes = 0
    query = RealizationCounter._query

    def spy(self, key):
        nonlocal calls, cold, nodes
        result = query(self, key)
        calls, cold, nodes = calls + 1, cold + (not result[2]), nodes + result[1]
        return result

    monkeypatch.setattr(RealizationCounter, "_query", spy)
    ledger = {}
    ops = itertools.islice(workloads.ops("counting", 1), max(COUNTER_LEDGER))
    for done, op in enumerate(ops, 1):
        main(op["argv"])
        capsys.readouterr()
        if done in COUNTER_LEDGER:
            ledger[done] = (calls, cold, nodes, len(counter._memo))
    assert ledger == COUNTER_LEDGER, f"\npinned {COUNTER_LEDGER}\nran    {ledger}"
