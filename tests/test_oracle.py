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
