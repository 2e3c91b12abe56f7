"""Smoke checks of the command line, each run as ``python -m degseq.cli`` in a
fresh interpreter, with the 20 s timeout of a smoke run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degseq import __version__, sweep

SRC = Path(__file__).resolve().parent.parent / "src"


def degseq(*argv):
    """Run ``python -m degseq.cli *argv`` on this checkout's source."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "degseq.cli", *argv], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("flag", [[], ["--with-sigma"]])
def test_sweep_json_is_json_dumps_of_the_library_rows(flag):
    # Both grid shapes are byte-equal to json.dumps of the library's rows.
    done = degseq("--json", "sweep", "--n-min", "2", "--n-max", "7", *flag)
    with_sigma = flag == ["--with-sigma"]
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == json.dumps({
        "command": "sweep", "inputs": {"n_max": 7, "n_min": 2, "with_sigma": with_sigma},
        "result": {"rows": sweep(2, 7, with_sigma=with_sigma)}, "version": __version__,
    }, sort_keys=True) + "\n"


def test_sweep_text_prints_one_line_per_region():
    done = degseq("sweep", "--n-min", "2", "--n-max", "8")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("\n") == 119
