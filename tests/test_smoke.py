"""Smoke checks of the command line, each run as ``python -S -m degseq.cli`` in
a fresh interpreter, with the 20 s timeout of a smoke run.  The CI workflow
only checks that the installed ``degseq`` script runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from degseq import __version__, sweep
from degseq.cli import COMMANDS

SRC = Path(__file__).resolve().parent.parent / "src"


def degseq(*argv):
    """Run ``python -S -m degseq.cli *argv`` on this checkout's source.  The CLI
    needs only the standard library, so no site packages are loaded, which
    shortens each run's start-up."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", "-m", "degseq.cli", *argv], text=True,
                          capture_output=True, timeout=20, env={**os.environ, "PYTHONPATH": path})


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


# One argv per subcommand, each printing one line of JSON.
EVERY_COMMAND = ["check 1,1",
                 "leg --n 8 --sigma 16 --c1 4 --c2 1",
                 "region n=8,sigma=16,c1=4,c2=1",
                 "count 2,1,1,1,1",
                 "enumerate 1,1,1,1",
                 "pmeasure 3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3",
                 "family-bounds 3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3",
                 "staircase-family 5",
                 "split-check 3,3,1,1,1,1",
                 "split-witness --n 66 --c1 54 --c2 23",
                 "tyshkevich 2,1,1 1,1 --verify",
                 "nonstab-witness --n 2000 --n-prime 2002 --c1 1999 --c2 3",
                 "mcmc 2,2,2,2,2,2,2,2,2 --steps 1000 --seed 1",
                 "sweep --n-min 2 --n-max 8"]


def test_every_subcommand_has_a_smoke_argv():
    assert sorted(set(COMMANDS) - {argv.split()[0] for argv in EVERY_COMMAND}) == []


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_every_subcommand_prints_one_json_line(argv):
    done = degseq("--json", *argv.split())
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("\n") == 1 and done.stdout.endswith("\n")
    json.loads(done.stdout)


def test_a_closed_stdout_exits_141_without_a_traceback():
    # The reader takes 100 bytes of a 2 MB sweep and closes the pipe, as
    # `| head -c 100` does; the exit is a shell's code for SIGPIPE.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-S", "-m", "degseq.cli", "--json", "sweep", "--n-min", "1",
            "--n-max", "60"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=20) == 141


def test_human_mode():
    done = degseq("check", "4,4,3,1,1,1,1,1")
    assert (done.returncode, done.stdout) == (0, "graphic\n")


def test_argparse_answers_help_and_usage_errors():
    done = degseq("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: degseq")
    done = degseq("check")
    assert done.returncode == 2 and done.stderr.startswith("usage:")


@pytest.mark.parametrize("given, full", [
    ("nonstab-witness --n 6 --n-p 8 --c1 5 --c2 0",
     "nonstab-witness --n 6 --n-prime 8 --c1 5 --c2 0"),
    ("enumerate 1,1,1,1 --limit=2", "enumerate 1,1,1,1 --limit 2")])
def test_abbreviated_options_and_equals_values_read_as_the_full_form(given, full):
    done, expected = degseq("--json", *given.split()), degseq("--json", *full.split())
    assert (done.returncode, done.stdout) == (expected.returncode, expected.stdout)
    assert expected.returncode == 0 and expected.stdout


@pytest.mark.parametrize("argv, refusal", [
    # over the witness size cap, before anything is built
    ("split-witness --n 1000000 --c1 5 --c2 0",
     "WITNESS_MAX_SIZE exceeded: 1000000 > 200000 entries plus edges that leg or a witness"
     " builder lays out"),
    # over MCMC_MAX_WORK, before the chain starts
    ("mcmc 2,2,2 --steps 100000000000 --seed 1",
     "MCMC_MAX_WORK exceeded: 700000000009 > 10000000 units of work for one chain,"
     " (burn_in + steps) * (m + 4) + n * n, or a greedy start, n * n"),
    # the greedy start of 16,000 ones is charged to the chain's work
    ("mcmc " + ",".join(["1"] * 16_000) + " --steps 1 --seed 1",
     "MCMC_MAX_WORK exceeded: 256008004 > 10000000 units of work for one chain,"
     " (burn_in + steps) * (m + 4) + n * n, or a greedy start, n * n"),
], ids=["split-witness", "mcmc-steps", "mcmc-start-graph"])
def test_over_a_limit_exits_3(argv, refusal):
    done = degseq("--json", *argv.split())
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {refusal}\n")


# Counting has a step budget and no length or depth limit: these answer.
@pytest.mark.parametrize("argv", [
    "count " + ",".join(["4"] * 40),
    "staircase-family 20",
    "staircase-family 40",
    "nonstab-witness --n 2000 --n-prime 2002 --c1 1999 --c2 3 --verify"],
    ids=["count-4^40", "staircase-family-20", "staircase-family-40", "nonstab-witness-verify"])
def test_counts_without_a_length_limit_answer(argv):
    done = degseq("--json", *argv.split())
    assert done.returncode == 0, done.stderr
