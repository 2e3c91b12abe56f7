"""The one way a refusal is stated: every limit is an entry of
``errors.LIMITS``, and every ``TooLarge`` carries (limit, allowed, requested)
and builds its message from them and the table's text."""

import ast
import json
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import pytest

from degseq import (
    ChainConfig,
    DegreeSequence,
    RealizationCounter,
    SimpleRegion,
    TooLarge,
    VerySimpleRegion,
    cli,
    enumeration,
    leg,
    mcmc,
    nonstability_witness,
    region_fully_graphic,
    sample,
    split_witness,
    staircase_sequence,
    sweep,
    very_simple_region_fully_graphic,
)
from degseq.cli import main
from degseq.enumeration import _realization_masks
from degseq.errors import LIMITS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "degseq"

# limit: (library call, allowed, requested, message, CLI argv of the same input)
CASES = {
    "DEGSEQ_STEP_BUDGET": (
        lambda: RealizationCounter().count([1000] * 2000), 3_000_000, 3_021_437,
        "DEGSEQ_STEP_BUDGET exceeded: 3021437 > 3000000 steps in one count"
        " (set the variable to change it)",
        ["count", ",".join(["1000"] * 2000)]),
    "ENUMERATE_MAX_N": (
        lambda: _realization_masks(DegreeSequence([1] * 18)), 16, 18,
        "ENUMERATE_MAX_N exceeded: 18 > 16 entries in a sequence to enumerate",
        ["enumerate", ",".join(["1"] * 18)]),
    "ENUMERATE_MAX_GRAPHS": (
        lambda: cli.cmd_enumerate(SimpleNamespace(degrees=DegreeSequence([3] * 16), limit=None)),
        100_000, 50_262_958_713_792_825,
        "ENUMERATE_MAX_GRAPHS exceeded: 50262958713792825 > 100000 realizations to list"
        " (pass a --limit up to it)",
        ["enumerate", ",".join(["3"] * 16)]),
    "MCMC_MAX_WORK": (
        lambda: sample(DegreeSequence([2, 2, 2]), ChainConfig(seed=1, steps=10**11)),
        10**7, 10**11 * (3 + 4) + 3 * 3,
        "MCMC_MAX_WORK exceeded: 700000000009 > 10000000 units of work for one chain,"
        " (burn_in + steps) * (m + 4) + n * n, or a greedy start, n * n",
        ["mcmc", "2,2,2", "--steps", str(10**11), "--seed", "1"]),
    "SWEEP_MAX_ROWS": (
        # n = 2..30 (882,383 rows) is the largest grid admitted; n = 2..31 is the first refused
        lambda: sweep(2, 200, with_sigma=True), 1_000_000, 1_036_639,
        "SWEEP_MAX_ROWS exceeded: 1036639 > 1000000 rows in one sweep (narrow the n range)",
        ["sweep", "--n-min", "2", "--n-max", "200", "--with-sigma"]),
    "WITNESS_MAX_SIZE": (
        lambda: leg(SimpleRegion(10**12, 0, 1, 0)), 200_000, 10**12,
        "WITNESS_MAX_SIZE exceeded: 1000000000000 > 200000 entries plus edges that leg or a"
        " witness builder lays out",
        ["leg", "--n", str(10**12), "--sigma", "0", "--c1", "1", "--c2", "0"]),
}


def test_every_limit_has_a_case():
    assert set(CASES) == set(LIMITS)


@pytest.mark.parametrize("limit", CASES)
def test_limit_from_the_library_and_the_cli(limit, capsys):
    call, allowed, requested, message, argv = CASES[limit]
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        call()
    assert (exc.value.limit, exc.value.allowed, exc.value.requested) == (limit, allowed, requested)
    assert exc.value.args == (limit, allowed, requested)
    assert str(exc.value) == message
    code = main(["--json", *argv])
    assert time.perf_counter() - start < 2
    assert (code, *capsys.readouterr()) == (3, "", f"error: {message}\n")


def _calls(tree, names):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
            yield node


def test_every_refusal_names_a_table_entry_and_builds_no_message():
    named = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for call in _calls(tree, {"TooLarge", "check_limit"}):
            where = f"{path.name}:{call.lineno}"
            # check_limit reads ``allowed`` from the table itself
            assert len(call.args) == (3 if call.func.id == "TooLarge" else 2), where
            assert not call.keywords, where
            first, *values = call.args
            if isinstance(first, ast.Name):  # check_limit's own raise passes its arguments on
                assert path.name == "errors.py" and first.id == "limit", where
            else:
                assert isinstance(first, ast.Constant) and first.value in LIMITS, where
                named.add(first.value)
            for node in (node for value in values for node in ast.walk(value)):
                assert not isinstance(node, ast.JoinedStr), where  # counts, not text
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, str)), where
        # the table is a limit's one home: no other module binds a name of a limit
        if path.name != "errors.py":
            bound = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            bound |= {alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
            assert not bound & set(LIMITS), path.name
    assert named == set(LIMITS)  # and every limit is checked somewhere
    assert not hasattr(enumeration, "_check_witness_size")


def _lower(monkeypatch, limit, value):
    monkeypatch.setitem(LIMITS, limit, (value, *LIMITS[limit][1:]))


# limit: (a lower value, calls that answer at the table's value and are refused at the
# lower one; together they reach each of the limit's checks)
LOWERED = {
    "DEGSEQ_STEP_BUDGET": (50, [lambda: RealizationCounter().count([2] * 6)]),
    "ENUMERATE_MAX_N": (3, [lambda: _realization_masks(DegreeSequence([1] * 4))]),
    "ENUMERATE_MAX_GRAPHS": (2, [
        lambda: cli.cmd_enumerate(SimpleNamespace(degrees=DegreeSequence([1] * 4), limit=None))]),
    "MCMC_MAX_WORK": (15, [
        lambda: mcmc.havel_hakimi_graph(DegreeSequence([1] * 4)),  # 16 for the start
        lambda: sample(DegreeSequence([1, 1]), ChainConfig(seed=0, steps=3))]),  # 19
    "SWEEP_MAX_ROWS": (10, [lambda: sweep(1, 4)]),  # 20 rows
    "WITNESS_MAX_SIZE": (10, [
        lambda: leg(SimpleRegion(11, 0, 1, 0)),
        lambda: cli.cmd_region(SimpleNamespace(  # prints leg from its blocks
            params="n=11,sigma=4,c1=1,c2=0", predicate=None, epsilon=None)),
        lambda: split_witness(VerySimpleRegion(11, 5, 0)),
        lambda: split_witness(VerySimpleRegion(10, 9, 1)).graph,  # 10 entries, 9 edges
        lambda: nonstability_witness(4, 8, 3, 0),  # a base of 12 entries
        lambda: staircase_sequence(6),
        lambda: cli.cmd_tyshkevich(SimpleNamespace(  # 7 entries, 8 edges
            split_degrees=DegreeSequence([2, 1, 1]), other_degrees=DegreeSequence([1] * 4),
            verify=False))]),
}


def _check_sites(limit):
    """(file name, line) of each ``check_limit`` call on ``limit`` in the package."""
    return {(path.name, call.lineno) for path in sorted(SRC.glob("*.py"))
            for call in _calls(ast.parse(path.read_text()), {"check_limit"})
            if getattr(call.args[0], "value", None) == limit}


@pytest.mark.parametrize("limit", LOWERED)
def test_every_check_reads_the_table_when_it_runs(limit, monkeypatch):
    value, calls = LOWERED[limit]
    for call in calls:
        call()
    _lower(monkeypatch, limit, value)
    reached = set()
    for call in calls:
        with pytest.raises(TooLarge) as exc:
            call()
        assert (exc.value.limit, exc.value.allowed) == (limit, value)
        assert exc.value.requested > value
        *_, site, last = traceback.extract_tb(exc.value.__traceback__)
        if last.name == "check_limit":
            reached.add((Path(site.filename).name, site.lineno))
    assert reached == _check_sites(limit)


def test_the_cli_reads_the_table(monkeypatch, capsys):
    chain = ["--json", "mcmc", "1,1,1,1", "--steps", "5", "--seed", "1"]
    listing = ["--json", "enumerate", "1,1,1,1", "--limit", "3"]
    assert main(chain) == 0 and "state_space" in json.loads(capsys.readouterr().out)["result"]
    assert main(listing) == 0 and json.loads(capsys.readouterr().out)["result"]["yielded"] == 3
    # a --limit above ENUMERATE_MAX_GRAPHS leaves the count to decide
    _lower(monkeypatch, "ENUMERATE_MAX_GRAPHS", 2)
    assert main(listing) == 3
    assert capsys.readouterr().err.startswith("error: ENUMERATE_MAX_GRAPHS exceeded: 3 > 2 ")
    # no exact-space report above ENUMERATE_MAX_N
    _lower(monkeypatch, "ENUMERATE_MAX_N", 3)
    assert main(chain) == 0 and "state_space" not in json.loads(capsys.readouterr().out)["result"]


# limit: (a lower value, an input it admits at or near the line, that input's size, and one
# just over the line); the limit bounds the time, so each answers well within a second.
ADMITTED = {
    # 13 entries that need 28,487 steps; the 24 entries over the line need about 3 million
    "DEGSEQ_STEP_BUDGET": (
        30_000, lambda: RealizationCounter().count([8, 8, 8] + [7] * 4 + [6] * 4 + [5, 5]).count,
        190_094_382_726_269, lambda: RealizationCounter().count(
            [14] * 7 + [13, 12, 12] + [11] * 7 + [10, 9, 9] + [8] * 4)),
    # 4^8 has the most realizations of any 8 entries
    "ENUMERATE_MAX_N": (
        8, lambda: _listed([4] * 8, None), 19_355, lambda: _listed([4] * 9, 1)),
    "ENUMERATE_MAX_GRAPHS": (
        1_000, lambda: _listed([8] * 16, 1_000), 1_000, lambda: _listed([8] * 16, 1_001)),
    # a greedy start of n * n = 99,856 with 24,964 edges, then 317 * 317
    "MCMC_MAX_WORK": (
        10**5, lambda: _chain([158] * 316), 24_964, lambda: _chain([158] * 317)),
    "SWEEP_MAX_ROWS": (
        10**4, lambda: len(sweep(1, 11, with_sigma=True)), 6_864,
        lambda: sweep(1, 12, with_sigma=True)),  # 10,374 rows
    # 300 entries plus 19,650 edges, then 301 plus 19,725
    "WITNESS_MAX_SIZE": (
        20_000, lambda: _split_witness(300, 299, 75), 19_950, lambda: _split_witness(301, 300, 75)),
}


def _listed(degrees, limit):
    args = SimpleNamespace(degrees=DegreeSequence(degrees), limit=limit)
    return cli.cmd_enumerate(args)[0]["yielded"]


def _chain(degrees):
    args = SimpleNamespace(degrees=DegreeSequence(degrees), steps=0, seed=1, burn_in=0)
    return len(cli.cmd_mcmc(args)[0]["final"].split(","))


def _split_witness(n, c1, c2):
    result = cli.cmd_split_witness(SimpleNamespace(n=n, c1=c1, c2=c2))[0]
    return n + len(result["edges"].split(","))


def test_every_limit_has_an_admitted_case():
    assert set(ADMITTED) == set(LOWERED) == set(LIMITS)


@pytest.mark.parametrize("limit", ADMITTED)
def test_a_lowered_limit_admits_up_to_its_line_quickly(limit, monkeypatch):
    value, admitted, size, over = ADMITTED[limit]
    _lower(monkeypatch, limit, value)
    start = time.perf_counter()
    assert admitted() == size
    with pytest.raises(TooLarge) as exc:
        over()
    assert time.perf_counter() - start < 1
    assert (exc.value.limit, exc.value.allowed) == (limit, value)


def test_readme_limits_table_is_the_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    table = {cells[0].strip().strip("`"): tuple(cell.strip() for cell in cells[1:5])
             for cells in rows}
    assert table == {name: (f"{value:,}", unit, bounds, "3")
                     for name, (value, unit, bounds) in LIMITS.items()}


class TestLeg:
    def test_at_the_limit_and_over_it(self):
        cap = LIMITS["WITNESS_MAX_SIZE"][0]
        assert leg(SimpleRegion(cap, 0, 1, 0)).n == cap
        with pytest.raises(TooLarge) as exc:
            leg(SimpleRegion(cap + 1, 0, 1, 0))
        assert (exc.value.allowed, exc.value.requested) == (cap, cap + 1)

    def test_region_decisions_stay_unbounded(self):
        n = 10**12
        assert region_fully_graphic(SimpleRegion(n, 0, 1, 0))
        assert very_simple_region_fully_graphic(VerySimpleRegion(n, 1, 0))

    def test_region_with_a_sum_prints_leg_so_it_exits_3(self, capsys):
        start = time.perf_counter()
        assert main(["--json", "region", f"n={10**12},sigma=0,c1=1,c2=0"]) == 3
        assert main(["region", "--n", str(10**12), "--c1", "1", "--c2", "0"]) == 0
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == "fully graphic\n"
        assert err == ("error: WITNESS_MAX_SIZE exceeded: 1000000000000 > 200000 entries plus"
                       " edges that leg or a witness builder lays out\n")


class TestTyshkevich:
    """Both greedy graphs and the composition are bounded before any is built."""

    def test_composition_over_the_witness_size_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "havel_hakimi_graph", lambda seq: pytest.fail("built a graph"))
        split = ",".join(["599"] * 300 + ["300"] * 300)  # split, Hammer-Simeone index 301
        other = ",".join(["300"] * 600)
        start = time.perf_counter()
        code = main(["tyshkevich", split, other])
        assert time.perf_counter() - start < 1
        # 1,200 entries, (269,700 + 180,000) / 2 edges inside the factors, 301 * 600 across
        assert (code, *capsys.readouterr()) == (
            3, "", "error: WITNESS_MAX_SIZE exceeded: 406650 > 200000 entries plus edges that"
                   " leg or a witness builder lays out\n")

    def test_greedy_start_over_the_work_cap_exits_3(self, capsys):
        # 1 + 40,000 + 20,000 + 1 * 40,000 = 100,001 passes the size; n * n does not
        start = time.perf_counter()
        code = main(["tyshkevich", "0", ",".join(["1"] * 40_000)])
        assert time.perf_counter() - start < 1
        assert (code, *capsys.readouterr()) == (
            3, "", "error: MCMC_MAX_WORK exceeded: 1600000000 > 10000000 units of work for one"
                   " chain, (burn_in + steps) * (m + 4) + n * n, or a greedy start, n * n\n")

    def test_non_split_factor_exits_1_without_a_graph(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "havel_hakimi_graph", lambda seq: pytest.fail("built a graph"))
        assert main(["tyshkevich", "1,1,1,1", "1,1"]) == 1
        assert capsys.readouterr().err == "error: degree sequence 1,1,1,1 is not split\n"

    def test_library_greedy_start_is_charged(self):
        assert mcmc.havel_hakimi_graph(DegreeSequence([0] * 3_162)).n == 3_162
        with pytest.raises(TooLarge) as exc:
            mcmc.havel_hakimi_graph(DegreeSequence([1] * 3_163))
        assert exc.value.args == ("MCMC_MAX_WORK", 10**7, 3_163 ** 2)
