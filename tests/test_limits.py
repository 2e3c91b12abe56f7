"""The one way a refusal is stated: every limit is an entry of
``errors.LIMITS``, and every ``TooLarge`` carries (limit, allowed, requested)
and builds its message from them and the table's text."""

import ast
import time
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
    graphicality,
    leg,
    mcmc,
    region_fully_graphic,
    sample,
    splitgraph,
    sweep,
    very_simple_region_fully_graphic,
)
from degseq.cli import main
from degseq.enumeration import realization_edge_lists
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
        lambda: realization_edge_lists(DegreeSequence([1] * 18)), 16, 18,
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
        # the grid of n = 2..24 is the first past the limit
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


def test_module_constants_are_the_table_values():
    assert enumeration.ENUMERATE_MAX_N == LIMITS["ENUMERATE_MAX_N"][0]
    assert cli.ENUMERATE_MAX_GRAPHS == LIMITS["ENUMERATE_MAX_GRAPHS"][0]
    assert mcmc.MCMC_MAX_WORK == LIMITS["MCMC_MAX_WORK"][0]
    assert graphicality.SWEEP_MAX_ROWS == LIMITS["SWEEP_MAX_ROWS"][0]
    for module in (graphicality, enumeration, splitgraph):
        assert module.WITNESS_MAX_SIZE == LIMITS["WITNESS_MAX_SIZE"][0]
    assert RealizationCounter().step_budget == LIMITS["DEGSEQ_STEP_BUDGET"][0]


def test_the_check_reads_the_module_constant(monkeypatch):
    # ``allowed`` is the value at the check, so a patched constant shows in it.
    monkeypatch.setattr(graphicality, "SWEEP_MAX_ROWS", 10)
    with pytest.raises(TooLarge) as exc:
        sweep(1, 4)  # 1 + 3 + 6 rows for n <= 3, then 10 for n = 4
    assert (exc.value.allowed, exc.value.requested) == (10, 20)


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
            assert len(call.args) == 3 and not call.keywords, where
            first, *values = call.args
            if isinstance(first, ast.Name):  # check_limit's own raise passes its arguments on
                assert path.name == "errors.py" and first.id == "limit", where
            else:
                assert isinstance(first, ast.Constant) and first.value in LIMITS, where
                named.add(first.value)
            for node in (node for value in values for node in ast.walk(value)):
                assert not isinstance(node, ast.JoinedStr), where  # counts, not text
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, str)), where
        # a module-level constant of a limit's name is bound from the table
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in LIMITS:
                name = node.targets[0].id
                assert ast.unparse(node.value) == f"LIMITS['{name}'][0]", f"{path.name}:{name}"
    assert named == set(LIMITS)  # and every limit is checked somewhere
    assert not hasattr(enumeration, "_check_witness_size")


def test_readme_limits_table_is_the_table():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split("|") for line in section.splitlines()
            if line.startswith("| `")]
    table = {cells[0].strip().strip("`"): tuple(cell.strip() for cell in cells[1:])
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
