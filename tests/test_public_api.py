"""The package's public contract is what its commands and its documented
library API use.

Every public function, method and property defined in ``src/degseq`` must be
called when the argvs of ``GOLDEN_STDOUT``, plus one argv per branch they
miss, run through ``cli.main`` under ``sys.setprofile``, each with and
without --json; or it must be named in ``LIBRARY_ONLY`` with the reason it
stays.  A helper that nothing reaches fails here, so it goes or gets a path.
The names that ``degseq/__init__.py`` exports are pinned in ``EXPORTS``, and
each is named in the README's module map: a change of the contract is an
edit of that set.
"""

import ast
import contextlib
import inspect
import io
import re
import sys
import time
from functools import cached_property
from pathlib import Path

import degseq
from degseq import cli, core, enumeration, errors, graphicality, mcmc, splitgraph
from degseq.graphicality import PREDICATE_NAMES
from test_cli import GOLDEN_STDOUT

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(degseq.__file__).parent
MODULES = (core, errors, graphicality, enumeration, mcmc, splitgraph, cli)

# The branches the golden argvs miss, each with its exit code.
BRANCHES = {
    "check --tv 4,4,3,1,1,1,1,1": 0,
    "region --n 8 --c1 4 --c2 1": 0,
    **{f"region --n 8 --c1 4 --c2 2 --sigma 20 --predicate {name}"
       + (" --epsilon 1/2" if name == "phi_eps" else ""): 0 for name in PREDICATE_NAMES},
    "sweep --n-min 3 --n-max 3 --with-sigma": 0,
    "tyshkevich 2,1,1 1,1 --verify": 0,
    "region --n 3 --c1 4 --c2 1": 1,  # InvalidRegion
    "region --n 4 --c1 2 --c2 1 --sigma 20": 1,  # InvalidRegion, naming the region
    "nonstab-witness --n 6 --n-prime 8 --c1 4 --c2 1": 1,  # ConstructionError
    "mcmc 2,2,2 --steps 100000000000 --seed 1": 3,  # TooLarge
    "check": 2,  # a usage error, answered by the argparse parser
}
ARGVS = {**dict.fromkeys((argv for argv, _, _ in GOLDEN_STDOUT), 0), **BRANCHES}

# Public names that no command calls, each with the reason it stays.
LIBRARY_ONLY = {
    "core.Record.__init_subclass__": "runs at import, once per record class",
    "core.Record.__eq__": "README API: records of one class compare their fields",
    "core.Record.__repr__": "README API: a record prints as Name(field=value, ...)",
    "core.DegreeSequence.__getitem__": "README API: a degree sequence is a sequence",
    "core.DegreeSequence.__iter__": "README API: a degree sequence is a sequence",
    "core.DegreeSequence.__lt__": "README API: degree sequences order lexicographically",
    "core.iter_region": "ROADMAP item 4 (region P-stability scan) gives it a command",
    "core.membership": "ROADMAP item 4 (region P-stability scan) gives it a command",
    "core.VerySimpleRegion.sigma_values": "ROADMAP item 4, through iter_region",
    "graphicality.region_satisfies_stability_bound": "ROADMAP item 17 (region --why)",
    "graphicality.leg": "README API; the CLI prints its text from the same blocks, which"
                        " test_graphicality checks against str(leg(region))",
    "graphicality.sweep": "README API; test_graphicality checks it against the members",
    "graphicality.iter_sweep": "README API; test_graphicality checks it against sweep",
    "mcmc.make_rng": "README API; test_mcmc checks it against hashlib",
    "enumeration.enumerate_realizations": "perfbench/tracing.py looks it up (ROADMAP item 1)",
    "enumeration.p_measure": "perfbench/tracing.py looks it up (ROADMAP item 1)",
}

# The names degseq/__init__.py binds.
EXPORTS = {
    "ChainConfig", "ConstructionError", "CountResult", "DegreeSequence", "DegseqError",
    "EGReport", "InvalidInput", "InvalidRegion", "LabeledGraph", "MissingSigma",
    "MultiplicativityReport", "NegativeDegree", "NonstabilityWitness", "NotGraphic",
    "NotSplit", "PerturbationFamilyCount", "PerturbationKind", "RealizationCounter",
    "Region", "RegionPredicate", "SampleResult", "SimpleRegion", "SplitGraph",
    "SplitVerdict", "SplitWitness", "TooLarge", "VerySimpleRegion",
    "bumped_staircase_sequence", "count_realizations",
    "count_staircase_family", "default_counter", "edges_to_text", "enumerate_realizations",
    "family_count", "havel_hakimi_graph", "hs_index", "is_graphic", "is_graphic_tv",
    "is_split_sequence", "iter_region", "jms_star_sigma_margin", "leg", "make_rng",
    "membership", "nonstability_witness", "p_measure", "parse_region",
    "region_fully_graphic", "region_satisfies_stability_bound", "require_graphic", "sample",
    "satisfies_stability_bound", "split_witness", "staircase_sequence", "sweep",
    "switch_connected", "tv_distance_to_uniform", "tyshkevich_compose",
    "verify_family_bounds", "verify_multiplicativity", "very_simple_region_fully_graphic",
}


def _unwrap(member):
    """The function a public member runs, or None for data."""
    if isinstance(member, classmethod):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, cached_property):
        return member.func
    return member if callable(member) else None


def public_members() -> dict:
    """"module.qualname" -> code object, for each public function, method and
    property defined in the package under its own name."""
    found = {}
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                if attr and attr.startswith("_") and not attr.endswith("__"):
                    continue
                function = _unwrap(member)
                code = getattr(inspect.unwrap(function), "__code__", None) if function else None
                if code and Path(code.co_filename).parent == PACKAGE and code.co_name == (
                        attr or name):
                    found[f"{short}.{name}" + (f".{attr}" if attr else "")] = code
    return found


def reached_by_commands(members) -> set:
    """The names in ``members`` that ``ARGVS`` reach, with and without --json."""
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    # A cache's hit runs no Python code: empty the package's caches (the CLI's
    # parser, the shared counter), so that each cached function runs again.
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sink = io.StringIO()
    profile = sys.getprofile()
    for argv, code in ARGVS.items():
        for mode in ([], ["--json"]):
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                sys.setprofile(hook)
                try:
                    exit_code = cli.main(mode + argv.split())
                except SystemExit as exc:
                    exit_code = exc.code
                finally:
                    sys.setprofile(profile)
            assert exit_code == code, (mode, argv, sink.getvalue())
            sink.seek(0)
            sink.truncate()
    return {name for name, code in members.items() if code in called}


def test_every_public_function_is_reached_or_named():
    members = public_members()
    start = time.perf_counter()
    reached = reached_by_commands(members)
    assert time.perf_counter() - start < 1
    unreached = set(members) - reached
    assert unreached - set(LIBRARY_ONLY) == set(), "reached by no command and not named"
    assert set(LIBRARY_ONLY) - unreached == set(), "named, but gone or reached by a command"


def test_exports_are_pinned_and_in_the_module_map():
    tree = ast.parse(Path(degseq.__file__).read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    assert {name for name in bound if not name.startswith("_")} == EXPORTS
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in sorted(EXPORTS) if not re.search(rf"[`.]{name}\b", section)] == []
