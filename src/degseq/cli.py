"""Command-line interface.

Every successful invocation prints either a human-readable summary or, with
--json, a single envelope object:

    {"command": ..., "inputs": ..., "result": ..., "version": ...}

``COMMANDS`` is the one definition of the subcommands and their arguments:
``main`` reads argv from it, or for --help and usage errors from the argparse
parser ``build_parser`` builds from it, and runs the command it names.  Each
``cmd_*`` returns ``(result, human)`` and prints nothing; ``main`` alone
writes output.  ``inputs`` echoes the parsed arguments, each degree sequence
in canonical text; ``region`` echoes the region it decided instead.
A sweep's rows reach ``main`` as iterators over one pass of the grid, of their
JSON text or of their text lines, written a batch or a line at a time, so a
large sweep never holds all its rows, or all their text, in memory.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 over a limit of ``errors.LIMITS``,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .core import (
    DegreeSequence,
    SimpleRegion,
    VerySimpleRegion,
    _EDGE_LABELS,
    edges_to_text,
    parse_region,
)
from .enumeration import (
    ENUMERATE_MAX_N,
    count_realizations,
    count_staircase_family,
    bumped_staircase_sequence,
    p_measure,
    realization_edge_lists,
    staircase_sequence,
    verify_family_bounds,
)
from .errors import LIMITS, ConstructionError, DegseqError, TooLarge, check_limit
from .graphicality import (
    PREDICATE_NAMES,
    WITNESS_MAX_SIZE,
    RegionPredicate,
    _sweep_rows,
    is_graphic,
    is_graphic_tv,
    jms_star_sigma_margin,
    leg,
    region_fully_graphic,
    satisfies_stability_bound,
    very_simple_region_fully_graphic,
)
from .mcmc import (
    ChainConfig,
    havel_hakimi_graph,
    sample,
    switch_connected,
    tv_distance_to_uniform,
)
from .splitgraph import (
    SplitGraph,
    _composed_degrees,
    _require_split,
    is_split_sequence,
    nonstability_witness,
    split_witness,
    tyshkevich_compose,
    verify_multiplicativity,
)

# json.dumps(obj, sort_keys=True) is "".join(_encode(obj, 0)), without importing json.
try:
    from _json import encode_basestring_ascii, make_encoder
    _encode = make_encoder(None, None, encode_basestring_ascii, None, ": ", ", ", True, False, True)
except ImportError:
    from json import JSONEncoder
    _encode = JSONEncoder(sort_keys=True).iterencode

ENUMERATE_MAX_GRAPHS = LIMITS["ENUMERATE_MAX_GRAPHS"][0]

# Sweep rows written at once, and so held in memory at once as text.
_ROWS_PER_WRITE = 256

# An argument every argparse version reads as a value, not as an option.
_is_value = re.compile(r"(?!-)|-\d+\Z").match


def cmd_check(args) -> tuple[dict, str]:
    seq = args.degrees
    report = is_graphic_tv(seq) if args.tv else is_graphic(seq)
    result = {**vars(report), "sequence": str(seq),
              "stability_bound": satisfies_stability_bound(seq)}
    return result, "graphic" if report.graphic else f"not graphic ({report.reason})"


def cmd_leg(args) -> tuple[dict, str]:
    seq = leg(SimpleRegion(args.n, args.sigma, args.c1, args.c2))
    return {"sequence": str(seq)}, str(seq)


def cmd_region(args) -> tuple[dict, str]:
    if args.params:
        region = parse_region(args.params)
    elif None in (args.n, args.c1, args.c2):
        raise ValueError("give either a region string or --n, --c1 and --c2")
    elif args.sigma is None:
        region = VerySimpleRegion(args.n, args.c1, args.c2)
    else:
        region = SimpleRegion(args.n, args.sigma, args.c1, args.c2)
    n, c1, c2 = region.n, region.c1, region.c2
    sigma = region.sigma if isinstance(region, SimpleRegion) else None
    if args.predicate:
        try:
            epsilon = Fraction(args.epsilon) if args.epsilon else None
        except ZeroDivisionError:
            raise ValueError(f"--epsilon {args.epsilon} has a zero denominator") from None
        pred = RegionPredicate(args.predicate, epsilon=epsilon)
        holds = pred.evaluate(n, c1, c2, sigma=sigma)
        result = {"predicate": args.predicate, "holds": holds}
        if args.epsilon:
            result["epsilon"] = str(epsilon)
            result["exception_bound"] = pred.exception_bound
        if args.predicate == "phi_JMS_star_sigma":
            result["margin"] = jms_star_sigma_margin(n, sigma, c1, c2)
        human = f"{args.predicate}: {'holds' if holds else 'fails'}"
    else:
        if sigma is None:
            fg = very_simple_region_fully_graphic(region)
            result = {"fully_graphic": fg}
        else:
            fg = region_fully_graphic(region)
            result = {"fully_graphic": fg, "leg": str(leg(region))}
        human = "fully graphic" if fg else "not fully graphic"
    # The echo is the region decided, not the text or flags that named it.
    vars(args).update(n=n, sigma=sigma, c1=c1, c2=c2)
    del args.params, args.epsilon
    if not args.predicate:
        del args.predicate
    return result, human


def cmd_count(args) -> tuple[dict, str]:
    res = count_realizations(args.degrees)
    return vars(res), str(res.count)


def cmd_enumerate(args) -> tuple[dict, str]:
    seq = args.degrees
    edge_lists = realization_edge_lists(seq, args.limit)
    if args.limit is None or args.limit > ENUMERATE_MAX_GRAPHS:  # then the count decides
        check_limit("ENUMERATE_MAX_GRAPHS", ENUMERATE_MAX_GRAPHS, count_realizations(seq).count)
    # The checks LabeledGraph makes: an edge (u, v) has text only if 0 <= u < v < n,
    # and an increasing list repeats no edge.
    labels = {(u, v): _EDGE_LABELS[u, v] for u in range(seq.n) for v in range(u + 1, seq.n)}
    graphs = []
    for edges in edge_lists:
        if not all(map(operator.lt, edges, edges[1:])):
            raise ConstructionError(f"an edge list for {seq} is not strictly increasing")
        try:
            graphs.append(",".join(map(labels.__getitem__, edges)))
        except KeyError as exc:
            raise ConstructionError(f"edge {exc} is out of range for {seq}") from None
    result = {"realizations": graphs, "yielded": len(graphs)}
    return result, "\n".join(graphs) if graphs else "(no realizations)"


def cmd_pmeasure(args) -> tuple[dict, str]:
    value = p_measure(args.degrees)
    result = {
        "p": f"{value.numerator}/{value.denominator}",
        "p_float": float(value),
        "base_count": count_realizations(args.degrees).count,
    }
    return result, str(value)


def cmd_family_bounds(args) -> tuple[dict, str]:
    report = verify_family_bounds(args.degrees)
    result = {
        "base_count": report.base_count,
        "families": {k.value: v for k, v in report.family_totals.items()},
        "checks": [{**vars(c), "holds": c.holds} for c in report.checks],
        "all_hold": report.all_hold,
        "plus_minus_empty": report.plus_minus_empty,
    }
    lines = [f"{c.name}: {c.lhs} <= {c.rhs} {'ok' if c.holds else 'VIOLATED'}"
             for c in report.checks]
    if report.plus_minus_empty:
        lines.append("note: the +- family is empty")
    return result, "\n".join(lines)


def cmd_staircase_family(args) -> tuple[dict, str]:
    base, bumped = count_staircase_family(args.m)
    result = {
        "m": args.m,
        "sequence": str(staircase_sequence(args.m)),
        "bumped_sequence": str(bumped_staircase_sequence(args.m)),
        "count": base,
        "bumped_count": bumped,
    }
    return result, f"count={base} bumped_count={bumped}"


def cmd_split_check(args) -> tuple[dict, str]:
    verdict = is_split_sequence(args.degrees)
    if verdict.is_split:
        return vars(verdict), "split"
    return vars(verdict), f"not split ({verdict.lhs} != {verdict.rhs})"


def cmd_split_witness(args) -> tuple[dict, str]:
    witness = split_witness(VerySimpleRegion(args.n, args.c1, args.c2))
    if witness is None:
        return {"found": False}, "no witness (region fully graphic)"
    split = witness.graph
    result = {
        **vars(witness),
        "found": True,
        "sequence": str(witness.sequence),
        "clique": sorted(v + 1 for v in split.clique),
        "independent": sorted(v + 1 for v in split.independent),
        "edges": edges_to_text(split.graph.edges()),
    }
    return result, f"{witness.sequence} (clique size {witness.ell})"


def cmd_tyshkevich(args) -> tuple[dict, str]:
    first, second = args.split_degrees, args.other_degrees
    # One split test; the greedy start gives vertex v the v-th largest entry, so the
    # clique is labels 0..m-1.  The composition is bounded before any graph is built.
    m = _require_split(first).m
    composed = _composed_degrees(first.degrees, range(m), second)
    check_limit("WITNESS_MAX_SIZE", WITNESS_MAX_SIZE, composed.n + composed.sigma // 2)
    split = SplitGraph(havel_hakimi_graph(first), frozenset(range(m)), frozenset(range(m, first.n)))
    other = havel_hakimi_graph(second)
    human = str(composed)
    result = {"composed": human, "edges": edges_to_text(tyshkevich_compose(split, other).edges())}
    if args.verify:
        report = verify_multiplicativity(split, other)
        result["counts"] = {
            "composed": report.composed_count,
            "split": report.split_count,
            "other": report.other_count,
        }
        result["multiplicative"] = report.holds
        human += f"  [{report.composed_count} = {report.split_count} * {report.other_count}]"
    return result, human


def cmd_nonstab_witness(args) -> tuple[dict, str]:
    witness = nonstability_witness(args.n, args.n_prime, args.c1, args.c2, verify=args.verify)
    if witness is None:
        return {"found": False}, "no witness (region fully graphic)"
    result = {**vars(witness), "found": True, "base": str(witness.base),
              "perturbed": str(witness.perturbed), "ell": witness.witness.ell}
    del result["witness"]
    human = f"base={witness.base} perturbed={witness.perturbed}"
    if args.verify:
        human += f" counts={witness.base_count},{witness.perturbed_count}"
    else:
        del result["base_count"], result["perturbed_count"]
    return result, human


def cmd_mcmc(args) -> tuple[dict, str]:
    seq = args.degrees
    config = ChainConfig(seed=args.seed, steps=args.steps, burn_in=args.burn_in)
    run = sample(seq, config)
    result = {
        **vars(run),
        "distinct_states": len(run.histogram),
        "final": edges_to_text(run.final.edges()),
    }
    try:  # no exact-space report above ENUMERATE_MAX_N, where a count may take seconds
        total = count_realizations(seq).count if seq.n <= ENUMERATE_MAX_N else 0
    except TooLarge:
        total = 0  # sampling still fine; just skip the exact-space report
    human = f"visited {len(run.histogram)} states in {config.steps} steps"
    if total:
        result["state_space"] = total
        if config.steps:  # no recorded step, no distribution to compare
            result["tv_to_uniform"] = tv_distance_to_uniform(run.histogram, total, config.steps)
            human += f", TV to uniform {result['tv_to_uniform']:.4f}"
        result["switch_connected"] = switch_connected(seq)
    return result, human


def cmd_sweep(args) -> tuple[dict, Iterator[str]]:
    """The rows' JSON text and their text lines, both over one pass of the grid's runs.

    All values are ints or ASCII labels, so a head '{"c1": C1, "c2": C2,
    "classification": "' plus the run's 'LABEL", "n": N, "sigma": S}' is
    json.dumps(row, sort_keys=True), and 'n=N sigma=S c1=C1 c2=' plus 'C2 LABEL'
    the text line; map joins them in C.  The plain grid keeps one c1's heads.
    """
    runs = _sweep_rows(args.n_min, args.n_max, args.with_sigma)
    heads = functools.lru_cache(None if args.with_sigma else 1)(lambda c1: list(
        map(f'{{"c1": {c1}, "c2": %d, "classification": "'.__mod__, range(c1 + 1))))
    ends = functools.cache(lambda label: list(map(f"%d {label}".__mod__, range(args.n_max))))

    def json_rows(run):
        n, s, c1, lo, hi, label = run
        tail = f'{label}", "n": {n}}}' if s is None else f'{label}", "n": {n}, "sigma": {s}}}'
        return map(operator.add, heads(c1)[lo:hi + 1], itertools.repeat(tail))

    def text_lines(run):
        n, s, c1, lo, hi, label = run
        head = f"n={n} c1={c1} c2=" if s is None else f"n={n} sigma={s} c1={c1} c2="
        return map(operator.add, itertools.repeat(head), ends(label)[lo:hi + 1])

    return ({"rows": itertools.chain.from_iterable(map(json_rows, runs))},
            itertools.chain.from_iterable(map(text_lines, runs)))


_DEGREES = {"type": DegreeSequence.parse}
_REQUIRED_INT = {"type": int, "required": True}
_FLAG = {"action": "store_true", "default": False}

# Subcommand name -> (command, help line, {argument: add_argument keywords}),
# in the order --help lists them.
COMMANDS = {
    "check": (cmd_check, "graphicality of a degree sequence", {
        "degrees": _DEGREES,
        "--tv": {**_FLAG, "help": "check only descent indices (requires max degree < n)"}}),
    "leg": (cmd_leg, "least Erdos-Gallai member of a region",
            dict.fromkeys(("--n", "--sigma", "--c1", "--c2"), _REQUIRED_INT)),
    "region": (cmd_region, "fully-graphic decision or predicate evaluation", {
        "params": {"nargs": "?",
                   "help": "region text like n=8,sigma=16,c1=4,c2=1 (sigma optional)"},
        **dict.fromkeys(("--n", "--c1", "--c2", "--sigma"), {"type": int}),
        "--predicate": {"choices": PREDICATE_NAMES},
        "--epsilon": {"help": "rational like 1/2 (phi_eps only)"}}),
    "count": (cmd_count, "exact number of labeled realizations", {"degrees": _DEGREES}),
    "enumerate": (cmd_enumerate, "list labeled realizations",
                  {"degrees": _DEGREES, "--limit": {"type": int}}),
    "pmeasure": (cmd_pmeasure, "local stability measure p(D)", {"degrees": _DEGREES}),
    "family-bounds": (cmd_family_bounds, "exact bounds between perturbation-family totals",
                      {"degrees": _DEGREES}),
    "staircase-family": (cmd_staircase_family,
                         "counts for the staircase sequence and its bumped variant",
                         {"m": {"type": int}}),
    "split-check": (cmd_split_check, "Hammer-Simeone split test", {"degrees": _DEGREES}),
    "split-witness": (cmd_split_witness, "split member of a non-fully-graphic region",
                      dict.fromkeys(("--n", "--c1", "--c2"), _REQUIRED_INT)),
    "tyshkevich": (cmd_tyshkevich, "compose a split graph with a graph", {
        "split_degrees": _DEGREES, "other_degrees": _DEGREES,
        "--verify": {**_FLAG, "help": "check count multiplicativity"}}),
    "nonstab-witness": (cmd_nonstab_witness, "uniquely realizable sequence with an exploding bump",
                        {**dict.fromkeys(("--n", "--n-prime", "--c1", "--c2"), _REQUIRED_INT),
                         "--verify": _FLAG}),
    "mcmc": (cmd_mcmc, "switch-chain sampling", {
        "degrees": _DEGREES, "--steps": _REQUIRED_INT, "--seed": _REQUIRED_INT,
        "--burn-in": {"type": int, "default": 0}}),
    "sweep": (cmd_sweep, "classify a grid of regions", {
        "--n-min": _REQUIRED_INT, "--n-max": _REQUIRED_INT,
        "--with-sigma": {**_FLAG, "help": "one row per fixed-sum region"}}),
}


@functools.cache
def build_parser():
    """The argparse parser of ``COMMANDS``, built on the first call and reused after it."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="degseq",
        description="Degree-sequence regions: graphicality, exact counts, "
        "split witnesses, and switch-chain sampling.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
    return parser


def _parse(argv) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` read from ``COMMANDS``, or None for
    --help, ``--``, usage errors and values that do not convert."""
    top = 0
    while top < len(argv) and len(argv[top]) > 2 and "--json".startswith(argv[top]):
        top += 1
    given = {}
    rest = iter(argv[top + 1:])
    try:  # on every failure here, LookupError included, argparse answers
        arguments = COMMANDS[argv[top]][2]
        positionals = [key for key in arguments if key[0] != "-"]
        options = [key for key in arguments if key[0] == "-"] + ["--help"]
        for arg in rest:
            if _is_value(arg):
                key, value = positionals.pop(0), arg
            else:
                option, eq, value = arg.partition("=")
                keys = [key for key in options if key.startswith(option)]
                key, = [option] if option in keys else keys  # ValueError on none or several
                if key == "--help" or eq and "action" in arguments[key]:
                    return None
                if "action" in arguments[key]:  # store_true
                    value = True
                elif not eq and not _is_value(value := next(rest, "-")):
                    return None
            keywords = arguments[key]
            given[key] = keywords["type"](value) if "type" in keywords else value
            if "choices" in keywords and given[key] not in keywords["choices"]:
                return None
    except (LookupError, ValueError, DegseqError):
        return None
    namespace = {"json": top > 0, "command": argv[top]}
    for key, keywords in arguments.items():
        if key not in given and keywords.get("required", key[0] != "-" and "nargs" not in keywords):
            return None
        namespace[key.lstrip("-").replace("-", "_")] = given.get(key, keywords.get("default"))
    return SimpleNamespace(**namespace)


def _print_envelope(envelope: dict) -> None:
    """Print ``json.dumps(envelope, sort_keys=True)``; rows in the result come
    as an iterator of their JSON text, written ``_ROWS_PER_WRITE`` at a time."""
    rows = envelope["result"].get("rows")
    if not isinstance(rows, Iterator):
        print("".join(_encode(envelope, 0)))
        return
    # A sweep's inputs are numbers and a flag, so this is the one '"rows": []'.
    envelope["result"]["rows"] = []
    head, tail = "".join(_encode(envelope, 0)).split('"rows": []')
    sys.stdout.write(head + '"rows": [')
    sep = ""
    while batch := ", ".join(itertools.islice(rows, _ROWS_PER_WRITE)):
        sys.stdout.write(sep + batch)
        sep = ", "
    print("]" + tail)


def main(argv=None) -> int:
    try:
        # Degree text is parsed here; argparse passes InvalidInput (not a
        # ValueError) through, so bad text exits 1 like any domain error.
        args = _parse(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
        result, human = COMMANDS[args.command][0](args)
        if args.json:
            inputs = {key: str(value) if isinstance(value, DegreeSequence) else value
                      for key, value in vars(args).items() if key not in ("json", "command")}
            envelope = {"command": args.command, "inputs": inputs,
                        "result": result, "version": __version__}
            _print_envelope(envelope)
        else:
            # A string, or a sweep's lines written as they come: either way
            # the text of print("\n".join(lines)).
            lines = iter((human,) if isinstance(human, str) else human)
            print(next(lines, ""))
            sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE shows: stdout now writes to
        # os.devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
