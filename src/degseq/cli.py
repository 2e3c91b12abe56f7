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
The result's one large member (a sweep's rows, enumerate's graphs or the
chain's histogram, see ``_streamed``) is written as JSON text a batch of
entries at a time, so the envelope's whole text is never held in memory.
A sweep's rows reach ``main`` as iterators over one pass of the grid, of their
JSON text or of their text lines, so a large sweep never holds all its rows.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 over a limit of ``errors.LIMITS``,
141 (128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
from collections.abc import Iterator
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
    count_realizations,
    count_staircase_family,
    bumped_staircase_sequence,
    _p_measure_terms,
    _realization_masks,
    staircase_sequence,
    verify_family_bounds,
)
from .errors import LIMITS, ConstructionError, DegseqError, TooLarge, check_limit
from .graphicality import (
    PREDICATE_NAMES,
    RegionPredicate,
    _leg_text,
    _sweep_rows,
    is_graphic,
    is_graphic_tv,
    jms_star_sigma_margin,
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

# Entries of a streamed member (``_streamed``), or lines of a command's text,
# written at once, and so held in memory at once as text.
_ROWS_PER_WRITE = 256


def _is_value(arg: str) -> bool:
    """Whether every argparse version reads ``arg`` as a value, not as an option."""
    return not arg.startswith("-") or arg[1:].isdecimal()


def cmd_check(args) -> tuple[dict, str]:
    seq = args.degrees
    report = is_graphic_tv(seq) if args.tv else is_graphic(seq)
    result = {**vars(report), "sequence": str(seq),
              "stability_bound": satisfies_stability_bound(seq)}
    return result, "graphic" if report.graphic else f"not graphic ({report.reason})"


def cmd_leg(args) -> tuple[dict, str]:
    text = _leg_text(SimpleRegion(args.n, args.sigma, args.c1, args.c2))
    return {"sequence": text}, text


def cmd_region(args) -> tuple[dict, str]:
    if args.epsilon is not None and not args.predicate:
        raise ValueError("--epsilon needs --predicate phi_eps")
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
        epsilon = None
        if args.epsilon is not None:
            from fractions import Fraction
            try:
                epsilon = Fraction(args.epsilon)
            except ZeroDivisionError:
                raise ValueError(f"--epsilon {args.epsilon} has a zero denominator") from None
        pred = RegionPredicate(args.predicate, epsilon=epsilon)
        holds = pred.evaluate(n, c1, c2, sigma=sigma)
        result = {"predicate": args.predicate, "holds": holds}
        if epsilon is not None:
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
            result = {"fully_graphic": fg, "leg": _leg_text(region)}
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


class _VertexText(dict):
    """Vertex u's edges (u, v) as text, per upper-neighbour mask, made on first use;
    as LabeledGraph does, it refuses a bit v outside u + 1 .. n - 1 (ConstructionError)."""

    def __init__(self, u: int, n: int):
        self.u, self.n = u, n

    def __missing__(self, mask: int) -> str:
        u, n = self.u, self.n
        if mask >> n or mask & (2 << u) - 1:
            raise ConstructionError(f"mask {mask:#x} of vertex {u + 1} is out of range for n = {n}")
        self[mask] = text = ",".join([_EDGE_LABELS[u, v] for v in range(u + 1, n) if mask >> v & 1])
        return text


def cmd_enumerate(args) -> tuple[dict, list[str] | tuple[str]]:
    seq = args.degrees
    masks = _realization_masks(seq, args.limit)
    if args.limit is None or args.limit > LIMITS["ENUMERATE_MAX_GRAPHS"][0]:  # the count decides
        check_limit("ENUMERATE_MAX_GRAPHS", count_realizations(seq).count)
    # per call, so no text outlives the command; vertex u's text is texts[u][up[u]]
    texts = [_VertexText(u, seq.n) for u in range(seq.n)]
    graphs = [",".join(filter(None, map(dict.__getitem__, texts, up))) for up in masks]
    result = {"realizations": graphs, "yielded": len(graphs)}
    return result, graphs or ("(no realizations)",)


def cmd_pmeasure(args) -> tuple[dict, str]:
    # p_measure's Fraction in lowest terms, and its correctly rounded float.
    total, base = _p_measure_terms(args.degrees)
    gcd = math.gcd(total, base)
    numerator, denominator = total // gcd, base // gcd
    result = {"p": f"{numerator}/{denominator}", "p_float": total / base, "base_count": base}
    return result, result["p"] if denominator > 1 else str(numerator)


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
    check_limit("WITNESS_MAX_SIZE", composed.n + composed.sigma // 2)
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
    result = {"final": run.final_text, "histogram": run.histogram, "metadata": run.metadata,
              "distinct_states": len(run.histogram)}
    try:  # no exact-space report above ENUMERATE_MAX_N, where a count may take seconds
        total = count_realizations(seq).count if seq.n <= LIMITS["ENUMERATE_MAX_N"][0] else 0
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
    """The rows' JSON text and their text lines, each over one pass of the grid's blocks.

    All values are ints or ASCII labels, so a head '{"c1": C1, "c2": C2,
    "classification": "' plus a tail 'LABEL", "n": N, "sigma": S}' is
    json.dumps(row, sort_keys=True), and 'n=N sigma=S ' plus 'c1=C1 c2=C2 '
    plus 'LABEL' the text line; map joins a block's heads and tails in C.
    """
    grid = args.n_min, args.n_max, args.with_sigma
    json_heads = functools.cache(lambda c1: list(
        map(f'{{"c1": {c1}, "c2": %d, "classification": "'.__mod__, range(c1 + 1))))
    text_heads = functools.cache(lambda c1: list(map(f"c1={c1} c2=%d ".__mod__, range(c1 + 1))))
    rows = _sweep_rows(*grid, json_heads, lambda n, s, label: (
        f'{label}", "n": {n}}}' if s is None else f'{label}", "n": {n}, "sigma": {s}}}'))
    lines = _sweep_rows(*grid, text_heads, lambda n, s, label: label)
    return ({"rows": itertools.chain.from_iterable(
                map(operator.add, heads, tails) for _, _, heads, tails in rows)},
            itertools.chain.from_iterable(
                map((f"n={n} " if s is None else f"n={n} sigma={s} ").__add__,
                    map(operator.add, heads, tails)) for n, s, heads, tails in lines))


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


def _streamed(result: dict) -> tuple[str, list | dict, Iterator[str]] | None:
    """The result's one member that can be large, as (its key, its empty value,
    an iterator of its entries' JSON text), or None.  A sweep's rows come as
    their JSON text.  Graphs and chain states are edge text, digits, '-' and
    ',', which JSON quotes unchanged, so a %-template mapped in C gives the
    text of json.dumps: '"G"' for a graph, '"S": N' for a histogram item."""
    if "rows" in result:
        return "rows", [], result["rows"]
    if "realizations" in result:
        return "realizations", [], map('"%s"'.__mod__, result["realizations"])
    if "histogram" in result:
        histogram = result["histogram"]
        keys = sorted(histogram)  # str against str, not (key, count) tuples
        items = zip(keys, map(histogram.__getitem__, keys))
        return "histogram", {}, map('"%s": %d'.__mod__, items)
    return None


def _print_envelope(envelope: dict) -> None:
    """Print ``json.dumps(envelope, sort_keys=True)``; the result's large
    member (``_streamed``) is written ``_ROWS_PER_WRITE`` entries at a time."""
    streamed = _streamed(envelope["result"])
    if streamed is None:
        print("".join(_encode(envelope, 0)))
        return
    # The envelope is encoded with the member emptied.  Only the result has its
    # key, and a string's text holds no unescaped '"', so the marker is found once.
    key, empty, entries = streamed
    envelope["result"][key] = empty
    brackets = "".join(_encode(empty, 0))  # "[]" or "{}"
    head, tail = "".join(_encode(envelope, 0)).split(f'"{key}": {brackets}')
    sys.stdout.write(f'{head}"{key}": {brackets[0]}')
    sep = ""
    while batch := ", ".join(itertools.islice(entries, _ROWS_PER_WRITE)):
        sys.stdout.write(sep + batch)
        sep = ", "
    print(brackets[1] + tail)


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
            # A string, or lines (enumerate's graphs, a sweep's rows written
            # _ROWS_PER_WRITE at a time as they come): either way the text of
            # print("\n".join(lines)).
            lines = iter((human,) if isinstance(human, str) else human)
            print(next(lines, ""))
            while batch := list(itertools.islice(lines, _ROWS_PER_WRITE)):
                sys.stdout.write("\n".join(batch) + "\n")
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
