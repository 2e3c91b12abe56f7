"""Command-line interface.

Every successful invocation prints either a human-readable summary or, with
--json, a single envelope object:

    {"command": ..., "inputs": ..., "result": ..., "version": ...}

Exit codes: 0 success, 1 domain error, 2 usage error, 3 instance too large
for the configured limits (DEGSEQ_MAX_N, DEGSEQ_NODE_BUDGET).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .core import (
    DegreeSequence,
    SimpleRegion,
    VerySimpleRegion,
    edges_to_text,
    parse_region,
)
from .enumeration import (
    count_realizations,
    count_staircase_family,
    bumped_staircase_sequence,
    enumerate_realizations,
    p_measure,
    staircase_sequence,
    verify_family_bounds,
)
from .errors import DegseqError, TooLarge
from .graphicality import (
    PREDICATE_NAMES,
    RegionPredicate,
    is_graphic,
    is_graphic_tv,
    jms_star_sigma_margin,
    leg,
    region_fully_graphic,
    satisfies_stability_bound,
    sweep,
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
    is_split_sequence,
    nonstability_witness,
    split_partition,
    split_witness,
    tyshkevich_compose,
    verify_multiplicativity,
)


def _emit(args, command: str, inputs: dict, result, human: str) -> None:
    if args.json:
        envelope = {
            "command": command,
            "inputs": inputs,
            "result": result,
            "version": __version__,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        print(human)


def _sequence(text: str) -> DegreeSequence:
    return DegreeSequence.parse(text)


def _report_dict(report) -> dict:
    return {
        "graphic": report.graphic,
        "failing_k": report.failing_k,
        "checked_ks": report.checked_ks,
        "odd_sum": report.odd_sum,
    }


def cmd_check(args) -> None:
    seq = _sequence(args.degrees)
    report = is_graphic_tv(seq) if args.tv else is_graphic(seq)
    result = _report_dict(report)
    result["sequence"] = str(seq)
    result["stability_bound"] = satisfies_stability_bound(seq)
    if report.graphic:
        human = "graphic"
    elif report.odd_sum:
        human = "not graphic (odd degree sum)"
    else:
        human = f"not graphic (inequality fails at k={report.failing_k})"
    _emit(args, "check", {"degrees": str(seq), "tv": args.tv}, result, human)


def cmd_leg(args) -> None:
    region = SimpleRegion(args.n, args.sigma, args.c1, args.c2)
    seq = leg(region)
    _emit(
        args,
        "leg",
        {"n": args.n, "sigma": args.sigma, "c1": args.c1, "c2": args.c2},
        {"sequence": str(seq)},
        str(seq),
    )


def cmd_region(args) -> None:
    if args.params:
        parsed = parse_region(args.params)
        n, c1, c2 = parsed.n, parsed.c1, parsed.c2
        sigma = parsed.sigma if isinstance(parsed, SimpleRegion) else None
    elif None in (args.n, args.c1, args.c2):
        raise ValueError("give either a region string or --n, --c1 and --c2")
    else:
        n, c1, c2, sigma = args.n, args.c1, args.c2, args.sigma
    inputs = {"n": n, "sigma": sigma, "c1": c1, "c2": c2}
    if args.predicate:
        epsilon = Fraction(args.epsilon) if args.epsilon else None
        pred = RegionPredicate(args.predicate, epsilon=epsilon)
        holds = pred.evaluate(n, c1, c2, sigma=sigma)
        result = {"predicate": args.predicate, "holds": holds}
        if args.epsilon:
            result["epsilon"] = str(epsilon)
            result["exception_bound"] = pred.exception_bound
        if args.predicate == "phi_JMS_star_sigma":
            result["margin"] = jms_star_sigma_margin(n, sigma, c1, c2)
        inputs["predicate"] = args.predicate
        _emit(args, "region", inputs, result,
              f"{args.predicate}: {'holds' if holds else 'fails'}")
        return
    if sigma is not None:
        region = SimpleRegion(n, sigma, c1, c2)
        fg = region_fully_graphic(region)
        result = {"fully_graphic": fg, "leg": str(leg(region))}
    else:
        fg = very_simple_region_fully_graphic(VerySimpleRegion(n, c1, c2))
        result = {"fully_graphic": fg}
    _emit(args, "region", inputs, result,
          "fully graphic" if fg else "not fully graphic")


def cmd_count(args) -> None:
    seq = _sequence(args.degrees)
    res = count_realizations(seq)
    _emit(
        args,
        "count",
        {"degrees": str(seq)},
        {
            "count": res.count,
            "nodes_explored": res.nodes_explored,
            "from_cache": res.from_cache,
        },
        str(res.count),
    )


def cmd_enumerate(args) -> None:
    seq = _sequence(args.degrees)
    graphs = [edges_to_text(g.edges()) for g in enumerate_realizations(seq, limit=args.limit)]
    human = "\n".join(graphs) if graphs else "(no realizations)"
    _emit(
        args,
        "enumerate",
        {"degrees": str(seq), "limit": args.limit},
        {"realizations": graphs, "yielded": len(graphs)},
        human,
    )


def cmd_pmeasure(args) -> None:
    seq = _sequence(args.degrees)
    value = p_measure(seq)
    result = {
        "p": f"{value.numerator}/{value.denominator}",
        "p_float": float(value),
        "base_count": count_realizations(seq).count,
    }
    _emit(args, "pmeasure", {"degrees": str(seq)}, result, str(value))


def cmd_family_bounds(args) -> None:
    seq = _sequence(args.degrees)
    report = verify_family_bounds(seq)
    result = {
        "base_count": report.base_count,
        "families": {k.value: v for k, v in report.family_totals.items()},
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
            for c in report.checks
        ],
        "all_hold": report.all_hold,
        "plus_minus_empty": report.plus_minus_empty,
    }
    lines = [
        f"{c.name}: {c.lhs} <= {c.rhs} {'ok' if c.holds else 'VIOLATED'}"
        for c in report.checks
    ]
    if report.plus_minus_empty:
        lines.append("note: the +- family is empty")
    _emit(args, "family-bounds", {"degrees": str(seq)}, result, "\n".join(lines))


def cmd_staircase_family(args) -> None:
    base, bumped = count_staircase_family(args.m)
    result = {
        "m": args.m,
        "sequence": str(staircase_sequence(args.m)),
        "bumped_sequence": str(bumped_staircase_sequence(args.m)),
        "count": base,
        "bumped_count": bumped,
    }
    _emit(
        args,
        "staircase-family",
        {"m": args.m},
        result,
        f"count={base} bumped_count={bumped}",
    )


def cmd_split_check(args) -> None:
    seq = _sequence(args.degrees)
    verdict = is_split_sequence(seq)
    result = {
        "is_split": verdict.is_split,
        "m": verdict.m,
        "lhs": verdict.lhs,
        "rhs": verdict.rhs,
    }
    _emit(
        args,
        "split-check",
        {"degrees": str(seq)},
        result,
        "split" if verdict.is_split else f"not split ({verdict.lhs} != {verdict.rhs})",
    )


def cmd_split_witness(args) -> None:
    region = VerySimpleRegion(args.n, args.c1, args.c2)
    witness = split_witness(region)
    inputs = {"n": args.n, "c1": args.c1, "c2": args.c2}
    if witness is None:
        _emit(args, "split-witness", inputs, {"found": False},
              "no witness (region fully graphic)")
        return
    result = {
        "found": True,
        "sequence": str(witness.sequence),
        "ell": witness.ell,
        "cross_edges": witness.cross_edges,
        "c": witness.c,
        "alpha": witness.alpha,
        "clique": sorted(v + 1 for v in witness.graph.clique),
        "independent": sorted(v + 1 for v in witness.graph.independent),
        "edges": edges_to_text(witness.graph.graph.edges()),
    }
    _emit(args, "split-witness", inputs, result,
          f"{witness.sequence} (clique size {witness.ell})")


def cmd_tyshkevich(args) -> None:
    g_seq = _sequence(args.split_degrees)
    h_seq = _sequence(args.other_degrees)
    split = split_partition(havel_hakimi_graph(g_seq))
    other = havel_hakimi_graph(h_seq)
    composed = tyshkevich_compose(split, other)
    result = {
        "composed": str(composed.degree_sequence()),
        "edges": edges_to_text(composed.edges()),
    }
    human = str(composed.degree_sequence())
    if args.verify:
        report = verify_multiplicativity(split, other)
        result["counts"] = {
            "composed": report.composed_count,
            "split": report.split_count,
            "other": report.other_count,
        }
        result["multiplicative"] = report.holds
        human += f"  [{report.composed_count} = {report.split_count} * {report.other_count}]"
    _emit(
        args,
        "tyshkevich",
        {"split_degrees": str(g_seq), "other_degrees": str(h_seq)},
        result,
        human,
    )


def cmd_nonstab_witness(args) -> None:
    witness = nonstability_witness(
        args.n, args.n_prime, args.c1, args.c2, verify=args.verify
    )
    inputs = {
        "n": args.n,
        "n_prime": args.n_prime,
        "c1": args.c1,
        "c2": args.c2,
    }
    if witness is None:
        _emit(args, "nonstab-witness", inputs, {"found": False},
              "no witness (region fully graphic)")
        return
    result = {
        "found": True,
        "base": str(witness.base),
        "perturbed": str(witness.perturbed),
        "m": witness.m,
        "ell": witness.witness.ell,
        "unique_verified": witness.unique_verified,
    }
    human = f"base={witness.base} perturbed={witness.perturbed}"
    if args.verify:
        result["base_count"] = witness.base_count
        result["perturbed_count"] = witness.perturbed_count
        human += f" counts={witness.base_count},{witness.perturbed_count}"
    _emit(args, "nonstab-witness", inputs, result, human)


def cmd_mcmc(args) -> None:
    seq = _sequence(args.degrees)
    config = ChainConfig(seed=args.seed, steps=args.steps, burn_in=args.burn_in)
    run = sample(seq, config)
    histogram = {
        edges_to_text(key): value for key, value in sorted(run.histogram.items())
    }
    result = {
        "histogram": histogram,
        "distinct_states": len(histogram),
        "final": edges_to_text(run.final.edges()),
        "metadata": run.metadata,
    }
    try:
        total = count_realizations(seq).count
    except TooLarge:
        total = None  # sampling still fine; just skip the exact-space report
    if total is not None and 0 < total <= args.tv_max_states:
        states = [g.canonical_key() for g in enumerate_realizations(seq)]
        result["state_space"] = total
        result["tv_to_uniform"] = tv_distance_to_uniform(
            run.histogram, states, config.steps
        )
        result["switch_connected"] = switch_connected(seq)
    human = (
        f"visited {len(histogram)} states in {config.steps} steps"
        + (f", TV to uniform {result['tv_to_uniform']:.4f}" if "tv_to_uniform" in result else "")
    )
    _emit(
        args,
        "mcmc",
        {
            "degrees": str(seq),
            "steps": args.steps,
            "seed": args.seed,
            "burn_in": args.burn_in,
        },
        result,
        human,
    )


def cmd_sweep(args) -> None:
    rows = sweep(args.n_min, args.n_max, with_sigma=args.with_sigma)
    # The text form is as long as the JSON one; build it only when printed.
    human = "" if args.json else "\n".join(
        " ".join(f"{k}={row[k]}" for k in ("n", "sigma", "c1", "c2") if k in row)
        + f" {row['classification']}"
        for row in rows
    )
    _emit(
        args,
        "sweep",
        {"n_min": args.n_min, "n_max": args.n_max, "with_sigma": args.with_sigma},
        {"rows": rows},
        human,
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="degseq",
        description="Degree-sequence regions: graphicality, exact counts, "
        "split witnesses, and switch-chain sampling.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON envelope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="graphicality of a degree sequence")
    p.add_argument("degrees")
    p.add_argument("--tv", action="store_true",
                   help="check only descent indices (requires max degree < n)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("leg", help="least Erdos-Gallai member of a region")
    for flag in ("--n", "--sigma", "--c1", "--c2"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=cmd_leg)

    p = sub.add_parser("region", help="fully-graphic decision or predicate evaluation")
    p.add_argument("params", nargs="?",
                   help="region text like n=8,sigma=16,c1=4,c2=1 (sigma optional)")
    p.add_argument("--n", type=int)
    p.add_argument("--c1", type=int)
    p.add_argument("--c2", type=int)
    p.add_argument("--sigma", type=int)
    p.add_argument("--predicate", choices=PREDICATE_NAMES)
    p.add_argument("--epsilon", help="rational like 1/2 (phi_eps only)")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("count", help="exact number of labeled realizations")
    p.add_argument("degrees")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="list labeled realizations")
    p.add_argument("degrees")
    p.add_argument("--limit", type=int)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("pmeasure", help="local stability measure p(D)")
    p.add_argument("degrees")
    p.set_defaults(func=cmd_pmeasure)

    p = sub.add_parser("family-bounds",
                       help="exact bounds between perturbation-family totals")
    p.add_argument("degrees")
    p.set_defaults(func=cmd_family_bounds)

    p = sub.add_parser("staircase-family",
                       help="counts for the staircase sequence and its bumped variant")
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_staircase_family)

    p = sub.add_parser("split-check", help="Hammer-Simeone split test")
    p.add_argument("degrees")
    p.set_defaults(func=cmd_split_check)

    p = sub.add_parser("split-witness",
                       help="split member of a non-fully-graphic region")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.set_defaults(func=cmd_split_witness)

    p = sub.add_parser("tyshkevich", help="compose a split graph with a graph")
    p.add_argument("split_degrees")
    p.add_argument("other_degrees")
    p.add_argument("--verify", action="store_true",
                   help="check count multiplicativity")
    p.set_defaults(func=cmd_tyshkevich)

    p = sub.add_parser("nonstab-witness",
                       help="uniquely realizable sequence with an exploding bump")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-prime", type=int, required=True)
    p.add_argument("--c1", type=int, required=True)
    p.add_argument("--c2", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_nonstab_witness)

    p = sub.add_parser("mcmc", help="switch-chain sampling")
    p.add_argument("degrees")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--tv-max-states", type=int, default=5000,
                   help="enumerate the state space and report TV when at most this many")
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("sweep", help="classify a grid of regions")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--with-sigma", action="store_true",
                   help="one row per fixed-sum region")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
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
