"""Independent answers for every CLI op the benchmark sends.

Nothing here imports degseq.  The graphicality test is the linear-time
Erdos-Gallai pass (one pointer to the crossover index where d_i >= k, prefix
sums for the rest); the primitive member of a fixed-sum region is the closed
form (c1^alpha, a, c2^(n-1-alpha)); and the realization counter memoizes on
the histogram of residual values rather than on a sorted multiset, and
builds each child histogram directly, sharing no code with the library's
counter.

``check(op, rc, out, validator, counter)`` returns None when the op's
answer is right and a one-line reason otherwise.
"""

from __future__ import annotations

import collections
import json
import math
import operator
from fractions import Fraction


# ---------------------------------------------------------------------------
# Erdos-Gallai and regions
# ---------------------------------------------------------------------------

def eg_holds(degs) -> list[bool]:
    """holds[k-1] tells whether the Erdos-Gallai inequality holds at k."""
    d = sorted(degs, reverse=True)
    n = len(d)
    prefix = [0]
    for x in d:
        prefix.append(prefix[-1] + x)
    total = prefix[-1]
    out = []
    p = n  # number of entries >= k; shrinks as k grows
    for k in range(1, n + 1):
        while p > 0 and d[p - 1] < k:
            p -= 1
        # i > k with d_i >= k contribute k each; the rest contribute d_i.
        big = max(0, p - k)
        rhs = k * (k - 1) + k * big + (total - prefix[max(k, p)])
        out.append(prefix[k] <= rhs)
    return out


def is_graphic(degs) -> bool:
    return sum(degs) % 2 == 0 and all(eg_holds(degs))


def eg_report(degs, tv: bool = False) -> dict:
    """The CLI's report fields: graphic, failing_k, checked_ks, odd_sum."""
    d = sorted(degs, reverse=True)
    n = len(d)
    if sum(d) % 2:
        return {"graphic": False, "failing_k": None, "checked_ks": [], "odd_sum": True}
    holds = eg_holds(d)
    if tv:
        order = [k for k in range(1, n) if d[k - 1] > d[k]] + [n]
    else:
        order = list(range(1, n + 1))
    checked = []
    for k in order:
        checked.append(k)
        if not holds[k - 1]:
            return {"graphic": False, "failing_k": k, "checked_ks": checked,
                    "odd_sum": False}
    return {"graphic": True, "failing_k": None, "checked_ks": checked, "odd_sum": False}


def stability_bound(degs) -> bool:
    d = sorted(degs, reverse=True)
    n = len(d)
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        if prefix > k * (k - 1) + d[-1] * (n - k) + 1:
            return False
    return True


def primitive_member(n: int, sigma: int, c1: int, c2: int) -> list[int]:
    """(c1^alpha, a, c2^(n-1-alpha)) with sum sigma and c2 <= a < c1."""
    if c1 == c2:
        return [c1] * n
    alpha, rem = divmod(sigma - n * c2, c1 - c2)
    if alpha == n:
        return [c1] * n
    return [c1] * alpha + [c2 + rem] + [c2] * (n - 1 - alpha)


def even_sums(n: int, c1: int, c2: int) -> range:
    lo = n * c2 + (n * c2) % 2
    return range(lo, n * c1 + 1, 2)


def fixed_sum_fully_graphic(n: int, sigma: int, c1: int, c2: int) -> bool:
    return is_graphic(primitive_member(n, sigma, c1, c2))


def very_simple_fully_graphic(n: int, c1: int, c2: int) -> bool:
    return all(fixed_sum_fully_graphic(n, s, c1, c2) for s in even_sums(n, c1, c2))


def sweep_rows(n: int, with_sigma: bool) -> list[dict]:
    rows = []
    for c1 in range(n):
        for c2 in range(c1 + 1):
            if with_sigma:
                for s in range(n * c2, n * c1 + 1):
                    if s % 2:
                        label = "EMPTY"
                    elif fixed_sum_fully_graphic(n, s, c1, c2):
                        label = "FULLY_GRAPHIC"
                    else:
                        label = "NOT_FULLY_GRAPHIC"
                    rows.append({"n": n, "sigma": s, "c1": c1, "c2": c2,
                                 "classification": label})
            else:
                if not even_sums(n, c1, c2):
                    label = "EMPTY"
                elif very_simple_fully_graphic(n, c1, c2):
                    label = "FULLY_GRAPHIC"
                else:
                    label = "NOT_FULLY_GRAPHIC"
                rows.append({"n": n, "c1": c1, "c2": c2, "classification": label})
    if with_sigma:
        rows.sort(key=lambda r: (r["sigma"], r["c1"], r["c2"]))
    return rows


# ---------------------------------------------------------------------------
# Realization counting
# ---------------------------------------------------------------------------

COMB = [[math.comb(m, k) for k in range(m + 1)] for m in range(64)]


class Counter:
    """Labeled realizations of a degree vector, memoized across calls.

    A state is the tuple of (residual value, number of vertices with it),
    ascending by value, over the vertices with positive residual.  Each step
    removes one vertex of the largest residual r and sums over how many of
    its r neighbours come from each value class.
    """

    def __init__(self):
        self._memo: dict[tuple, int] = {(): 1}

    def count(self, degs) -> int:
        n = len(degs)
        if any(d < 0 or d > n - 1 for d in degs) or sum(degs) % 2:
            return 0
        hist: dict[int, int] = {}
        for d in degs:
            if d:
                hist[d] = hist.get(d, 0) + 1
        return self._count(tuple(sorted(hist.items())))

    def _count(self, state: tuple) -> int:
        hit = self._memo.get(state)
        if hit is not None:
            return hit
        r, mult = state[-1]
        classes = state[:-1] + (((r, mult - 1),) if mult > 1 else ())
        total = 0
        for ways, child in _choices(classes, r):
            total += ways * self._count(child)
        self._memo[state] = total
        return total


def _choices(classes: tuple, need: int) -> list:
    """(ways, child state) for each way to pick ``need`` neighbours."""
    out = []
    picks = [0] * len(classes)
    room = [0] * (len(classes) + 1)  # room[i]: vertices in classes i and above
    for i in range(len(classes) - 1, -1, -1):
        room[i] = room[i + 1] + classes[i][1]

    def walk(i, left, ways):
        if left == 0:
            child = []
            for (value, mult), k in zip(classes, picks):
                if k and value > 1:
                    if child and child[-1][0] == value - 1:
                        child[-1] = (value - 1, child[-1][1] + k)
                    else:
                        child.append((value - 1, k))
                if mult > k:
                    child.append((value, mult - k))
            out.append((ways, tuple(child)))
            return
        if room[i] < left:
            return
        value, mult = classes[i]
        for k in range(min(mult, left) + 1):
            picks[i] = k
            walk(i + 1, left - k, ways * COMB[mult][k])
        picks[i] = 0

    walk(0, need, 1)
    return out


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

PAIRWISE = {"--": (-1, -1), "++": (1, 1), "+-": (1, -1)}
DOUBLED = {"-2": -2, "+2": 2}


def _seq(text: str) -> list[int]:
    return sorted((int(x) for x in text.split(",")), reverse=True)


def _text(degs) -> str:
    return ",".join(str(d) for d in sorted(degs, reverse=True))


def _edges(text: str) -> list[tuple[int, int]]:
    """1-based ``u-v,...`` text as 0-based pairs."""
    nums = _ints(text)
    return list(zip((u - 1 for u in nums[0::2]), (v - 1 for v in nums[1::2])))


def _ints(edge_text: str) -> list[int]:
    return list(map(int, edge_text.replace("-", ",").split(","))) if edge_text else []


def _realizes(edge_text: str, degs) -> bool:
    """Whether the text lists distinct edges u-v with u < v, forming a simple
    graph in which vertex i (1-based) has degree degs[i-1]."""
    nums = _ints(edge_text)
    us, vs = nums[0::2], nums[1::2]
    if us and not (min(us) >= 1 and max(vs) <= len(degs)
                   and all(map(operator.lt, us, vs))
                   and len(set(zip(us, vs))) == len(us)):
        return False
    deg = collections.Counter(nums)
    return all(deg[v] == d for v, d in enumerate(degs, 1))


def _degrees_of(edge_text: str, n: int) -> list[int]:
    deg = collections.Counter(_ints(edge_text))
    return [deg[v] for v in range(1, n + 1)]


def _positional(degs, di, dj):
    n = len(degs)
    out = set()
    for i in range(n):
        for j in range(n):
            if i != j:
                vec = list(degs)
                vec[i] += di
                vec[j] += dj
                out.add(tuple(vec))
    return out


def _check_check(p, res, counter):
    want = eg_report(p["degrees"], tv=p["tv"])
    want["sequence"] = _text(p["degrees"])
    want["stability_bound"] = stability_bound(p["degrees"])
    return res == want


def _check_region(p, res, counter):
    n, c1, c2, sigma = p["n"], p["c1"], p["c2"], p.get("sigma")
    if sigma is None:
        return res == {"fully_graphic": very_simple_fully_graphic(n, c1, c2)}
    return res == {"fully_graphic": fixed_sum_fully_graphic(n, sigma, c1, c2),
                   "leg": _text(primitive_member(n, sigma, c1, c2))}


def _check_sweep(p, res, counter):
    return res == {"rows": sweep_rows(p["n"], p["with_sigma"])}


def _check_count(p, res, counter):
    return (res["count"] == counter.count(p["degrees"])
            and isinstance(res["nodes_explored"], int)
            and isinstance(res["from_cache"], bool))


def _check_pmeasure(p, res, counter):
    degs = sorted(p["degrees"], reverse=True)
    base = counter.count(degs)
    total = 0
    for i in range(len(degs)):
        for j in range(i + 1, len(degs)):
            vec = list(degs)
            vec[i] -= 1
            vec[j] -= 1
            total += counter.count(vec) if min(vec) >= 0 else 0
    value = Fraction(total, base)
    return (res["p"] == f"{value.numerator}/{value.denominator}"
            and res["p_float"] == float(value) and res["base_count"] == base)


def _check_family_bounds(p, res, counter):
    degs = sorted(p["degrees"], reverse=True)
    n = len(degs)
    g = counter.count(degs)
    t = {kind: sum(counter.count(list(v)) if min(v) >= 0 else 0
                   for v in _positional(degs, di, dj))
         for kind, (di, dj) in PAIRWISE.items()}
    for kind, step in DOUBLED.items():
        vecs = {tuple(degs[:i]) + (degs[i] + step,) + tuple(degs[i + 1:]) for i in range(n)}
        t[kind] = sum(counter.count(list(v)) if min(v) >= 0 else 0 for v in vecs)
    bounds = [
        ("pair_bound", max(t["++"], t["--"]), n * n * (t["+-"] + g)),
        ("double_bound", max(t["+2"], t["-2"]), n * n * t["+-"]),
        ("mixed_bound", t["+-"], (n ** 4 + n ** 2) * min(t["++"], t["--"])),
    ]
    checks = [{"name": name, "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}
              for name, lhs, rhs in bounds]
    return res == {"base_count": g, "families": t, "checks": checks,
                   "all_hold": all(c["holds"] for c in checks),
                   "plus_minus_empty": t["+-"] == 0}


def staircase(m: int) -> list[int]:
    return list(range(2 * m - 1, m, -1)) + [m, m] + list(range(m - 1, 0, -1))


def _check_staircase(p, res, counter):
    m = p["m"]
    base = staircase(m)
    bumped = list(base)
    bumped[m - 1] += 1
    bumped[2 * m - 1] += 1
    return res == {"m": m, "sequence": _text(base), "bumped_sequence": _text(bumped),
                   "count": counter.count(base), "bumped_count": counter.count(bumped)}


def hs_index(degs) -> int:
    return max(i for i, d in enumerate(sorted(degs, reverse=True), 1) if d >= i - 1)


def _check_tyshkevich(p, res, counter):
    g = sorted(p["split"], reverse=True)
    h = sorted(p["other"], reverse=True)
    ell = hs_index(g)
    # Vertex order is the split factor's (clique first), then the other
    # factor's: clique vertices gain |H|, the other factor's vertices gain ell.
    composed = [d + len(h) for d in g[:ell]] + g[ell:] + [d + ell for d in h]
    counts = {"composed": counter.count(composed), "split": counter.count(g),
              "other": counter.count(h)}
    return (res["composed"] == _text(composed)
            and _realizes(res["edges"], composed)
            and res["counts"] == counts
            and counts["composed"] == counts["split"] * counts["other"]
            and res["multiplicative"] is True)


def _check_nonstab(p, res, counter):
    if not res.get("found") or res.get("unique_verified") is not True:
        return False
    base, pert = _seq(res["base"]), _seq(res["perturbed"])
    return (res["m"] == p["n_prime"] - p["n"]
            and len(base) == p["n"] + 2 * res["m"]
            and sum(pert) == sum(base) + 2
            and res["base_count"] == counter.count(base) == 1
            and res["perturbed_count"] == counter.count(pert))


def _check_split_witness(p, res, counter):
    n, c1, c2 = p["n"], p["c1"], p["c2"]
    if very_simple_fully_graphic(n, c1, c2):
        return res == {"found": False}
    seq = _seq(res["sequence"])
    clique = [v - 1 for v in res["clique"]]
    independent = [v - 1 for v in res["independent"]]
    edges = {(min(u, v), max(u, v)) for u, v in _edges(res["edges"])}
    deg = _degrees_of(res["edges"], n)
    return (res["found"] is True and len(seq) == n and c2 <= min(seq)
            and max(seq) <= c1 and sum(seq) % 2 == 0
            and sorted(deg, reverse=True) == seq
            and sorted(clique + independent) == list(range(n))
            and res["ell"] == len(clique)
            and all((u, v) in edges for u in clique for v in clique if u < v)
            and not any((u, v) in edges for u in independent for v in independent if u < v))


def _check_enumerate(p, res, counter):
    degs = sorted(p["degrees"], reverse=True)
    graphs = res["realizations"]
    want = min(p["limit"], counter.count(degs))
    return (res["yielded"] == len(graphs) == want
            and len(set(graphs)) == len(graphs)
            and all(_realizes(g, degs) for g in graphs))


def tv_to_uniform(histogram: dict, states: int, steps: int) -> float:
    visited = sum(abs(v / steps - 1.0 / states) for v in histogram.values())
    return 0.5 * (visited + (states - len(histogram)) / states)


def _check_mcmc(p, res, counter):
    degs = sorted(p["degrees"], reverse=True)
    hist = res["histogram"]
    meta = res["metadata"]
    if not (sum(hist.values()) == p["steps"] == meta["steps"]
            and res["distinct_states"] == len(hist)
            and meta["burn_in"] == p["burn_in"] and meta["seed"] == p["seed"]
            and 0 <= meta["accepted"] <= p["steps"] + p["burn_in"]
            and _realizes(res["final"], degs)
            and all(_realizes(state, degs) for state in hist)):
        return False
    if "state_space" not in res:
        return len(degs) > p["count_limit"]
    total = counter.count(degs)
    return (res["state_space"] == total
            and res["switch_connected"] is True
            and abs(res["tv_to_uniform"] - tv_to_uniform(hist, total, p["steps"])) <= 1e-9)


CHECKS = {
    "check": _check_check,
    "region": _check_region,
    "sweep": _check_sweep,
    "count": _check_count,
    "pmeasure": _check_pmeasure,
    "family-bounds": _check_family_bounds,
    "staircase-family": _check_staircase,
    "tyshkevich": _check_tyshkevich,
    "nonstab-witness": _check_nonstab,
    "split-witness": _check_split_witness,
    "enumerate": _check_enumerate,
    "mcmc": _check_mcmc,
}


def check(op: dict, rc, out: str, validator, counter: Counter) -> str | None:
    """None if the op's envelope is valid and its answer right, else why not.

    ``counter`` keeps its memo between calls, which makes checking a run's
    many related counts cheap.
    """
    if rc != 0:
        return f"exit code {rc}"
    try:
        envelope = json.loads(out)
    except ValueError:
        return "stdout is not one JSON envelope"
    errors = sorted(validator.iter_errors(envelope), key=str)
    if errors:
        return f"envelope fails the schema: {errors[0].message}"
    command = op["argv"][1]
    if envelope["command"] != command:
        return f"envelope command {envelope['command']!r}"
    try:
        ok = CHECKS[command](op["p"], envelope["result"], counter)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed result: {exc!r}"
    return None if ok else "answer disagrees with the oracle"
