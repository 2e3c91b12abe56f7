"""Exact realization counting and enumeration on labeled vertices.

``|G(D)|`` here always means the number of labeled simple graphs in which
vertex v_i has degree d_i for the given positional vector D; permuting the
vector permutes the realizations bijectively, so the count depends only on
the degree multiset.  The counter exploits this: it eliminates a vertex of
maximum residual degree d, sums over the ways to choose its d neighbours
grouped by residual value (a product of binomials per choice), and memoizes
on the sorted residual multiset.  Counts are exact big integers.

On top of the counter sit the perturbation-family totals, the local
stability measure p(D), the family-bound verifier relating the totals of
the five perturbation families, and the staircase family whose base
sequence has a unique realization while one double-step perturbation of it
has exponentially many.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import DegreeSequence, LabeledGraph, PerturbationKind
from .errors import InvalidInput, NotGraphic, TooLarge


def _env_limit(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidInput(f"{name} must be a non-negative integer, got {text!r}")
    return value


@functools.cache
def _default_limits() -> tuple[int, int]:
    """(max_n, node_budget) from DEGSEQ_MAX_N and DEGSEQ_NODE_BUDGET.

    Read on first use, not at import, so a bad value surfaces as
    InvalidInput where a limit is needed.  Defaults: 16 and 5,000,000.
    """
    return _env_limit("DEGSEQ_MAX_N", 16), _env_limit("DEGSEQ_NODE_BUDGET", 5_000_000)


@dataclass
class CountResult:
    """An exact realization count plus counter diagnostics."""

    count: int
    nodes_explored: int
    from_cache: bool


class RealizationCounter:
    """Memoized exact counter for labeled realizations.

    A single counter may serve many queries; the memo table is keyed by
    sorted residual multisets and is shared across calls, so related
    sequences (perturbation families, region sweeps) reuse each other's
    subproblems.  Results are deterministic and independent of call order.
    Concurrent queries may duplicate work but never corrupt results (memo
    writes are idempotent); the node diagnostics are per-query and only
    meaningful for serial use.
    """

    def __init__(
        self,
        max_n: int | None = None,
        node_budget: int | None = None,
        use_memo: bool = True,
    ):
        self.max_n = _default_limits()[0] if max_n is None else max_n
        self.node_budget = _default_limits()[1] if node_budget is None else node_budget
        self.use_memo = use_memo
        self._memo: dict[tuple[int, ...], int] = {}
        self._nodes = 0

    def count(self, seq: DegreeSequence | Iterable[int]) -> CountResult:
        degrees = tuple(seq.degrees if isinstance(seq, DegreeSequence) else seq)
        n = len(degrees)
        if n > self.max_n:
            raise TooLarge(f"n={n} exceeds the counting limit {self.max_n}")
        if any(d < 0 or d > n - 1 for d in degrees):
            return CountResult(count=0, nodes_explored=0, from_cache=False)
        key = _canonical(degrees)
        cached = self.use_memo and key in self._memo
        self._nodes = 0  # budget applies per query; diagnostics are per query too
        value = self._count(key)
        return CountResult(
            count=value, nodes_explored=self._nodes, from_cache=cached
        )

    def count_value(self, seq) -> int:
        return self.count(seq).count

    def _count(self, key: tuple[int, ...]) -> int:
        if self.use_memo:
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        self._nodes += 1
        if self._nodes > self.node_budget:
            raise TooLarge(f"node budget {self.node_budget} exceeded")
        if not key:
            return 1
        d = key[0]
        rest = key[1:]
        if d > len(rest):
            total = 0
        else:
            groups = [(v, len(list(g))) for v, g in itertools.groupby(rest)]
            total = 0
            for ways, newkey in _neighbor_choices(groups, d):
                total += ways * self._count(newkey)
        if self.use_memo:
            self._memo[key] = total
        return total


def _canonical(degrees: Iterable[int]) -> tuple[int, ...]:
    """Sorted non-increasing multiset with zero entries stripped."""
    return tuple(sorted((d for d in degrees if d > 0), reverse=True))


def _neighbor_choices(groups, d):
    """Yield (multiplicity, residual key) for each way to pick d neighbours.

    ``groups`` lists the residual values of the remaining vertices as
    (value, count) runs.  Picking k vertices out of a run of equal residuals
    contributes binom(count, k) labelings and decrements k copies.
    """
    picks = [0] * len(groups)

    def rec(gi: int, need: int, ways: int):
        if need == 0:
            out = []
            for (value, mult), k in zip(groups, picks):
                out.extend([value - 1] * k)
                out.extend([value] * (mult - k))
            yield ways, _canonical(out)
            return
        if gi == len(groups):
            return
        value, mult = groups[gi]
        top = min(mult, need) if value >= 1 else 0
        for k in range(top, -1, -1):
            picks[gi] = k
            yield from rec(gi + 1, need - k, ways * math.comb(mult, k))
        picks[gi] = 0

    yield from rec(0, d, 1)


@functools.cache
def default_counter() -> RealizationCounter:
    """The process-wide shared counter, made on first use."""
    return RealizationCounter()


def count_realizations(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> CountResult:
    """Exact number of labeled graphs realizing ``seq``.

    Sequences with an entry outside [0, n-1] count zero rather than raising;
    a length above the configured limit raises TooLarge.
    """
    return (counter or default_counter()).count(seq)


def enumerate_realizations(
    seq: DegreeSequence,
    limit: int | None = None,
    max_n: int | None = None,
) -> Iterator[LabeledGraph]:
    """Yield every labeled realization of ``seq`` exactly once.

    Vertices are eliminated in order of maximum residual degree; each level
    branches over the eliminated vertex's possible neighbourhoods, which
    partitions the realization set, so no graph is produced twice.
    """
    ceiling = _default_limits()[0] if max_n is None else max_n
    degrees = seq.degrees
    n = len(degrees)
    if n > ceiling:
        raise TooLarge(f"n={n} exceeds the enumeration limit {ceiling}")
    if any(d > n - 1 for d in degrees) or sum(degrees) % 2:
        return
    adj = [0] * n
    residual = list(degrees)
    active = [v for v in range(n) if residual[v] > 0]
    yielded = 0

    def emit():
        nonlocal yielded
        yielded += 1
        return LabeledGraph(n, tuple(adj))

    def backtrack() -> Iterator[LabeledGraph]:
        live = [v for v in active if residual[v] > 0]
        if not live:
            yield emit()
            return
        pivot = max(live, key=lambda v: residual[v])
        need = residual[pivot]
        others = [v for v in live if v != pivot]
        if need > len(others):
            return
        residual[pivot] = 0
        for nbrs in itertools.combinations(others, need):
            ok = True
            for v in nbrs:
                if residual[v] == 0:
                    ok = False
                    break
            if not ok:
                continue
            for v in nbrs:
                residual[v] -= 1
                adj[pivot] |= 1 << v
                adj[v] |= 1 << pivot
            yield from backtrack()
            for v in nbrs:
                residual[v] += 1
                adj[pivot] &= ~(1 << v)
                adj[v] &= ~(1 << pivot)
        residual[pivot] = need

    if not active:
        yield LabeledGraph(n, tuple(adj))
        return
    for graph in backtrack():
        yield graph
        if limit is not None and yielded >= limit:
            return


# ---------------------------------------------------------------------------
# Perturbation families
# ---------------------------------------------------------------------------

@dataclass
class PerturbationFamilyCount:
    """Total realizations across one perturbation family of a sequence.

    The family of D under a kind is the set of positional vectors obtained
    by applying the kind at every admissible index pair (i != j for the
    pairwise kinds, single index for the doubled ones).  ``total`` counts
    the labeled graphs whose degree vector lies in the family; since
    distinct vectors have disjoint realization sets, it is the sum of
    counts over the distinct vectors.  Vectors with an entry outside
    [0, n-1] contribute zero.
    """

    family: PerturbationKind
    total: int
    distinct_vectors: int


def _family_vectors(
    degrees: tuple[int, ...], kind: PerturbationKind
) -> set[tuple[int, ...]]:
    n = len(degrees)
    out: set[tuple[int, ...]] = set()
    if kind.pairwise:
        di = 1 if kind in (PerturbationKind.PLUS_PLUS, PerturbationKind.PLUS_MINUS) else -1
        dj = 1 if kind is PerturbationKind.PLUS_PLUS else -1
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                vec = list(degrees)
                vec[i] += di
                vec[j] += dj
                out.add(tuple(vec))
    else:
        step = 2 if kind is PerturbationKind.PLUS_TWO else -2
        for i in range(n):
            vec = list(degrees)
            vec[i] += step
            out.add(tuple(vec))
    return out


def _count_vector(vec: tuple[int, ...], counter: RealizationCounter) -> int:
    n = len(vec)
    if any(d < 0 or d > n - 1 for d in vec):
        return 0
    return counter.count(sorted(vec, reverse=True)).count


def family_count(
    seq: DegreeSequence,
    kind: PerturbationKind,
    counter: RealizationCounter | None = None,
) -> PerturbationFamilyCount:
    """Count all labeled graphs whose degree vector lies in one family of ``seq``."""
    counter = counter or default_counter()
    vectors = _family_vectors(seq.degrees, kind)
    total = sum(_count_vector(v, counter) for v in vectors)
    return PerturbationFamilyCount(
        family=kind, total=total, distinct_vectors=len(vectors)
    )


def p_measure(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> Fraction:
    """The local stability measure of a graphic sequence.

    p(D) = sum over positions 1 <= i < j <= n of |G(D - e_i - e_j)| / |G(D)|.
    The sum is positional: pairs producing equal vectors still contribute
    separately.  Children with a negative entry count zero.
    """
    counter = counter or default_counter()
    base = counter.count(seq).count
    if base == 0:
        raise NotGraphic(f"{seq} has no realization")
    degrees = seq.degrees
    n = len(degrees)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            vec = list(degrees)
            vec[i] -= 1
            vec[j] -= 1
            total += _count_vector(tuple(vec), counter)
    return Fraction(total, base)


# ---------------------------------------------------------------------------
# Family bounds: the inequalities tying the five family totals together
# ---------------------------------------------------------------------------

@dataclass
class BoundCheck:
    name: str
    lhs: int
    rhs: int
    holds: bool


@dataclass
class FamilyBoundsReport:
    """Exact evaluation of the polynomial bounds between family totals.

    For a graphic D of length n, with G(x) the total of family x and g the
    count of D itself:

        pair_bound    max(G(++), G(--))  <=  n^2 * (G(+-) + g)
        double_bound  max(G(+2), G(-2))  <=  n^2 * G(+-)
        mixed_bound   G(+-)  <=  (n^4 + n^2) * min(G(++), G(--))

    These bounds are why the definitions of P-stability phrased through the
    different families bound each other polynomially.  ``plus_minus_empty``
    flags the degenerate case G(+-) = 0 (e.g. the all-zero sequence), where
    pair_bound survives only through the +g term.
    """

    n: int
    base_count: int
    family_totals: dict[PerturbationKind, int]
    checks: tuple[BoundCheck, ...]
    plus_minus_empty: bool

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def verify_family_bounds(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> FamilyBoundsReport:
    """Evaluate all three family bounds for a graphic sequence, exactly."""
    counter = counter or default_counter()
    base = counter.count(seq).count
    if base == 0:
        raise NotGraphic(f"{seq} has no realization")
    n = seq.n
    totals = {
        kind: family_count(seq, kind, counter).total for kind in PerturbationKind
    }
    gpp = totals[PerturbationKind.PLUS_PLUS]
    gmm = totals[PerturbationKind.MINUS_MINUS]
    gpm = totals[PerturbationKind.PLUS_MINUS]
    gp2 = totals[PerturbationKind.PLUS_TWO]
    gm2 = totals[PerturbationKind.MINUS_TWO]
    checks = (
        BoundCheck("pair_bound", max(gpp, gmm), n * n * (gpm + base),
                   max(gpp, gmm) <= n * n * (gpm + base)),
        BoundCheck("double_bound", max(gp2, gm2), n * n * gpm,
                   max(gp2, gm2) <= n * n * gpm),
        BoundCheck("mixed_bound", gpm, (n ** 4 + n ** 2) * min(gpp, gmm),
                   gpm <= (n ** 4 + n ** 2) * min(gpp, gmm)),
    )
    return FamilyBoundsReport(
        n=n,
        base_count=base,
        family_totals=totals,
        checks=checks,
        plus_minus_empty=(gpm == 0),
    )


# ---------------------------------------------------------------------------
# Staircase family: unique realization vs. exponential blow-up
# ---------------------------------------------------------------------------

def staircase_sequence(m: int) -> DegreeSequence:
    """(2m-1, 2m-2, ..., m+1, m, m, m-1, ..., 2, 1); length 2m, m >= 1.

    Uniquely realizable: its one realization is the half graph returned by
    :func:`staircase_realization`.
    """
    if m < 1:
        raise InvalidInput(f"staircase index must be >= 1, got {m}")
    values = list(range(2 * m - 1, m, -1)) + [m, m] + list(range(m - 1, 0, -1))
    return DegreeSequence(values)


def bumped_staircase_sequence(m: int) -> DegreeSequence:
    """The staircase sequence with +1 at positions m and 2m (one double step).

    Unlike the staircase itself this sequence has many realizations, and the
    count grows exponentially in m.
    """
    base = list(staircase_sequence(m).degrees)
    base[m - 1] += 1
    base[2 * m - 1] += 1
    return DegreeSequence(base)


def staircase_realization(m: int) -> LabeledGraph:
    """The unique realization of the staircase sequence, degree-sorted labels.

    Structure: vertices split into a clique half and an independent half,
    with cross edges forming a half graph (vertex i of the independent half
    joined to the m+1-i highest-degree clique vertices).
    """
    if m < 1:
        raise InvalidInput(f"staircase index must be >= 1, got {m}")
    n = 2 * m
    # Build with natural labels 1..2m first: clique on [m+1, 2m], cross edges
    # (i, j) for 1 <= i <= m < j <= 2m with i + j <= 2m + 1.
    edges = [(i, j) for i in range(m + 1, n + 1) for j in range(i + 1, n + 1)]
    edges += [
        (i, j)
        for i in range(1, m + 1)
        for j in range(m + 1, n + 1)
        if i + j <= 2 * m + 1
    ]
    deg = {v: 0 for v in range(1, n + 1)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    order = sorted(range(1, n + 1), key=lambda v: (-deg[v], v))
    position = {label: idx for idx, label in enumerate(order)}
    return LabeledGraph.from_edges(
        n, [(position[u], position[v]) for u, v in edges]
    )


def count_staircase_family(
    m: int, counter: RealizationCounter | None = None
) -> tuple[int, int]:
    """Exact counts of the staircase sequence and its bumped variant."""
    if m < 2:
        raise InvalidInput(f"staircase family counts need m >= 2, got {m}")
    counter = counter or default_counter()
    base = counter.count(staircase_sequence(m)).count
    bumped = counter.count(bumped_staircase_sequence(m)).count
    return base, bumped
