"""Exact realization counting and enumeration on labeled vertices.

``|G(D)|`` here always means the number of labeled simple graphs in which
vertex v_i has degree d_i for the given positional vector D; permuting the
vector permutes the realizations bijectively, so the count depends only on
the degree multiset.  The counter exploits this: it keys its state on the
residual-degree histogram (how many vertices have each residual value),
eliminates a vertex of maximum residual degree d, sums over the ways to
choose its d neighbours class by class (a product of binomials per choice,
each mapping straight to the child histogram), and memoizes on the
histogram.  Counts are exact big integers.

On top of the counter sit the perturbation-family totals, the local
stability measure p(D), the family-bound verifier relating the totals of
the five perturbation families, and the staircase family whose base
sequence has a unique realization while one double-step perturbation of it
has exponentially many.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import os
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .core import (
    DegreeSequence,
    LabeledGraph,
    Perturbation,
    PerturbationKind,
    Record,
    apply_perturbation,
)
from .errors import LIMITS, InvalidInput, TooLarge, check_limit
from .graphicality import WITNESS_MAX_SIZE, is_graphic, require_graphic

# A query empties a counter's memo first when it holds more entries than this.
MEMO_MAX_ENTRIES = 1 << 18

# The backtracker's dead ends escape the step budget, so it has a length bound of its own.
ENUMERATE_MAX_N = LIMITS["ENUMERATE_MAX_N"][0]


@functools.cache
def _default_step_budget() -> int:
    """DEGSEQ_STEP_BUDGET (default in ``errors.LIMITS``), read on first use rather
    than at import, so a bad value raises InvalidInput where a count needs it."""
    text = os.environ.get("DEGSEQ_STEP_BUDGET", str(LIMITS["DEGSEQ_STEP_BUDGET"][0]))
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidInput(f"DEGSEQ_STEP_BUDGET must be a non-negative integer, got {text!r}")
    return value


class CountResult(Record):
    """An exact realization count plus counter diagnostics."""

    count: int
    nodes_explored: int
    from_cache: bool


# Steps an open counter node is charged for its suspended generator frame,
# about 760 bytes at one step per 8 bytes; given back when the node ends.
_NODE_FRAME_STEPS = 96


class RealizationCounter:
    """Memoized exact counter for labeled realizations.

    A single counter may serve many queries; the memo table is keyed by
    residual-degree histograms (``key[v]`` vertices of residual v + 1,
    trailing zeros stripped) and is shared across calls, so related
    sequences (perturbation families, region sweeps) reuse each other's
    subproblems (up to ``MEMO_MAX_ENTRIES`` of them plus those of one query).
    Results are deterministic and independent of call order.
    ``step_budget`` (default DEGSEQ_STEP_BUDGET) is a query's one limit, in
    steps: the child histograms it tries, times 1 + high**2 // 2**14 when a
    class may give up to high picks (big binomials), plus d // 32 per class
    and d per node on a length-d histogram (scans and copies), plus one per
    64 bits of each count the memo stores (big integers), plus
    ``_NODE_FRAME_STEPS`` per node while it is open (its suspended frame).
    What a query holds is charged at one step per 8 bytes.  Past the budget
    the query raises TooLarge; no recursion limit applies.  Steps and nodes
    are per query, so concurrent queries may duplicate work (memo writes are
    idempotent) but never corrupt a result or each other's ``nodes_explored``.
    """

    def __init__(self, step_budget: int | None = None):
        self.step_budget = _default_step_budget() if step_budget is None else step_budget
        self._memo: dict[tuple[int, ...], int] = {}

    def count(self, seq: DegreeSequence | Iterable[int]) -> CountResult:
        """The count of ``seq``, a DegreeSequence or a raw vector of integers
        (read by ``operator.index``, so a float or a string raises
        InvalidInput); an entry outside [0, n - 1] counts zero."""
        try:
            degrees = seq.degrees if isinstance(seq, DegreeSequence) else tuple(seq)
            if set(map(type, degrees)) - {int}:
                degrees = tuple(map(operator.index, degrees))
        except TypeError as exc:
            raise InvalidInput(f"degree sequence entries must be integers ({exc})") from None
        n = len(degrees)
        top = max(degrees, default=0)
        if n and (top > n - 1 or min(degrees) < 0):
            return CountResult(count=0, nodes_explored=0, from_cache=False)
        hist = [0] * (top + 1)
        for d in degrees:
            hist[d] += 1
        key = tuple(hist[1:])
        if len(self._memo) > MEMO_MAX_ENTRIES:
            self._memo.clear()
        hit = self._memo.get(key)
        if hit is not None:
            return CountResult(count=hit, nodes_explored=0, from_cache=True)
        return CountResult(*self._count(key), from_cache=False)

    def _count(self, key: tuple[int, ...]) -> tuple[int, int]:
        """(count, nodes expanded) for a histogram key that is not memoized.

        A node takes k_r of the h[r] vertices of residual r, top class first,
        in comb(h[r], k_r) ways; ``()`` is never stored, so each visit is a node.
        Each node is a generator that yields the child keys it finds unmemoized
        and reads each one's count from ``done`` when resumed, so no call
        nests per node or per class.
        """
        memo = self._memo
        lookup = memo.get
        comb = math.comb
        budget = self.step_budget
        nodes = steps = done = 0  # ``done``: the count of the node that finished last
        # Shared by the open nodes, so that none allocates a list (a deep
        # elimination keeps 10^5 open for the GC to scan): their child
        # histograms end to end (a node's residual r at hist[o + r]) and their
        # classes paused at a pick.
        hist: list[int] = []
        paused: list[tuple[int, ...]] = []

        def node(key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            nonlocal nodes, steps, done
            nodes += 1
            d = len(key)
            if not d:
                done = 1
                return
            steps += d + _NODE_FRAME_STEPS  # the entries it copies and holds, and its frame
            scan = d >> 5  # a class's pass over empty classes and its leaf key
            o, base, total = len(hist), len(paused), 0
            hist.extend((0, *key))  # hist[o] takes class 1's picks
            hist[o + d] -= 1  # the eliminated vertex
            # ``avail``: the vertices of residual 1..r, all still pickable
            r, need, ways, avail = d, d, 1, sum(key) - 1
            opening = avail >= d
            while opening or len(paused) > base:
                if opening:  # class r: take k of its hr vertices, high k first
                    hr = key[r - 1] - (r == d)
                    while not hr:  # an empty class gives no neighbour
                        r -= 1
                        hr = key[r - 1]
                    # ``own``: hr plus the picks from class r + 1
                    own, below = hist[o + r], hist[o + r - 1]
                    k = hr if hr < need else need
                    # the picks the classes below cannot supply
                    low = need - avail + hr if need + hr > avail else 0
                    steps += (k - low + 1) * (1 + (k * k >> 14)) + scan
                    if steps > budget:
                        raise TooLarge("DEGSEQ_STEP_BUDGET", budget, steps)
                    opening = False
                else:  # class r is done: the class above takes its next pick
                    hist[o + r], hist[o + r - 1] = own, below
                    r, need, ways, avail, hr, own, below, k, low = paused.pop()
                    k -= 1
                while k >= low:
                    hist[o + r] = own - k
                    hist[o + r - 1] = below + k
                    w = ways * comb(hr, k)
                    if k < need:
                        paused.append((r, need, ways, avail, hr, own, below, k, low))
                        r, need, ways, avail, opening = r - 1, need - k, w, avail - hr, True
                        break
                    top = d
                    while top and not hist[o + top]:
                        top -= 1
                    state = tuple(hist[o + 1:o + top + 1])
                    value = lookup(state)
                    if value is None:
                        yield state
                        value = done
                    total += w * value
                    k -= 1
            del hist[o:]
            # the big integers the memo holds; the frame is freed
            steps += (total.bit_length() >> 6) - _NODE_FRAME_STEPS
            if steps > budget:
                raise TooLarge("DEGSEQ_STEP_BUDGET", budget, steps)
            memo[key] = done = total

        stack = [node(key)]
        while stack:
            for child in stack[-1]:  # run the top node to its next unmemoized child
                stack.append(node(child))
                break
            else:
                stack.pop()
        return done, nodes


@functools.cache
def default_counter() -> RealizationCounter:
    """The process-wide shared counter, made on first use."""
    return RealizationCounter()


def count_realizations(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> CountResult:
    """Exact number of labeled graphs realizing ``seq``.

    Sequences with an entry outside [0, n-1] count zero rather than raising;
    a step budget overrun raises TooLarge.
    """
    return (counter or default_counter()).count(seq)


def realization_edge_lists(
    seq: DegreeSequence,
    limit: int | None = None,
) -> Iterator[list[tuple[int, int]]]:
    """Yield the sorted edge list of every labeled realization of ``seq`` once.

    Vertices are eliminated in order of maximum residual degree (the first
    label among ties); each level branches over the eliminated vertex's
    possible neighbourhoods, which partitions the realization set, so no
    graph is produced twice.  At most ``limit`` lists are yielded (none for
    0).  A negative limit raises InvalidInput and a length above
    ``ENUMERATE_MAX_N`` raises TooLarge, both at the call.  Only a graphic
    root has a leaf, so a non-graphic ``seq`` yields nothing without a search.
    """
    if limit is not None and limit < 0:
        raise InvalidInput(f"limit must be >= 0, got {limit}")
    degrees = seq.degrees
    n = len(degrees)
    check_limit("ENUMERATE_MAX_N", ENUMERATE_MAX_N, n)
    if not is_graphic(seq).graphic:
        return iter(())
    residual = list(degrees)
    active = [v for v in range(n) if residual[v] > 0]
    edges: list[tuple[int, int]] = []

    def backtrack() -> Iterator[list[tuple[int, int]]]:
        live = [v for v in active if residual[v] > 0]
        if not live:
            yield sorted(edges)
            return
        pivot = max(live, key=residual.__getitem__)
        need = residual[pivot]
        others = [v for v in live if v != pivot]
        if need > len(others):
            return
        residual[pivot] = 0
        for nbrs in itertools.combinations(others, need):
            for v in nbrs:
                residual[v] -= 1
                edges.append((pivot, v) if pivot < v else (v, pivot))
            yield from backtrack()
            for v in nbrs:
                residual[v] += 1
            del edges[-need:]
        residual[pivot] = need

    return itertools.islice(backtrack(), limit)


def enumerate_realizations(
    seq: DegreeSequence,
    limit: int | None = None,
) -> Iterator[LabeledGraph]:
    """Yield every labeled realization of ``seq`` exactly once, validated.

    The lists of :func:`realization_edge_lists`, in its order and under its
    limits (checked at the call), each built by ``LabeledGraph.from_edges``.
    """
    return (LabeledGraph.from_edges(seq.n, e) for e in realization_edge_lists(seq, limit))


# ---------------------------------------------------------------------------
# Perturbation families
# ---------------------------------------------------------------------------

class PerturbationFamilyCount(Record):
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


def family_count(
    seq: DegreeSequence,
    kind: PerturbationKind,
    counter: RealizationCounter | None = None,
) -> PerturbationFamilyCount:
    """Count all labeled graphs whose degree vector lies in one family of ``seq``.

    A pick gives each delta slot a degree value.  With h[a] entries equal to
    a and k slots on a, it stands for the product of comb(h[a], k) vectors,
    or perm(h[a], k) when the deltas differ (``+-``: its slots are ordered).
    Its representative moves the first positions of its values; picks are
    grouped by the representative's multiset (every ``+-`` pick (a, a + 1)
    gives the multiset of ``seq``) and each in-range one is counted once.
    Out-of-range multisets count zero unqueried, so raise no TooLarge.
    """
    counter = counter or default_counter()
    degrees, deltas, n = seq.degrees, kind.deltas, seq.n
    hist = collections.Counter(degrees)
    if len(set(deltas)) == 1:
        picks, ways = itertools.combinations_with_replacement(hist, len(deltas)), math.comb
    else:
        picks, ways = itertools.product(hist, repeat=len(deltas)), math.perm
    groups: collections.Counter[tuple[int, ...]] = collections.Counter()
    for pick in picks:
        size = math.prod(ways(hist[a], pick.count(a)) for a in set(pick))
        if not size:
            continue
        vec = list(degrees)
        for slot, (a, delta) in enumerate(zip(pick, deltas)):
            vec[degrees.index(a) + pick[:slot].count(a)] += delta
        if 0 <= min(vec) and max(vec) < n:
            groups[tuple(sorted(vec))] += size
    total = sum(size * counter.count(key).count for key, size in groups.items())
    return PerturbationFamilyCount(
        family=kind, total=total, distinct_vectors=ways(n, len(deltas))
    )


def p_measure(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> Fraction:
    """The local stability measure of a graphic sequence.

    p(D) = sum over positions 1 <= i < j <= n of |G(D - e_i - e_j)| / |G(D)|,
    which is the total of the -- family over |G(D)|: the vectors
    D - e_i - e_j are distinct for distinct pairs, so the positional sum
    and the family total agree.  Vectors with a negative entry count zero.
    A sequence that is not graphic raises NotGraphic before any count.
    """
    require_graphic(seq)
    counter = counter or default_counter()
    base = counter.count(seq).count
    return Fraction(family_count(seq, PerturbationKind.MINUS_MINUS, counter).total, base)


# ---------------------------------------------------------------------------
# Family bounds: the inequalities tying the five family totals together
# ---------------------------------------------------------------------------

class BoundCheck(Record):
    name: str
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


class FamilyBoundsReport(Record):
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
    """Evaluate all three family bounds for a graphic sequence, exactly.
    A sequence that is not graphic raises NotGraphic before any count."""
    require_graphic(seq)
    counter = counter or default_counter()
    base = counter.count(seq).count
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
        BoundCheck("pair_bound", max(gpp, gmm), n * n * (gpm + base)),
        BoundCheck("double_bound", max(gp2, gm2), n * n * gpm),
        BoundCheck("mixed_bound", gpm, (n ** 4 + n ** 2) * min(gpp, gmm)),
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
    :func:`staircase_realization`.  A length 2m above ``WITNESS_MAX_SIZE``
    raises TooLarge.
    """
    if m < 1:
        raise InvalidInput(f"staircase index must be >= 1, got {m}")
    check_limit("WITNESS_MAX_SIZE", WITNESS_MAX_SIZE, 2 * m)
    values = list(range(2 * m - 1, m, -1)) + [m, m] + list(range(m - 1, 0, -1))
    return DegreeSequence(values)


def bumped_staircase_sequence(m: int) -> DegreeSequence:
    """The staircase sequence with +1 at positions m and 2m (one double step).

    Unlike the staircase itself this sequence has many realizations, and the
    count grows exponentially in m.
    """
    return apply_perturbation(
        staircase_sequence(m), Perturbation(PerturbationKind.PLUS_PLUS, m, 2 * m)
    )


def staircase_realization(m: int) -> LabeledGraph:
    """The unique realization of the staircase sequence, degree-sorted labels.

    A half graph: a clique on 0..m-1 (clique vertex i has degree 2m-1-i) and
    vertex m+t of the independent half joined to clique vertices 0..m-t-1
    (degree m-t).  Its 2m vertices plus m^2 edges above ``WITNESS_MAX_SIZE``
    raise TooLarge.
    """
    if m < 1:
        raise InvalidInput(f"staircase index must be >= 1, got {m}")
    check_limit("WITNESS_MAX_SIZE", WITNESS_MAX_SIZE, 2 * m + m * m)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + t) for t in range(m) for i in range(m - t)]
    return LabeledGraph.from_edges(2 * m, edges)


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
