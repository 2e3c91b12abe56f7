"""Exact realization counting and enumeration on labeled vertices.

``|G(D)|`` here always means the number of labeled simple graphs in which
vertex v_i has degree d_i for the given positional vector D; permuting the
vector permutes the realizations bijectively, so the count depends only on
the degree multiset.  The counter exploits this: it keys its state on the
residual-degree histogram (how many vertices have each residual value),
eliminates one vertex, sums over the ways to choose its neighbours class by
class (a product of binomials per choice, each mapping straight to the
child histogram), and memoizes on the histogram.  The eliminated vertex is
a pendant one (residual 1) when there is one and the top residual d obeys
5d < 3N, N the vertices left; otherwise it is one of residual d.  A pendant
vertex has at most d children where a top one has one per class composition
of d; but once 5d >= 3N a top vertex misses fewer than 2d/3 others, so its
compositions are few and it removes d edges at once.  (At 3d < 2N the
counter ran about 5% faster still but kept up to 9% more memo entries.)
A node takes its classes top first, each pick of a class moving on to the
next; once only the lowest two classes with a pickable vertex are left
below, their picks (one forced, or a two-way split) are taken in the loop
that reaches them, with no class of their own opened.
Counts are exact big integers.

Enumeration (``_realization_masks``) is a label-level backtracker of its own; it
yields each realization as one shared list of upper-neighbour masks, in a fixed order.

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
import struct
from collections.abc import Iterable, Iterator

from .core import DegreeSequence, LabeledGraph, PerturbationKind, Record
from .errors import LIMITS, InvalidInput, TooLarge, check_limit
from .graphicality import is_graphic, require_graphic

# A query empties a counter's memo first when it holds more entries than this.
MEMO_MAX_ENTRIES = 1 << 18


def _histogram_key(counts: list[int]) -> int | tuple[int, ...]:
    """The memo key of a residual histogram (``counts[v]`` vertices of residual
    v + 1, no trailing zero): below 256 vertices, where every entry fits a
    byte, the int with ``counts[v]`` in its byte v, else a tuple.  The kind
    depends on the histogram alone, so each histogram has one key whichever
    query reaches it."""
    return int.from_bytes(bytes(counts), "little") if sum(counts) < 256 else tuple(counts)


def _wide_key(packed: int) -> int | tuple[int, ...]:
    """``_histogram_key`` of a histogram packed in 64-bit fields, low first."""
    fields = (packed.bit_length() + 63) >> 6
    return _histogram_key(struct.unpack(f"<{fields}Q", packed.to_bytes(8 * fields, "little")))


def _step_budget(value: int | None) -> int:
    """``value`` by ``operator.index``, or if None DEGSEQ_STEP_BUDGET (default in
    ``errors.LIMITS``) by ``int``, read on the call; InvalidInput unless >= 0."""
    name, shown = "step_budget", value
    try:
        if value is None:
            name = "DEGSEQ_STEP_BUDGET"
            shown = os.environ.get(name)
            budget = LIMITS[name][0] if shown is None else int(shown)
        else:
            budget = operator.index(value)
    except (TypeError, ValueError):
        budget = -1
    if budget < 0:
        raise InvalidInput(f"{name} must be a non-negative integer, got {shown!r}")
    return budget


class CountResult(Record):
    """An exact realization count plus counter diagnostics."""

    count: int
    nodes_explored: int
    from_cache: bool


# Steps an open counter node is charged for its suspended generator frame, at
# one step per 8 bytes; given back when the node ends.  ``sys.getsizeof`` of a
# suspended node reads 600 bytes on CPython 3.11.7; the charge stays at 96 so
# that every query is refused, or answered, at the step total it always was.
_NODE_FRAME_STEPS = 96


class RealizationCounter:
    """Memoized exact counter for labeled realizations.

    A single counter may serve many queries; the memo table is keyed by
    residual-degree histograms (h[v] vertices of residual v + 1, trailing
    zeros stripped), packed into an int, h[v] in byte v (24 + 4 * ceil(8d / 30)
    bytes for d entries), when they hold fewer than 256 vertices and as
    tuples (40 + 8d) otherwise, and is shared across calls, so related
    sequences (perturbation families, region sweeps) reuse each other's
    subproblems (up to ``MEMO_MAX_ENTRIES`` of them plus those of one query).
    Results are deterministic and independent of call order.  Each node
    eliminates a pendant vertex while its top residual d is under three fifths
    of the vertices left, and a top vertex otherwise (see the module docstring).
    ``step_budget`` (an int >= 0, fixed when given; if not, DEGSEQ_STEP_BUDGET read at
    each cold query) is a query's one limit, in
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
        self._budget = None if step_budget is None else _step_budget(step_budget)
        # histogram key (``_histogram_key``) -> count; key 0 is never stored
        self._memo: dict[int | tuple[int, ...], int] = {}

    @property
    def step_budget(self) -> int:
        """The budget given when the counter was made, or else DEGSEQ_STEP_BUDGET,
        read now, so a cold query honours the variable and the table as they stand."""
        return _step_budget(self._budget)

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
        return CountResult(*self._query(_histogram_key(hist[1:])))

    def _query(self, key: int | tuple[int, ...]) -> tuple[int, int, bool]:
        """(count, nodes expanded, from cache) for a key of ``_histogram_key``:
        the memo's entry, or else a cold ``_count``."""
        if len(self._memo) > MEMO_MAX_ENTRIES:
            self._memo.clear()
        hit = self._memo.get(key)
        if hit is not None:
            return hit, 0, True
        return *self._count(key), False

    def _count(self, key: int | tuple[int, ...]) -> tuple[int, int]:
        """(count, nodes expanded) for a histogram key that is not memoized.

        A node's pivot, of residual p, takes k_r of the h[r] other vertices of
        residual r, top class first, in comb(h[r], k_r) ways, with the k_r
        summing to p; key 0 is never stored, so each visit is a node.  A node
        packs its histogram in w-bit fields (w = 8 for an int key, 64 for a
        tuple), so k picks from class r add k * delta_r to a running child key,
        delta_r = 2^(w(r - 2)) - 2^(w(r - 1)) (-1 for r = 1).  Each node is a
        generator that yields the child keys it finds unmemoized and reads each
        one's count from ``done`` when resumed, so no call nests per node or per
        class; it holds no list, as a deep elimination keeps 10^5 open for the GC.
        A node finds once its lowest two classes with a pickable vertex, a < b.
        A pick of class r that leaves exactly those below takes their picks in
        place: class b's j, high j first, and the forced rest from class a; only
        a pick that leaves more classes below pauses r and opens the next one.
        Each opening so skipped is charged what, and where, its class would
        have been charged, so the step totals are those of opening every class.
        """
        memo = self._memo
        lookup = memo.get
        comb = math.comb
        budget = self.step_budget
        nodes = steps = done = 0  # ``done``: the count of the node that finished last
        paused: list[tuple[int, ...]] = []  # the open nodes' classes paused at a pick

        def node(key: int | tuple[int, ...]) -> Iterator[int | tuple[int, ...]]:
            nonlocal nodes, steps, done
            nodes += 1
            if not key:
                done = 1
                return
            wide = type(key) is tuple  # then 64-bit fields, else 8-bit ones
            width = 64 if wide else 8
            h = key if wide else key.to_bytes((key.bit_length() + 7) >> 3, "little")
            ck = int.from_bytes(struct.pack(f"<{len(h)}Q", *h), "little") if wide else key
            d = len(h)
            steps += d + _NODE_FRAME_STEPS  # its histogram's entries, and its frame
            scan = d >> 5  # a class's pass over empty classes and its leaf key
            base, total = len(paused), 0
            left = sum(h)
            # the pivot p: a pendant vertex, unless the top vertex is nearly full
            p = 1 if h[0] and 5 * d < 3 * left else d
            ck -= 1 << width * (p - 1)  # the eliminated vertex
            # ``avail``: the vertices of residual 1..r, all still pickable
            r, need, ways, avail = d, p, 1, left - 1
            opening = avail >= p
            if opening:  # the lowest two classes a < b with a pickable vertex
                # a field's unit: ck's lowest set bit, rounded down to its field
                unit = 1 << (((ck & -ck).bit_length() - 1) & -width)
                ha = ck // unit & (1 << width) - 1
                da = (unit >> width) - unit
                hb = ck - ha * unit  # the classes above a; if none, b is never read
                if hb:
                    unit = 1 << (((hb & -hb).bit_length() - 1) & -width)
                    hb = hb // unit & (1 << width) - 1
                    db = (unit >> width) - unit
            while opening or len(paused) > base:
                if opening:  # class r: take k of its hr vertices, high k first
                    hr = h[r - 1] - (r == p)
                    while not hr:  # an empty class gives no neighbour
                        r -= 1
                        hr = h[r - 1] - (r == p)
                    unit = 1 << width * (r - 1)
                    delta = (unit >> width) - unit  # a pick's move to class r - 1
                    k = hr if hr < need else need
                    # the picks the classes below cannot supply
                    low = need - avail + hr if need + hr > avail else 0
                    steps += (k - low + 1) * (1 + (k * k >> 14)) + scan
                    if steps > budget:
                        raise TooLarge("DEGSEQ_STEP_BUDGET", budget, steps)
                    opening = False
                else:  # class r is done: the class above takes its next pick
                    r, need, ways, avail, hr, ck, delta, k, low = paused.pop()
                    k -= 1
                while k >= low:
                    w = ways * comb(hr, k)
                    m = need - k  # the picks left to the classes below r
                    j = jlow = 0  # of them, class b's; class a takes the m - j others
                    if m and avail - hr != ha:  # not class a alone
                        if avail - hr != ha + hb:  # not classes a and b alone
                            paused.append((r, need, ways, avail, hr, ck, delta, k, low))
                            r, need, ways, avail, ck = r - 1, m, w, avail - hr, ck + k * delta
                            opening = True
                            break
                        # class b's split, in place; charged as its frame would be
                        j = hb if hb < m else m
                        jlow = m - ha if m > ha else 0
                        steps += (j - jlow + 1) * (1 + (j * j >> 14)) + scan
                        if steps > budget:
                            raise TooLarge("DEGSEQ_STEP_BUDGET", budget, steps)
                    c = ck + k * delta
                    k -= 1
                    while j >= jlow:  # one leaf per pick of class b
                        x, s, i = w, c, m - j
                        if j:
                            x *= comb(hb, j)
                            s += j * db
                        if i:  # class a's forced pick, charged as its frame would be
                            steps += 1 + (i * i >> 14) + scan
                            if steps > budget:
                                raise TooLarge("DEGSEQ_STEP_BUDGET", budget, steps)
                            x *= comb(ha, i)
                            s += i * da
                        state = _wide_key(s) if wide else s
                        value = lookup(state)
                        if value is None:
                            yield state
                            value = done
                        total += x * value
                        j -= 1
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


def _realization_masks(seq: DegreeSequence, limit: int | None = None) -> Iterator[list[int]]:
    """Yield every labeled realization of ``seq`` once, as upper-neighbour masks.

    Vertices are eliminated in order of maximum residual degree (the first
    label among ties); each level branches over the eliminated vertex's
    neighbourhoods in ``combinations`` order, which partitions the realization
    set, so no graph is produced twice.  Each yield is the search's one list
    ``up``, read before resuming: bit v of ``up[u]`` is the edge (u, v), u < v,
    so by u and then v it is the sorted edge list.  At most ``limit`` are
    yielded.  A negative limit raises InvalidInput and a length above
    ``ENUMERATE_MAX_N`` raises TooLarge, both at the call; the search's dead
    ends escape the step budget, so it has a length bound of its own.  Only a
    graphic root has a leaf, so a non-graphic ``seq`` yields nothing without
    a search.
    """
    if limit is not None and limit < 0:
        raise InvalidInput(f"limit must be >= 0, got {limit}")
    degrees = seq.degrees
    n = len(degrees)
    check_limit("ENUMERATE_MAX_N", n)
    if not is_graphic(seq).graphic:
        return iter(())
    search = _backtrack(list(degrees), range(n), [0] * n) if degrees[0] else iter([[0] * n])
    return itertools.islice(search, limit)


def _backtrack(residual: list[int], live: Iterable[int], up: list[int]) -> Iterator[list[int]]:
    """The search of :func:`_realization_masks` below ``up``, over the vertices of
    ``live`` with a residual (one at least); a pick that leaves none is a leaf with
    no frame.  Its lists are arguments, not closure cells: no reference cycle."""
    live = list(filter(residual.__getitem__, live))
    pivot = max(live, key=residual.__getitem__)
    need = residual[pivot]
    others = live.copy()
    others.remove(pivot)
    if need > len(others):
        return
    rest = sum(map(residual.__getitem__, others)) - need  # the residual after any pick
    residual[pivot] = 0
    bit = 1 << pivot
    for nbrs in itertools.combinations(others, need):
        for v in nbrs:  # the edge (pivot, v) is bit pivot of up[v] or bit v of up[pivot]
            residual[v] -= 1
            up[v if v < pivot else pivot] ^= bit if v < pivot else 1 << v
        if rest:
            yield from _backtrack(residual, others, up)
        else:
            yield up
        for v in nbrs:
            residual[v] += 1
            up[v if v < pivot else pivot] ^= bit if v < pivot else 1 << v
    residual[pivot] = need


def enumerate_realizations(
    seq: DegreeSequence,
    limit: int | None = None,
) -> Iterator[LabeledGraph]:
    """Yield every labeled realization of ``seq`` exactly once, validated.

    The masks of :func:`_realization_masks`, in its order and under its
    limits (checked at the call), each read bit by bit into a ``LabeledGraph``.
    """
    return (LabeledGraph(seq.n, [(u, v) for u, mask in enumerate(up)
                                 for v in range(mask.bit_length()) if mask >> v & 1])
            for up in _realization_masks(seq, limit))


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
    Its multiset is the degree histogram with one entry moved from a to
    a + delta per slot; picks are grouped by that histogram's memo key (every
    ``+-`` pick (a, a + 1) gives the histogram of ``seq``) and each in-range
    one is counted once, through the counter's histogram entry.
    Out-of-range multisets count zero unqueried, so raise no TooLarge.
    """
    counter = counter or default_counter()
    degrees, deltas, n = seq.degrees, kind.deltas, seq.n
    hist = collections.Counter(degrees)
    if len(set(deltas)) == 1:
        picks, ways = itertools.combinations_with_replacement(hist, len(deltas)), math.comb
    else:
        picks, ways = itertools.product(hist, repeat=len(deltas)), math.perm
    # ``counts[a + 2]`` entries equal to a: room for two steps down and up
    counts = [0] * (max(degrees) + 5)
    for a, h in hist.items():
        counts[a + 2] = h
    groups: collections.Counter[int | tuple[int, ...]] = collections.Counter()
    for pick in picks:
        child = counts.copy()
        for a, delta in zip(pick, deltas):
            child[a + 2] -= 1
            child[a + 2 + delta] += 1
        # an entry below 0, or a value picked more often than it occurs (size 0)
        if child[0] or child[1] or min(child) < 0:
            continue
        top = len(child) - 1
        while not child[top]:
            top -= 1
        if top < n + 2:
            size = math.prod(ways(hist[a], pick.count(a)) for a in set(pick))
            groups[_histogram_key(child[3:top + 1])] += size
    total = sum(size * counter._query(key)[0] for key, size in groups.items())
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
    from fractions import Fraction
    return Fraction(*_p_measure_terms(seq, counter))


def _p_measure_terms(
    seq: DegreeSequence, counter: RealizationCounter | None = None
) -> tuple[int, int]:
    """p(D) unreduced, as (the -- family total, |G(D)|), without importing fractions."""
    require_graphic(seq)
    counter = counter or default_counter()
    base = counter.count(seq).count
    return family_count(seq, PerturbationKind.MINUS_MINUS, counter).total, base


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

    Uniquely realizable: its one realization is the half graph, a clique on
    the m largest entries with the t-th smallest entry joined to the first t
    of them.  A length 2m above ``WITNESS_MAX_SIZE`` raises TooLarge.
    """
    if m < 1:
        raise InvalidInput(f"staircase index must be >= 1, got {m}")
    check_limit("WITNESS_MAX_SIZE", 2 * m)
    values = list(range(2 * m - 1, m, -1)) + [m, m] + list(range(m - 1, 0, -1))
    return DegreeSequence(values)


def bumped_staircase_sequence(m: int) -> DegreeSequence:
    """The staircase sequence with +1 at positions m and 2m (one ``++`` step).

    Unlike the staircase itself this sequence has many realizations from
    m = 2 on, F(2m - 3) with F the Fibonacci numbers; at m = 1 it is 2,2,
    which is not graphic.
    """
    degrees = list(staircase_sequence(m).degrees)
    degrees[m - 1] += 1
    degrees[-1] += 1
    return DegreeSequence(degrees)


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
