"""Split sequences, split witnesses, and Tyshkevich composition.

A split graph partitions into a clique and an independent set.  Splitness is
a property of the degree sequence alone (Hammer-Simeone): with m the largest
index such that d_m >= m - 1, the sequence is split iff

    sum_{i<=m} d_i  =  m(m-1) + sum_{i>m} d_i.

Every very simple region that is not fully graphic contains a split
sequence; the witness built here is explicit degree arithmetic, and its
realization is a clique plus cross edges laid out so that none repeats.
Tyshkevich composition glues a split graph onto an arbitrary graph so that
realization counts multiply, which is the engine behind the non-stability
witness family.
"""

from __future__ import annotations

import operator
from collections.abc import Collection

from .core import DegreeSequence, LabeledGraph, Record, VerySimpleRegion
from .enumeration import (
    RealizationCounter,
    bumped_staircase_sequence,
    default_counter,
    staircase_sequence,
)
from .errors import ConstructionError, InvalidInput, NotSplit, check_limit
from .graphicality import _slack, require_graphic, very_simple_region_fully_graphic


class SplitVerdict(Record):
    """Hammer-Simeone test outcome: split iff lhs == rhs."""

    is_split: bool
    m: int
    lhs: int
    rhs: int


class SplitGraph(Record, frozen=True):
    """A labeled graph with one chosen clique/independent partition.

    The partition need not be unique, and equality compares it too: two split
    graphs are equal when their graphs, cliques and independent sets are.
    """

    graph: LabeledGraph
    clique: frozenset[int]
    independent: frozenset[int]

    def __post_init__(self):
        n = self.graph.n
        if self.clique | self.independent != frozenset(range(n)) or (
            self.clique & self.independent
        ):
            raise InvalidInput("clique and independent set must partition the vertices")
        # One mask test per row; by symmetry the lowest bit at the first
        # failing row names the first failing pair.
        adj = self.graph.adj
        clique_mask = sum(1 << v for v in self.clique)
        independent_mask = clique_mask ^ ((1 << n) - 1)
        for u in sorted(self.clique):
            missing = clique_mask & ~(adj[u] | 1 << u)
            if missing:
                v = (missing & -missing).bit_length() - 1
                raise InvalidInput(f"clique part misses edge ({u}, {v})")
        for u in sorted(self.independent):
            extra = adj[u] & independent_mask
            if extra:
                v = (extra & -extra).bit_length() - 1
                raise InvalidInput(f"independent part contains edge ({u}, {v})")


def hs_index(seq: DegreeSequence) -> int:
    """The largest index m with d_m >= m - 1 (1-based): d_i falls as i - 1
    rises, so the i with d_i >= i - 1 are exactly 1..m."""
    return sum(map(operator.ge, seq.degrees, range(seq.n)))


def is_split_sequence(seq: DegreeSequence) -> SplitVerdict:
    """Hammer-Simeone split test; requires a graphic input.

    When the verdict is split, every realization of the sequence is a split
    graph; when it is not, none is.
    """
    require_graphic(seq)
    degs = seq.degrees
    m = hs_index(seq)
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return SplitVerdict(is_split=(lhs == rhs), m=m, lhs=lhs, rhs=rhs)


def _require_split(seq: DegreeSequence) -> SplitVerdict:
    """The verdict of :func:`is_split_sequence`, or NotSplit when it is not split."""
    verdict = is_split_sequence(seq)
    if not verdict.is_split:
        raise NotSplit(f"degree sequence {seq} is not split")
    return verdict


# ---------------------------------------------------------------------------
# Split witness inside a non-fully-graphic region
# ---------------------------------------------------------------------------

class SplitWitness(Record):
    """A split member of a region, with its realization.

    ``ell`` is the clique size; ``cross_edges`` the number of clique-to-
    independent edges sigma = (n - ell) * c2.  Cross edge i, 0 <= i < sigma,
    joins clique vertex i % ell to independent vertex ell + i // c2, so
    ``alpha`` clique vertices carry ``c + 1`` of them and the rest ``c``
    (sigma = c * ell + alpha).
    """

    sequence: DegreeSequence
    ell: int
    cross_edges: int
    c: int
    alpha: int

    @property
    def graph(self) -> SplitGraph:
        """The realization, built anew on each access (O(n^2) bits).

        No cross edge repeats: the c2 <= ell consecutive i of one
        independent vertex are distinct mod ell.  Raises TooLarge when its
        vertices plus edges exceed ``WITNESS_MAX_SIZE``.
        """
        n, ell, sigma = self.sequence.n, self.ell, self.cross_edges
        check_limit("WITNESS_MAX_SIZE", n + self.sequence.sigma // 2)
        c2 = sigma // (n - ell)
        edges = [(u, v) for u in range(ell) for v in range(u + 1, ell)]
        edges += [(i % ell, ell + i // c2) for i in range(sigma)]
        return SplitGraph(
            graph=LabeledGraph.from_edges(n, edges),
            clique=frozenset(range(ell)),
            independent=frozenset(range(ell, n)),
        )


def _split_member(n: int, c2: int, ell: int) -> SplitWitness:
    """(ell + c)^alpha (ell + c - 1)^(ell - alpha) c2^(n - ell), by arithmetic."""
    sigma = (n - ell) * c2
    c, alpha = divmod(sigma, ell)
    values = (ell + c,) * alpha + (ell + c - 1,) * (ell - alpha) + (c2,) * (n - ell)
    return SplitWitness(
        sequence=DegreeSequence(values), ell=ell, cross_edges=sigma, c=c, alpha=alpha
    )


def split_witness(region: VerySimpleRegion) -> SplitWitness | None:
    """A split degree sequence inside a non-fully-graphic region.

    Returns None when the region is fully graphic (no witness is promised
    then).  Otherwise the clique size is the smallest ell in [max(c2, 1), c1]
    with s(ell) < 0 (``graphicality._slack``); one exists, as the region
    has s(k) <= -2 for some c2 < k <= c1 (see ``_min_slack``).  With
    w = n - ell >= 1 (ell <= c1 < n), s(ell) < 0 reads
    c2*w < ell(c1 - ell + 1), so c = sigma // ell <= c1 - ell and no entry
    exceeds c1.  The clique entries are >= ell + c - 1 >= c2: for c >= 1 as
    ell >= c2, and c = 0 forces ell > c2 (c2 = 0, or c2 <= c2*w < ell).  The
    sum ell(ell - 1) + 2*sigma is even, so the sequence is a member.
    An n above ``WITNESS_MAX_SIZE`` raises TooLarge.
    """
    check_limit("WITNESS_MAX_SIZE", region.n)
    if very_simple_region_fully_graphic(region):
        return None
    n, c1, c2 = region.n, region.c1, region.c2
    ell = next(k for k in range(max(c2, 1), c1 + 1) if _slack(n, c1, c2, k) < 0)
    return _split_member(n, c2, ell)


# ---------------------------------------------------------------------------
# Tyshkevich composition
# ---------------------------------------------------------------------------

def tyshkevich_compose(split: SplitGraph, other: LabeledGraph) -> LabeledGraph:
    """Compose a split graph with an arbitrary graph.

    The result is the disjoint union plus every edge from the clique part of
    the split graph to the second graph.  The second operand's vertices are
    re-labeled to follow the first's.  Realization counts of the degree
    sequences multiply under this composition.
    """
    g = split.graph
    shift = g.n
    edges = list(g.edges())
    edges += [(u + shift, v + shift) for u, v in other.edges()]
    edges += [(u, shift + v) for u in sorted(split.clique) for v in range(other.n)]
    return LabeledGraph.from_edges(g.n + other.n, edges)


def _composed_degrees(
    degrees: tuple[int, ...], clique: Collection[int], other: DegreeSequence
) -> DegreeSequence:
    """Degrees of G o H, for G of positional ``degrees`` with clique positions
    ``clique`` and any H of degrees ``other``: clique +|H|, H +|clique|."""
    gain, ell = other.n, len(clique)
    own = [d + gain if v in clique else d for v, d in enumerate(degrees)]
    return DegreeSequence(own + [d + ell for d in other.degrees])


class MultiplicativityReport(Record):
    """Exact counts checking |G(d(K))| = |G(d(G))| * |G(d(H))|."""

    composed_count: int
    split_count: int
    other_count: int

    @property
    def holds(self) -> bool:
        return self.composed_count == self.split_count * self.other_count


def verify_multiplicativity(
    split: SplitGraph,
    other: LabeledGraph,
    counter: RealizationCounter | None = None,
) -> MultiplicativityReport:
    """Count the composition (no graph built) and both factors; compare exactly."""
    counter = counter or default_counter()
    other_degrees = other.degree_sequence()
    composed = _composed_degrees(split.graph.degrees(), split.clique, other_degrees)
    return MultiplicativityReport(
        composed_count=counter.count(composed).count,
        split_count=counter.count(split.graph.degree_sequence()).count,
        other_count=counter.count(other_degrees).count,
    )


# ---------------------------------------------------------------------------
# Non-stability witness
# ---------------------------------------------------------------------------

class NonstabilityWitness(Record):
    """A uniquely-realizable sequence whose one double-step bump explodes.

    ``base`` is the degree sequence of (split witness) o (staircase m), a
    threshold sequence with exactly one realization (``unique_verified`` is
    always True).  ``perturbed`` adds 1 to the images of the staircase's two
    bump positions.  Its count is 0 at m = 1, where the bumped staircase is
    2,2 and not graphic; from m = 2 on it is ``count_staircase_family(m)[1]``,
    F(2m - 3) with F the Fibonacci numbers (1, 2, 5, 13, ..., 89 at m = 7).
    That grows exponentially in m, defeating any polynomial stability bound
    along the family.  Counts only with ``verify``.
    """

    base: DegreeSequence
    perturbed: DegreeSequence
    m: int
    witness: SplitWitness
    unique_verified: bool
    base_count: int | None = None
    perturbed_count: int | None = None


def nonstability_witness(
    n: int,
    n_prime: int,
    c1: int,
    c2: int,
    *,
    verify: bool = False,
    counter: RealizationCounter | None = None,
) -> NonstabilityWitness | None:
    """Build the witness pair for the region (n, c1, c2) stretched to n_prime.

    Returns None when the region is fully graphic.  Requires n_prime > n;
    the staircase index is m = n_prime - n.  The split part is the
    ``split_witness`` candidate of the smallest clique size ell with
    s(ell) < 0 that is threshold, which is exactly one labeled realization
    (Chvatal-Hammer 1977); then ``base`` is threshold too.  The pick is
    O(1) arithmetic at any n, and only ``verify`` counts.

    A candidate (ell + c)^alpha (ell + c - 1)^(ell - alpha) c2^w, w = n - ell,
    is threshold iff c2 = 0, w = 1 or ell = c2: K_ell plus isolated
    vertices, K_ell plus one vertex on c2 of its vertices, or K_ell joined
    to w isolated vertices.  Otherwise the w >= 2 independent vertices of
    degree c2 >= 1 would share one neighbourhood N (threshold
    neighbourhoods are nested), so each clique vertex would carry w or 0
    cross edges; as they carry c or c + 1, all carry w and ell = |N| = c2.
    The last disjunct never qualifies: s(c2) = c2(n - 1 - c1) >= 0.  So
    ell = 1 when c2 = 0 (s(1) = -c1 < 0), else ell = n - 1 when c1 = n - 1
    (the region not being fully graphic forces c2 < n - 1, so
    s(n - 1) = c2 - (n - 1) < 0), else no candidate is threshold and
    ConstructionError is raised.  A ``base`` longer than ``WITNESS_MAX_SIZE``
    (it has n + 2m = 2 n_prime - n entries) raises TooLarge.

    At m = 1 the witness is still returned, though it shows no blow-up: the
    bumped staircase is 2,2, which is not graphic, so ``perturbed`` is not
    graphic either and its count is 0.  ``base`` is uniquely realizable at
    every m, so the pair is a witness in form; the exponential growth of
    ``perturbed_count`` needs m >= 2.
    """
    region = VerySimpleRegion(n, c1, c2)
    if n_prime <= n:
        raise InvalidInput(f"n_prime must exceed n, got {n_prime} <= {n}")
    check_limit("WITNESS_MAX_SIZE", 2 * n_prime - n)
    if very_simple_region_fully_graphic(region):
        return None
    m = n_prime - n
    if c2 == 0:
        ell = 1
    elif c1 == n - 1:
        ell = n - 1
    else:
        raise ConstructionError(f"no uniquely realizable split witness in {region}")
    chosen = _split_member(n, c2, ell)

    # The bump is the staircase's own, at its positions m and 2m.
    degrees, clique = chosen.sequence.degrees, range(ell)
    base = _composed_degrees(degrees, clique, staircase_sequence(m))
    perturbed = _composed_degrees(degrees, clique, bumped_staircase_sequence(m))

    base_count = perturbed_count = None
    if verify:
        counter = counter or default_counter()
        base_count = counter.count(base).count
        perturbed_count = counter.count(perturbed).count
    return NonstabilityWitness(
        base=base,
        perturbed=perturbed,
        m=m,
        witness=chosen,
        unique_verified=True,
        base_count=base_count,
        perturbed_count=perturbed_count,
    )
