"""Split sequences, split witnesses, and Tyshkevich composition.

A split graph partitions into a clique and an independent set.  Splitness is
a property of the degree sequence alone (Hammer-Simeone): with m the largest
index such that d_m >= m - 1, the sequence is split iff

    sum_{i<=m} d_i  =  m(m-1) + sum_{i>m} d_i.

Every very simple region that is not fully graphic contains a split
sequence; the witness built here is explicit, together with its clique plus
round-robin-cross-edges realization.  Tyshkevich composition glues a split
graph onto an arbitrary graph so that realization counts multiply, which is
the engine behind the non-stability witness family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    DegreeSequence,
    LabeledGraph,
    VerySimpleRegion,
    membership,
)
from .enumeration import (
    RealizationCounter,
    bumped_staircase_sequence,
    default_counter,
    staircase_realization,
    staircase_sequence,
)
from .errors import (
    ConstructionError,
    InvalidInput,
    NotGraphic,
    NotSplit,
)
from .graphicality import _slack, is_graphic, very_simple_region_fully_graphic


@dataclass
class SplitVerdict:
    """Hammer-Simeone test outcome: split iff lhs == rhs."""

    is_split: bool
    m: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class SplitGraph:
    """A labeled graph with one chosen clique/independent partition.

    The partition need not be unique; equality of split graphs compares the
    underlying graphs only.
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
        for u in self.clique:
            for v in self.clique:
                if u < v and not self.graph.has_edge(u, v):
                    raise InvalidInput(f"clique part misses edge ({u}, {v})")
        for u in self.independent:
            for v in self.independent:
                if u < v and self.graph.has_edge(u, v):
                    raise InvalidInput(f"independent part contains edge ({u}, {v})")

    def __eq__(self, other):
        if not isinstance(other, SplitGraph):
            return NotImplemented
        return self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)


def hs_index(seq: DegreeSequence) -> int:
    """The largest index m with d_m >= m - 1 (1-based)."""
    m = 1
    for i, d in enumerate(seq.degrees, start=1):
        if d >= i - 1:
            m = i
    return m


def is_split_sequence(seq: DegreeSequence) -> SplitVerdict:
    """Hammer-Simeone split test; requires a graphic input.

    When the verdict is split, every realization of the sequence is a split
    graph; when it is not, none is.
    """
    if not is_graphic(seq).graphic:
        raise NotGraphic(f"{seq} is not graphic")
    degs = seq.degrees
    m = hs_index(seq)
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return SplitVerdict(is_split=(lhs == rhs), m=m, lhs=lhs, rhs=rhs)


def split_partition(graph: LabeledGraph) -> SplitGraph:
    """Extract a clique/independent partition from a split graph.

    The m highest-degree vertices (any tie-break) form a clique and the rest
    an independent set whenever the Hammer-Simeone equality holds.
    """
    verdict = is_split_sequence(graph.degree_sequence())
    if not verdict.is_split:
        raise NotSplit(f"degree sequence {graph.degree_sequence()} is not split")
    order = sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
    clique = frozenset(order[: verdict.m])
    independent = frozenset(order[verdict.m :])
    return SplitGraph(graph=graph, clique=clique, independent=independent)


# ---------------------------------------------------------------------------
# Split witness inside a non-fully-graphic region
# ---------------------------------------------------------------------------

@dataclass
class SplitWitness:
    """A split member of a region, with its explicit realization.

    ``ell`` is the clique size; ``cross_edges`` the number of clique-to-
    independent edges sigma = (n - ell) * c2, distributed round-robin so
    ``alpha`` clique vertices carry ``c + 1`` of them and the rest ``c``.
    """

    sequence: DegreeSequence
    graph: SplitGraph
    ell: int
    cross_edges: int
    c: int
    alpha: int


def _witness_candidates(region: VerySimpleRegion) -> Iterator[SplitWitness]:
    """Explicit split members of a region, by increasing clique size.

    A clique size ell qualifies when c2 <= ell <= c1 and the slack s(ell)
    of ``graphicality._slack`` is negative; a qualifying ell exists whenever
    the region is not fully graphic.  Candidates whose round-robin cross
    edges would collide (breaking simplicity) are skipped.
    """
    n, c1, c2 = region.n, region.c1, region.c2
    for ell in range(max(c2, 1), c1 + 1):
        if _slack(n, c1, c2, ell) >= 0:
            continue
        w = n - ell
        sigma = w * c2
        c, alpha = divmod(sigma, ell)
        pairs = [(i % ell, i % w) for i in range(sigma)]
        if len(set(pairs)) != sigma:
            continue  # duplicate cross edge; construction needs distinct pairs
        values = (ell + c,) * alpha + (ell + c - 1,) * (ell - alpha) + (c2,) * w
        seq = DegreeSequence(values)
        # The qualifying inequality forces ell + c <= c1; keep the guard as a
        # tripwire for membership, which the construction promises.
        if seq.degrees[0] > c1 or seq.sigma % 2 or not membership(seq, region):
            raise ConstructionError(
                f"witness {seq} for ell={ell} falls outside {region}"
            )
        edges = [(u, v) for u in range(ell) for v in range(u + 1, ell)]
        edges += [(u, ell + k) for u, k in pairs]
        graph = LabeledGraph.from_edges(n, edges)
        if graph.degrees() != seq.degrees:
            raise ConstructionError(f"realization degrees diverge for ell={ell}")
        split = SplitGraph(
            graph=graph,
            clique=frozenset(range(ell)),
            independent=frozenset(range(ell, n)),
        )
        yield SplitWitness(
            sequence=seq, graph=split, ell=ell, cross_edges=sigma, c=c, alpha=alpha
        )


def split_witness(region: VerySimpleRegion) -> SplitWitness | None:
    """A split degree sequence inside a non-fully-graphic region.

    Returns None when the region is fully graphic (no witness is promised
    then).  Otherwise returns the candidate with the smallest collision-free
    clique size, which is deterministic.
    """
    if very_simple_region_fully_graphic(region):
        return None
    for witness in _witness_candidates(region):
        return witness
    raise ConstructionError(
        f"no collision-free split witness construction for {region}"
    )


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


def _composed_degrees(split: SplitGraph, other: DegreeSequence) -> DegreeSequence:
    """Degrees of ``split`` o H for any H of degrees ``other``: clique +|H|, H +|clique|."""
    gain, ell = other.n, len(split.clique)
    own = [d + gain if v in split.clique else d for v, d in enumerate(split.graph.degrees())]
    return DegreeSequence(own + [d + ell for d in other.degrees])


@dataclass
class MultiplicativityReport:
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
    return MultiplicativityReport(
        composed_count=counter.count(_composed_degrees(split, other_degrees)).count,
        split_count=counter.count(split.graph.degree_sequence()).count,
        other_count=counter.count(other_degrees).count,
    )


# ---------------------------------------------------------------------------
# Non-stability witness
# ---------------------------------------------------------------------------

def _threshold(degs: tuple[int, ...]) -> bool:
    """Whether non-increasing ``degs`` has exactly one labeled realization, in O(n).

    That holds iff it is threshold (Chvatal-Hammer): peeling off an isolated
    last vertex (entry == dominators peeled) or a dominating first one
    (entry - dominators == vertices left - 1) empties it.
    """
    lo, hi, dominators = 0, len(degs), 0
    while lo < hi:
        if degs[hi - 1] == dominators:
            hi -= 1
        elif degs[lo] - dominators == hi - lo - 1:
            lo += 1
            dominators += 1
        else:
            return False
    return True


@dataclass
class NonstabilityWitness:
    """A uniquely-realizable sequence whose one double-step bump explodes.

    ``base`` is the degree sequence of (split witness) o (staircase m), a
    threshold sequence with exactly one realization (``unique_verified`` is
    always True).  ``perturbed`` adds 1 to the images of the staircase's two
    bump positions; its count grows exponentially in m, defeating any
    polynomial stability bound along the family.  Counts only with ``verify``.
    """

    base: DegreeSequence
    perturbed: DegreeSequence
    m: int
    witness: SplitWitness
    unique_verified: bool
    base_count: int | None = None
    perturbed_count: int | None = None

    @property
    def composed_graph(self) -> LabeledGraph:
        """The realization of ``base``, built anew on each access (O(n'^2) edges)."""
        return tyshkevich_compose(self.witness.graph, staircase_realization(self.m))


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
    the staircase index is m = n_prime - n.  The first threshold split
    witness candidate is used (ConstructionError if none is), so ``base`` is
    threshold too; this is arithmetic at any n, and only ``verify`` counts.
    """
    region = VerySimpleRegion(n, c1, c2)
    if n_prime <= n:
        raise InvalidInput(f"n_prime must exceed n, got {n_prime} <= {n}")
    if very_simple_region_fully_graphic(region):
        return None
    m = n_prime - n
    for chosen in _witness_candidates(region):
        if _threshold(chosen.sequence.degrees):
            break
    else:
        raise ConstructionError(f"no uniquely realizable split witness in {region}")

    # The bump is the staircase's own, at its positions m and 2m.
    base = _composed_degrees(chosen.graph, staircase_sequence(m))
    perturbed = _composed_degrees(chosen.graph, bumped_staircase_sequence(m))

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
