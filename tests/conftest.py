"""Shared oracles and fixtures.

The oracles here deliberately avoid the package's algorithms so they can
arbitrate them: the census walks every edge subset of the complete graph
(Gray code, one edge toggled per step) and tallies positional degree
vectors, and the split oracle tries all 2^n clique/independent partitions.
``_threshold`` is the textbook peeling test for threshold sequences.
``switch_component`` searches the realizations that the chain's own move
engine reaches, for comparison with the exact count.  ``greedy_split_graph``
and ``half_graph`` build test inputs: a split graph with its partition, and
the staircase sequence's one realization.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from degseq import (
    LabeledGraph,
    RealizationCounter,
    SplitGraph,
    havel_hakimi_graph,
    is_split_sequence,
)
from degseq import mcmc


# Edge lists that no graph on vertices 0..3 has; the graph's constructor must
# refuse each one.  (The CLI's ``enumerate`` reads masks, not edge lists;
# ``tests/test_cli.py`` feeds its check malformed masks.)
MALFORMED_EDGE_LISTS = [
    [(0, 1), (2, 4)],  # a vertex outside 0..3
    [(1, 0), (2, 3)],  # u > v
    [(0, 0), (2, 3)],  # a self-loop
    [(-1, 1), (2, 3)],  # a negative label
    [(0, 1), (0, 1)],  # an edge twice
    [(2, 3), (0, 1)],  # out of order
]


@lru_cache(maxsize=None)
def degree_census(n: int) -> dict[tuple[int, ...], int]:
    """Positional degree vector -> number of labeled graphs, for all graphs on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    deg = [0] * n
    out = {tuple(deg): 1}
    prev = 0
    for k in range(1, 1 << m):
        code = k ^ (k >> 1)
        bit = (code ^ prev).bit_length() - 1
        prev = code
        i, j = pairs[bit]
        delta = 1 if code >> bit & 1 else -1
        deg[i] += delta
        deg[j] += delta
        key = tuple(deg)
        out[key] = out.get(key, 0) + 1
    return out


def brute_force_count(degrees) -> int:
    """Per-sequence oracle: test every edge subset of K_n directly."""
    degrees = tuple(degrees)
    n = len(degrees)
    assert n <= 6, "direct subset enumeration is for n <= 6"
    pairs = list(itertools.combinations(range(n), 2))
    hits = 0
    for size in range(len(pairs) + 1):
        for subset in itertools.combinations(pairs, size):
            deg = [0] * n
            for u, v in subset:
                deg[u] += 1
                deg[v] += 1
            if tuple(deg) == degrees:
                hits += 1
    return hits


def all_sorted_sequences(n: int):
    """Every non-increasing length-n sequence with entries in [0, n-1]."""
    return itertools.combinations_with_replacement(range(n - 1, -1, -1), n)


def switch_component(seq) -> int:
    """How many realizations of ``seq`` the chain's walk ``mcmc._run``
    reaches from the Havel-Hakimi start, one-step walks fed each of the
    m(m-1) words r < m(m-1), which make both re-pairings of every pair of
    edges; a connected switch graph gives the exact count."""
    start = havel_hakimi_graph(seq)
    m = len(start.edges())
    seen = {start.edges()}
    frontier = [start]
    while frontier:
        graph = frontier.pop()
        labels = [f"{u + 1}-{v + 1}" for u, v in graph.edges()]
        text = ",".join(labels)
        for r in range(m * (m - 1)):
            edges, _, _, accepted = mcmc._run(graph, list(labels), text, iter([r]), 1, 0)
            if accepted and tuple(edges) not in seen:
                seen.add(tuple(edges))
                frontier.append(LabeledGraph(graph.n, edges))
    return len(seen)


def has_split_partition(graph: LabeledGraph) -> bool:
    """Whether some vertex subset is a clique with independent complement."""
    n = graph.n
    adj = graph.adj
    full = (1 << n) - 1
    for s in range(1 << n):
        ok = True
        rem = s
        while rem:
            u = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if s & ~(adj[u] | (1 << u)):
                ok = False
                break
        if not ok:
            continue
        comp = full & ~s
        rem = comp
        while rem:
            u = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if adj[u] & comp:
                ok = False
                break
        if ok:
            return True
    return False


def greedy_split_graph(seq) -> SplitGraph:
    """The greedy realization of a split ``seq`` with its partition, as
    ``cli.cmd_tyshkevich`` builds it: vertex v has the v-th largest entry, so
    the clique is labels 0..m-1, m the Hammer-Simeone index."""
    m = is_split_sequence(seq).m
    return SplitGraph(havel_hakimi_graph(seq), frozenset(range(m)), frozenset(range(m, seq.n)))


def half_graph(m: int) -> LabeledGraph:
    """The one realization of ``staircase_sequence(m)``: a clique on 0..m-1,
    and vertex m + t joined to clique vertices 0..m-t-1."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges += [(i, m + t) for t in range(m) for i in range(m - t)]
    return LabeledGraph(2 * m, sorted(edges))


def _threshold(degs) -> bool:
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


@pytest.fixture(scope="session")
def counter() -> RealizationCounter:
    """One shared memoized counter for the whole run."""
    return RealizationCounter()
