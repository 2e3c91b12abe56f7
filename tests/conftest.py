"""Shared oracles and fixtures.

The oracles here deliberately avoid the package's algorithms so they can
arbitrate them: the census walks every edge subset of the complete graph
(Gray code, one edge toggled per step) and tallies positional degree
vectors, and the split oracle tries all 2^n clique/independent partitions.
``_threshold`` is the textbook peeling test for threshold sequences.
``switch_component`` is the one helper that runs package code: it searches
the realizations that the chain's own move engine reaches, for comparison
with the exact count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

from degseq import LabeledGraph, RealizationCounter, havel_hakimi_graph
from degseq import mcmc


# Edge lists that no graph on vertices 0..3 has; the graph's constructor and
# the CLI's own check in ``cmd_enumerate`` must refuse each one.
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
    """How many realizations of ``seq`` the chain's engine ``mcmc._switch``
    reaches from the Havel-Hakimi start, along both re-pairings of every
    pair of edges; a connected switch graph gives the exact count."""
    start = havel_hakimi_graph(seq)
    seen = {start.adj}
    frontier = [(start.adj, start.edges())]
    pairs = itertools.combinations(range(len(start.edges())), 2)
    moves = [(i, j, flip) for i, j in pairs for flip in (0, 1)]
    while frontier:
        adj, edges = frontier.pop()
        work_adj, work_edges = list(adj), list(edges)
        for i, j, flip in moves:
            if mcmc._switch(work_adj, work_edges, i, j, flip):
                key = tuple(work_adj)
                if key not in seen:
                    seen.add(key)
                    frontier.append((key, tuple(work_edges)))
                work_adj[:] = adj
                work_edges[:] = edges
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
