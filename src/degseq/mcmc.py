"""Switch Markov chain over the realizations of a graphic degree sequence.

One step draws an ordered pair of distinct edges (a,b), (c,d), each in a
random orientation, and replaces them with (a,c), (b,d) when all four
endpoints are distinct and both replacements are non-edges; otherwise the
chain stays put.  The proposal is symmetric, every step preserves the degree
sequence exactly, and the stationary distribution is uniform over the
labeled realizations.

One engine, :func:`_switch`, makes the move on neighbour bitsets plus the
sorted edge list, for :func:`sample`, :func:`switch_step` and the search in
:func:`switch_connected`; :func:`sample` replays its list edits on the edges'
text.  A step draws one r uniform on [0, 4m(m-1)) for m edges, ``DRAW_BLOCK``
at a time: r % 4 is the orientation and r // 4 is i * (m - 1) + j' with
j = j' + (j' >= i).  This replaced four scalar draws per step, so a seed
gives a different (still fixed) chain than before.

The starting state is built greedily (Havel-Hakimi): repeatedly satisfy the
vertex of largest residual degree from the next-largest residuals.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import _EDGE_LABELS, DegreeSequence, LabeledGraph, edges_to_text
from .enumeration import RealizationCounter, count_realizations
from .errors import InvalidInput, NotGraphic, TooLarge

RNG_ALGORITHM = "pcg64"
# Steps drawn per generator call in ``sample``: bounds the draw buffers
# (a few arrays of this length) whatever the number of steps.
DRAW_BLOCK = 4096
# Most realizations ``switch_connected`` searches; it keeps every state it reaches.
SWITCH_MAX_STATES = 20_000


def make_rng(seed: int) -> np.random.Generator:
    """The chain's generator; the algorithm name is part of the contract."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class ChainConfig:
    seed: int
    steps: int
    burn_in: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.burn_in < 0:
            raise InvalidInput("steps and burn_in must be >= 0")


def havel_hakimi_graph(seq: DegreeSequence) -> LabeledGraph:
    """A deterministic realization with vertex i carrying degree d_i."""
    n = seq.n
    if seq.degrees[0] > n - 1:
        raise NotGraphic(f"{seq} has an entry above n - 1")
    residual = [(d, v) for v, d in enumerate(seq.degrees)]
    adj = [0] * n
    while True:
        residual.sort(key=lambda t: (-t[0], t[1]))
        d, v = residual[0]
        if d == 0:
            break
        if d > len(residual) - 1:
            raise NotGraphic(f"{seq} is not graphic")
        residual[0] = (0, v)
        for idx in range(1, d + 1):
            r, u = residual[idx]
            if r == 0:
                raise NotGraphic(f"{seq} is not graphic")
            residual[idx] = (r - 1, u)
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return LabeledGraph(n, tuple(adj))


def _moves(rng: np.random.Generator, m: int, steps: int) -> Iterator[tuple[int, int, int]]:
    """``steps`` moves (i, j, orientation), uniform over ordered pairs of
    distinct edge indices times the four orientations; none when m < 2."""
    while steps > 0 and m >= 2:
        size = min(steps, DRAW_BLOCK)
        steps -= size
        pair, flip = np.divmod(rng.integers(4 * m * (m - 1), size=size), 4)
        i, j = np.divmod(pair, m - 1)
        j += j >= i
        yield from zip(i.tolist(), j.tolist(), flip.tolist())


def _switch(adj: list[int], edges: list[tuple[int, int]], i: int, j: int, flip: int) -> tuple:
    """The switch move, in place: edges[i] = (a,b) and edges[j] = (c,d),
    reversed by bits 0 and 1 of ``flip``, become (a,c) and (b,d) unless an
    endpoint repeats or either is already an edge.  ``edges`` stays sorted.
    Returns () if not, else the edits (hi, lo, p, q): del edges[hi], edges[lo]
    (hi > lo), then the new edges inserted at p, then q (p < q)."""
    a, b = edges[i]
    c, d = edges[j]
    if a == c or a == d or b == c or b == d:  # shared by every orientation
        return ()
    if flip & 1:
        a, b = b, a
    if flip & 2:
        c, d = d, c
    if adj[a] >> c & 1 or adj[b] >> d & 1:
        return ()
    adj[a] ^= 1 << b | 1 << c
    adj[b] ^= 1 << a | 1 << d
    adj[c] ^= 1 << d | 1 << a
    adj[d] ^= 1 << c | 1 << b
    if i < j:
        i, j = j, i
    del edges[i]
    del edges[j]
    e = (a, c) if a < c else (c, a)
    f = (b, d) if b < d else (d, b)
    if f < e:
        e, f = f, e
    p = bisect_left(edges, e)
    edges.insert(p, e)
    q = bisect_left(edges, f, p + 1)
    edges.insert(q, f)
    return i, j, p, q


def switch_step(graph: LabeledGraph, rng: np.random.Generator) -> LabeledGraph:
    """One chain step.  Returns the input graph unchanged on a lazy step or
    when fewer than two edges exist (the chain is then trivially stationary)."""
    edges, adj = list(graph.edges()), list(graph.adj)
    if len(edges) < 2 or not _switch(adj, edges, *next(_moves(rng, len(edges), 1))):
        return graph
    return LabeledGraph(graph.n, tuple(adj))


@dataclass
class SampleResult:
    final: LabeledGraph
    histogram: Counter
    metadata: dict = field(default_factory=dict)


def sample(seq: DegreeSequence, config: ChainConfig) -> SampleResult:
    """Run the chain from the greedy start and histogram the visited states.

    A state's key is its canonical edge text (``edges_to_text``, e.g.
    ``"1-2,3-4"``), so every key is a realization of ``seq``.  Only the
    ``steps`` states after burn-in are recorded, one per step, so the
    histogram total equals ``config.steps``; ``final`` is the state after the
    last step.  Moves are drawn in blocks (see the module docstring); a list
    of edge labels follows the edge list, and a key is joined from it only
    when a step changes the state.
    """
    start = havel_hakimi_graph(seq)
    edges, adj = list(start.edges()), list(start.adj)
    moves = _moves(make_rng(config.seed), len(edges), config.burn_in + config.steps)
    accepted = 0
    for i, j, flip in itertools.islice(moves, config.burn_in):
        accepted += bool(_switch(adj, edges, i, j, flip))
    labels = list(map(_EDGE_LABELS.__getitem__, edges))
    histogram: Counter = Counter()
    key, entered = ",".join(labels), 0  # the state is key since recorded step entered
    for step, (i, j, flip) in enumerate(moves):
        moved = _switch(adj, edges, i, j, flip)
        if moved:
            accepted += 1
            if step > entered:
                histogram[key] += step - entered
            hi, lo, p, q = moved
            del labels[hi], labels[lo]
            labels.insert(p, _EDGE_LABELS[edges[p]])
            labels.insert(q, _EDGE_LABELS[edges[q]])
            key, entered = ",".join(labels), step
    if config.steps > entered:
        histogram[key] += config.steps - entered
    metadata = {
        "rng": RNG_ALGORITHM,
        "seed": config.seed,
        "steps": config.steps,
        "burn_in": config.burn_in,
        "accepted": accepted,
        "start": edges_to_text(start.edges()),
    }
    final = LabeledGraph(seq.n, tuple(adj))
    return SampleResult(final=final, histogram=histogram, metadata=metadata)


# ---------------------------------------------------------------------------
# State-space structure at desk scale
# ---------------------------------------------------------------------------

def switch_connected(seq: DegreeSequence, max_n: int | None = None) -> bool:
    """Whether the switch graph on all realizations of ``seq`` is connected.

    A graph search from the Havel-Hakimi realization along every valid
    switch (both pairings of each pair of edges), until it has reached as
    many states as the exact realization count.  Raises NotGraphic when
    there are none, and TooLarge when n exceeds ``max_n`` (default: the
    counter's limit) or the count exceeds ``SWITCH_MAX_STATES``.
    """
    counter = None if max_n is None else RealizationCounter(max_n=max_n)
    total = count_realizations(seq, counter).count
    if total == 0:
        raise NotGraphic(f"{seq} has no realization")
    if total > SWITCH_MAX_STATES:
        raise TooLarge(f"{total} realizations exceed SWITCH_MAX_STATES = {SWITCH_MAX_STATES}")
    start = havel_hakimi_graph(seq)
    seen = {start.adj}
    frontier = [(start.adj, start.edges())]
    pairs = itertools.combinations(range(len(start.edges())), 2)
    moves = [(i, j, flip) for i, j in pairs for flip in (0, 1)]  # the two re-pairings of i, j
    while frontier and len(seen) < total:
        adj, edges = frontier.pop()
        work_adj, work_edges = list(adj), list(edges)
        for i, j, flip in moves:
            if _switch(work_adj, work_edges, i, j, flip):
                key = tuple(work_adj)
                if key not in seen:
                    seen.add(key)
                    frontier.append((key, tuple(work_edges)))
                work_adj[:] = adj
                work_edges[:] = edges
    return len(seen) == total


def tv_distance_to_uniform(histogram: Counter, states: int, total: int) -> float:
    """Total variation distance between the visits of ``total`` recorded steps
    and the uniform distribution on the ``states`` realizations (the exact
    count).  Every key must be a realization, as ``sample``'s keys are, so
    the unvisited ones weigh (states - len(histogram)) / states."""
    if total <= 0 or states <= 0 or len(histogram) > states:
        raise InvalidInput("need a positive sample size and a state count >= max(1, keys)")
    uniform = 1.0 / states
    dist = sum(abs(v / total - uniform) for v in histogram.values())
    return 0.5 * (dist + (states - len(histogram)) / states)
