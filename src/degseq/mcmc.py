"""Switch Markov chain over the realizations of a graphic degree sequence.

One step draws an unordered pair of distinct edges (a,b), (c,d) and one of
its two re-pairings, (a,c), (b,d) or (a,d), (b,c), and makes it when all four
endpoints are distinct and both new pairs are non-edges; otherwise the chain
stays put.  The proposal is symmetric, every step preserves the degree
sequence exactly, and the stationary distribution is uniform over the
labeled realizations.

One loop, :func:`_run`, walks the chain: it makes each move on neighbour
bitsets plus the sorted edge list, and keeps the edges' text in step with
the list.  These moves are the 2-switches, which join all realizations (see
:func:`switch_connected`).

The moves come from a standard stream, the same on every platform and
Python version.  Block b of seed s is the first ``8 * DRAW_BLOCK`` bytes of
SHAKE128 over the ASCII text ``"s/b"`` (``hashlib.shake_128(b"%d/%d" % (s,
b))``), read as little-endian unsigned 64-bit words; the stream is blocks
0, 1, 2, ... in order, whatever the number of steps.  With m edges, sorted,
a step takes the next word w below ``2**64 - 2**64 % (m(m-1))`` (larger
words are skipped, so every draw is exactly uniform), sets
r = w % (m(m-1)) and i, j' = divmod(r, m - 1).  When j' >= i, edges i and
j' + 1, read as (a, b) and (c, d), become (a, c) and (b, d); otherwise
edges i and j' do, edge i read as (b, a).  The move is made when the four
endpoints are distinct and neither new pair is an edge.  The order of the
pair picks the re-pairing, so the m(m-1) values of r give each unordered
pair with each re-pairing once.

The starting state is built greedily (Havel-Hakimi): repeatedly satisfy the
vertex of largest residual degree from the next-largest residuals.  The
Erdos-Gallai gate (``graphicality.require_graphic``) runs first, and the
greedy step needs no check of its own: on a graphic sequence it never fails
(Havel 1955, Hakimi 1962).  The build is charged n * n against
``MCMC_MAX_WORK``, the charge ``sample`` makes for its start.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator

# CPython's own SHAKE, which hashlib falls back to, imports in about 1 ms and
# 0.3 MB; hashlib loads OpenSSL (5 ms, 4 MB).  Both give the same stream.
try:
    from _sha3 import shake_128
except ImportError:
    from hashlib import shake_128

from .core import _EDGE_LABELS, DegreeSequence, LabeledGraph, Record, _read_integers
from .errors import InvalidInput, check_limit
from .graphicality import require_graphic

RNG_ALGORITHM = "shake128"
# 64-bit words per block of the move stream; part of the stream's definition.
DRAW_BLOCK = 4096
_WORDS = 1 << 64


def _block(seed: int, index: int, start: int, stop: int) -> array:
    words = array("Q", shake_128(b"%d/%d" % (seed, index)).digest(8 * stop)[8 * start:])
    if sys.byteorder == "big":
        words.byteswap()
    return words


def make_rng(seed: int) -> Iterator[int]:
    """The chain's move stream for ``seed``: an endless iterator of 64-bit
    words (layout in the module docstring; ``RNG_ALGORITHM`` names it)."""
    _check_seed(seed)
    return _words(seed, DRAW_BLOCK)


def _words(seed: int, need: int) -> Iterator[int]:
    """``make_rng(seed)``, hashing only the first ``need`` words of a block
    until a draw runs past them (SHAKE128's shorter outputs are prefixes)."""
    cuts = sorted({0, min(need, DRAW_BLOCK), DRAW_BLOCK})
    parts = ((seed, index, *cut) for index in itertools.count() for cut in zip(cuts, cuts[1:]))
    return itertools.chain.from_iterable(itertools.starmap(_block, parts))


def _check_seed(seed: int) -> None:
    """The seed domain: any integer >= 0."""
    if not isinstance(seed, int) or seed < 0:
        raise InvalidInput(f"seed must be an integer >= 0, got {seed!r}")


class ChainConfig(Record, frozen=True):
    seed: int
    steps: int
    burn_in: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        _read_integers(self, InvalidInput, ("steps", "burn_in"))
        if self.steps < 0 or self.burn_in < 0:
            raise InvalidInput("steps and burn_in must be >= 0")


def havel_hakimi_graph(seq: DegreeSequence) -> LabeledGraph:
    """A deterministic realization with vertex i carrying degree d_i.  Raises
    TooLarge for n * n above ``MCMC_MAX_WORK``, then NotGraphic, before any build."""
    n = seq.n
    check_limit("MCMC_MAX_WORK", n * n)
    require_graphic(seq)
    # (-residual, label) sorts largest residual first, lowest label among ties.
    residual = [(-d, v) for v, d in enumerate(seq.degrees)]
    edges = []
    while residual:
        residual.sort()
        d, v = residual.pop(0)
        if not d:
            break
        taken = residual[:-d]
        residual[:-d] = [(r + 1, u) for r, u in taken]
        edges += [(u, v) if u < v else (v, u) for _, u in taken]
    edges.sort()
    return LabeledGraph(n, edges)


def _run(graph: LabeledGraph, labels: list[str], text: str, words: Iterator[int],
         burn_in: int, steps: int) -> tuple[list[tuple[int, int]], str, Counter, int]:
    """Walk ``burn_in + steps`` steps from ``graph``, drawing from ``words``;
    the one code that makes the switch move (module docstring).

    ``labels`` are the start's edge labels, edited in place as the walk goes,
    and ``text`` their join.  Returns the final sorted edge list, its text,
    the histogram of the ``steps`` recorded states, keyed on edge text, and
    the number of moves made.  A state's key is joined once, when it is left
    or at the end, and only if some step recorded it; the final text is
    ``text`` unless a move was made.
    """
    edges = list(graph.edges())
    histogram: Counter = Counter()
    get = histogram.get  # a new key skips Counter.__missing__, which is Python code
    m = len(edges)
    accepted, entered = 0, 0  # the state has been recorded since step entered
    if m >= 2 and burn_in + steps:
        adj = list(graph.adj)
        m1 = m - 1
        moves = m * m1
        limit = _WORDS - _WORDS % moves
        for step, w in zip(range(-burn_in, steps), words):
            while w >= limit:
                w = next(words)
            # edges[i] = (a, b) and edges[j] = (c, d) become (a, c) and (b, d);
            # j' < i reads edges[i] as (b, a), the pair's other re-pairing.
            i, j = divmod(w % moves, m1)
            if j >= i:
                j += 1
                a, b = edges[i]
            else:
                b, a = edges[i]
            c, d = edges[j]
            if a == c or a == d or b == c or b == d or adj[a] >> c & 1 or adj[b] >> d & 1:
                continue
            adj[a] ^= 1 << b | 1 << c
            adj[b] ^= 1 << a | 1 << d
            adj[c] ^= 1 << d | 1 << a
            adj[d] ^= 1 << c | 1 << b
            accepted += 1
            if step > entered:
                key = ",".join(labels)
                histogram[key] = get(key, 0) + step - entered
            entered = step if step > 0 else 0
            if i < j:
                i, j = j, i
            del edges[i], edges[j], labels[i], labels[j]
            e = (a, c) if a < c else (c, a)
            f = (b, d) if b < d else (d, b)
            if f < e:
                e, f = f, e
            p = bisect_left(edges, e)
            edges.insert(p, e)
            labels.insert(p, _EDGE_LABELS[e])
            q = bisect_left(edges, f, p + 1)
            edges.insert(q, f)
            labels.insert(q, _EDGE_LABELS[f])
    if accepted:
        text = ",".join(labels)
    if steps > entered:
        histogram[text] = get(text, 0) + steps - entered
    return edges, text, histogram, accepted


class SampleResult(Record):
    final: LabeledGraph
    histogram: Counter
    metadata: dict
    final_text: str


def sample(seq: DegreeSequence, config: ChainConfig) -> SampleResult:
    """Run the chain from the greedy start and histogram the visited states.

    A state's key is its canonical edge text (``edges_to_text``, e.g.
    ``"1-2,3-4"``), so every key is a realization of ``seq``.  Only the
    ``steps`` states after burn-in are recorded, one per step, so the
    histogram total equals ``config.steps``; ``final`` is the state after the
    last step and ``final_text`` its edge text.  Moves come from
    ``make_rng(config.seed)`` and are made by :func:`_run` (see the module
    docstring).  Work (burn_in + steps) * (m + 4) + n * n,
    for m edges on n vertices (the chain's steps, then the greedy start),
    above ``MCMC_MAX_WORK`` raises TooLarge before the start graph is built.
    """
    work = (config.burn_in + config.steps) * (seq.sigma // 2 + 4) + seq.n * seq.n
    check_limit("MCMC_MAX_WORK", work)
    start = havel_hakimi_graph(seq)
    labels = list(map(_EDGE_LABELS.__getitem__, start.edges()))
    start_text = ",".join(labels)  # before the walk edits the labels
    words = _words(config.seed, config.burn_in + config.steps)  # one a step, unless rejected
    edges, text, histogram, accepted = _run(start, labels, start_text, words,
                                            config.burn_in, config.steps)
    metadata = {
        "rng": RNG_ALGORITHM,
        "seed": config.seed,
        "steps": config.steps,
        "burn_in": config.burn_in,
        "accepted": accepted,
        "start": start_text,
    }
    final = LabeledGraph(seq.n, edges) if accepted else start
    return SampleResult(final=final, histogram=histogram, metadata=metadata, final_text=text)


def switch_connected(seq: DegreeSequence) -> bool:
    """Whether the switch graph on the realizations of ``seq`` is connected:
    always, once there is one.  Raises NotGraphic when there is none, as
    decided by Erdos-Gallai (:func:`require_graphic`); otherwise returns True.

    A 2-switch replaces edges ab, cd with non-edges ac, bd on four
    distinct vertices.  Any two realizations of one degree sequence are
    joined by 2-switches (Havel 1955, Hakimi 1962; in switch-graph form,
    Taylor 1981, "Constrained switchings in graphs").  The chain's moves
    are exactly the 2-switches: an unordered pair of edges with one of its
    two re-pairings, made when the four endpoints are distinct and both new
    pairs are non-edges, and each is drawn with positive probability.  So
    no search is needed, and none is made.
    """
    require_graphic(seq)
    return True


def tv_distance_to_uniform(histogram: Counter, states: int, total: int) -> float:
    """Total variation distance between the visits of ``total`` recorded steps
    and the uniform distribution on the ``states`` realizations (the exact
    count).  Every key must be a realization, as ``sample``'s keys are, so
    the unvisited ones weigh (states - len(histogram)) / states."""
    if total <= 0 or states <= 0 or len(histogram) > states:
        raise InvalidInput("need a positive sample size and a state count >= max(1, keys)")
    uniform = 1.0 / states
    dist = math.fsum(abs(v / total - uniform) for v in histogram.values())
    return 0.5 * (dist + (states - len(histogram)) / states)
