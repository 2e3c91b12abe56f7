"""Seeded op streams for the three benchmark workloads.

An op is ``{"argv": [...], "p": {...}}``: the argument list handed to
``degseq.cli.main`` and the parameters the oracle needs to check the answer.
Each stream is endless and made from the seed alone.  It repeats a fixed
cycle of slots; a slot fixes the op kind, and the sizes come from a fixed
schedule per kind, so every seed runs the same mix of kinds and sizes in the
same order.  The seed picks everything else: the graphs, the region bounds
and sums, the chain seeds.  Op cost grows steeply with size, so a seeded
size would make throughput differ from seed to seed by more than any change
worth detecting.

Nothing here imports degseq: the program sees only the generated argv.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Iterator

import oracle

# The library's counting limit at its default settings.  mcmc ops above it
# skip the exact state-space report; the oracle checks that they do.
COUNT_LIMIT = 16


def random_graph_degrees(rng: random.Random, n: int, density: float) -> list[int]:
    """Degrees of a uniform random graph on n vertices with round(density * C(n,2)) edges."""
    pairs = n * (n - 1) // 2
    # row_start[i] is the index of pair (i, i+1) in row-major order.
    row_start = [0]
    for i in range(n - 1):
        row_start.append(row_start[-1] + n - 1 - i)
    deg = [0] * n
    for t in rng.sample(range(pairs), round(density * pairs)):
        i = bisect.bisect_right(row_start, t) - 1
        j = i + 1 + t - row_start[i]
        deg[i] += 1
        deg[j] += 1
    return sorted(deg, reverse=True)


def _text(degs) -> str:
    return ",".join(str(d) for d in sorted(degs, reverse=True))


def _op(argv: list, **params) -> dict:
    return {"argv": ["--json"] + [str(a) for a in argv], "p": params}


# ---------------------------------------------------------------------------
# regions: Erdos-Gallai, leg and the sweep's grid classification
# ---------------------------------------------------------------------------

def _sweep(n, with_sigma=False):
    argv = ["sweep", "--n-min", n, "--n-max", n] + (["--with-sigma"] if with_sigma else [])
    return _op(argv, n=n, with_sigma=with_sigma)


def _very_simple(rng, n, graphic: bool):
    while True:
        c1 = rng.randint(n // 2, n - 1)
        c2 = c1 - rng.randint(n // 8, n // 4)
        if oracle.very_simple_fully_graphic(n, c1, c2) == graphic:
            return _op(["region", "--n", n, "--c1", c1, "--c2", c2], n=n, c1=c1, c2=c2)


def _fixed_sum(rng, n, graphic: bool):
    while True:
        c1 = rng.randint(n // 4, n - 1)
        c2 = rng.randint(0, c1)
        sigma = rng.randint(n * c2, n * c1)
        # Make the sum even without leaving [n*c2, n*c1]; every n here is even.
        sigma += sigma % 2 if sigma < n * c1 else -(sigma % 2)
        if oracle.fixed_sum_fully_graphic(n, sigma, c1, c2) == graphic:
            return _op(["region", f"n={n},sigma={sigma},c1={c1},c2={c2}"],
                       n=n, sigma=sigma, c1=c1, c2=c2)


def _check(rng, n, tv=False, bump=False):
    degs = random_graph_degrees(rng, n, rng.uniform(0.05, 0.5))
    if bump:
        # Raise the largest degrees so that an early inequality may fail.
        for i in range(rng.randint(1, 4)):
            degs[i] = min(n - 1, degs[i] + n // 4)
        if sum(degs) % 2:
            degs[-1] += 1
    argv = ["check", _text(degs)] + (["--tv"] if tv else [])
    return _op(argv, degrees=degs, tv=tv)


def regions(rng: random.Random) -> Iterator[dict]:
    sweep_n = itertools.cycle((8, 10, 12, 14, 16, 18, 20))
    sigma_sweep_n = itertools.cycle((8, 9, 10, 11, 12))
    region_n = itertools.cycle((20, 25, 30, 35, 40, 45, 50, 60)).__next__
    fixed_n = itertools.cycle((100, 250, 400, 550, 700, 850, 1000, 1500)).__next__
    check_n = itertools.cycle((100, 200, 300, 400, 500, 600, 700, 800)).__next__
    for sweep, sigma_sweep in zip(sweep_n, sigma_sweep_n):
        yield _sweep(sweep)
        yield _very_simple(rng, region_n(), True)
        yield _check(rng, check_n())
        yield _fixed_sum(rng, fixed_n(), True)
        yield _sweep(sigma_sweep, with_sigma=True)
        yield _very_simple(rng, region_n(), False)
        yield _check(rng, check_n(), tv=True)
        yield _fixed_sum(rng, fixed_n(), False)
        yield _very_simple(rng, region_n(), True)
        yield _check(rng, check_n(), bump=True)
        yield _fixed_sum(rng, fixed_n(), True)
        yield _very_simple(rng, region_n(), False)


# ---------------------------------------------------------------------------
# counting: the memoised realization counter and what is built on it
# ---------------------------------------------------------------------------

def _graphic_degrees(rng, n, lo=0.25, hi=0.6):
    return random_graph_degrees(rng, n, rng.uniform(lo, hi))


def _split_degrees(rng, ell, w):
    """Degrees of a random split graph: a clique of ell, w independent vertices."""
    deg = [ell - 1] * ell + [0] * w
    for u in range(ell):
        for v in range(w):
            if rng.random() < 0.5:
                deg[u] += 1
                deg[ell + v] += 1
    return sorted(deg, reverse=True)


# (n, c1, c2) regions whose split witness has a uniquely realizable member,
# so that nonstab-witness succeeds: c2 = 0, or c1 = n - 1 with c2 <= n - 3.
def _nonstab(rng):
    n = rng.randint(4, 8)
    if rng.random() < 0.5:
        c1, c2 = rng.randint(2, n - 1), 0
    else:
        c1, c2 = n - 1, rng.randint(0, n - 3)
    n_prime = rng.randint(n + 1, (14 + n) // 2)
    argv = ["nonstab-witness", "--n", n, "--n-prime", n_prime, "--c1", c1, "--c2", c2,
            "--verify"]
    return _op(argv, n=n, n_prime=n_prime, c1=c1, c2=c2)


def _split_witness(rng):
    while True:
        n = rng.randint(6, 30)
        c1 = rng.randint(1, n - 1)
        c2 = rng.randint(0, c1)
        if not oracle.very_simple_fully_graphic(n, c1, c2):
            return _op(["split-witness", "--n", n, "--c1", c1, "--c2", c2],
                       n=n, c1=c1, c2=c2)


# Count sizes per cycle.  Dense counts at n = 13..14 take up to a second and
# vary tenfold between inputs, so those sizes are drawn sparse.
COUNT_SCHEDULE = ((9, 0.3, 0.6), (12, 0.3, 0.6), (10, 0.3, 0.6), (13, 0.2, 0.35),
                  (11, 0.3, 0.6), (14, 0.2, 0.35))


def counting(rng: random.Random) -> Iterator[dict]:
    seen: set[tuple] = set()

    def count(n, lo, hi):
        while True:
            degs = _graphic_degrees(rng, n, lo, hi)
            if tuple(degs) not in seen:
                seen.add(tuple(degs))
                return _op(["count", _text(degs)], degrees=degs)

    small_n = itertools.cycle((7, 8, 9, 10))
    stair_m = itertools.cycle((3, 4, 5, 6, 7))
    enum_n = itertools.cycle((8, 9, 10, 11, 12))
    for m, n_enum in zip(stair_m, enum_n):
        for _ in range(2):
            for n, lo, hi in COUNT_SCHEDULE:
                yield count(n, lo, hi)
        for kind in ("pmeasure", "family-bounds"):
            degs = _graphic_degrees(rng, next(small_n))
            yield _op([kind, _text(degs)], degrees=degs)
        yield _op(["staircase-family", m], m=m)
        ell = rng.randint(2, 4)
        split = _split_degrees(rng, ell, rng.randint(2, 5))
        other = _graphic_degrees(rng, rng.randint(3, 5))
        yield _op(["tyshkevich", _text(split), _text(other), "--verify"],
                  split=split, other=other)
        yield _nonstab(rng)
        yield _split_witness(rng)
        degs = _graphic_degrees(rng, n_enum)
        limit = rng.randint(50, 300)
        yield _op(["enumerate", _text(degs), "--limit", limit], degrees=degs, limit=limit)


# ---------------------------------------------------------------------------
# sampling: the switch chain, enumeration of the state space and TV
# ---------------------------------------------------------------------------

def _mcmc(rng, degs, steps, burn_in):
    seed = rng.randrange(2**32)
    argv = ["mcmc", _text(degs), "--steps", steps, "--seed", seed, "--burn-in", burn_in]
    return _op(argv, degrees=degs, steps=steps, seed=seed, burn_in=burn_in,
               count_limit=COUNT_LIMIT)


# Small chains: (n, fewest and most realizations, steps).  The exact-TV path
# enumerates every realization, so its cost follows the state-space size;
# the bands keep that size alike across seeds.  Mid chains: (n, steps).
# Steps shrink as n grows so that every op costs about the same at the
# first measured commit: latency quantiles then fall inside one dense
# class of ops rather than in a gap between two.  The mid chains' narrow
# density band keeps their histograms, which set peak memory, alike too.
SMALL_CHAINS = ((6, 20, 60, 5000), (7, 100, 400, 3000), (8, 100, 300, 2500),
                (9, 100, 300, 2500))
MID_CHAINS = ((17, 2400), (23, 1900), (29, 1600), (35, 1200), (40, 1000))


def _small_chain(rng, counter: oracle.Counter, size, burn_in):
    n, fewest, most, steps = size
    while True:
        degs = _graphic_degrees(rng, n, 0.3, 0.6)
        if fewest <= counter.count(degs) <= most:
            return _mcmc(rng, degs, steps, burn_in)


def _mid_chain(rng, size, burn_in):
    n, steps = size
    return _mcmc(rng, _graphic_degrees(rng, n, 0.15, 0.2), steps, burn_in)


def sampling(rng: random.Random) -> Iterator[dict]:
    counter = oracle.Counter()
    small = itertools.cycle(SMALL_CHAINS)
    mid = itertools.cycle(MID_CHAINS)
    for burn_in in itertools.cycle((0, 500)):
        yield _small_chain(rng, counter, next(small), burn_in)
        yield _mid_chain(rng, next(mid), burn_in)
        yield _small_chain(rng, counter, next(small), 500 - burn_in)
        yield _mid_chain(rng, next(mid), 500 - burn_in)


WORKLOADS = {"regions": regions, "counting": counting, "sampling": sampling}


def ops(workload: str, seed: int) -> Iterator[dict]:
    """The endless op stream of ``workload`` for ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
