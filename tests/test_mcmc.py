import hashlib
import itertools
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq import (
    ChainConfig,
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    NotGraphic,
    TooLarge,
    edges_to_text,
    enumerate_realizations,
    havel_hakimi_graph,
    is_graphic,
    make_rng,
    sample,
    switch_connected,
    switch_step,
    tv_distance_to_uniform,
)
from degseq import core, enumeration, mcmc
from conftest import all_sorted_sequences, switch_component


# ---------------------------------------------------------------------------
# Test-only oracles: the switch as the literature states it, on edge sets
# ---------------------------------------------------------------------------

def textbook_switch(edge_set, i, j, flip):
    """Switch the i-th and j-th edges (in sorted order) of ``edge_set``.

    The pair (a,b), (c,d), read reversed per bits 0 and 1 of ``flip``,
    becomes (a,c), (b,d) when the four endpoints are distinct and neither
    new pair is an edge.  Returns the new edge set, or None for no move.
    """
    ordered = sorted(edge_set)
    (a, b), (c, d) = ordered[i], ordered[j]
    if flip & 1:
        a, b = b, a
    if flip & 2:
        c, d = d, c
    new = {tuple(sorted(pair)) for pair in ((a, c), (b, d))}
    if len({a, b, c, d}) < 4 or new & set(edge_set):
        return None
    return (set(edge_set) - {ordered[i], ordered[j]}) | new


def parse_edge_text(key):
    """The edges of a histogram key such as ``"1-2,3-4"``, 0-based, in key order."""
    if not key:
        return ()
    return tuple(tuple(int(v) - 1 for v in pair.split("-")) for pair in key.split(","))


def edge_label(edge):
    return f"{edge[0] + 1}-{edge[1] + 1}"


def tv_over_state_list(histogram, states, total):
    """Total variation to uniform over an explicit list of states: the formula
    the count form replaced, which also charges keys outside ``states``."""
    uniform = 1.0 / len(states)
    state_set = set(states)
    dist = sum(abs(histogram.get(s, 0) / total - uniform) for s in state_set)
    dist += sum(v / total for s, v in histogram.items() if s not in state_set)
    return 0.5 * dist


def stream_words(seed, block_words=4096):
    """The documented move stream, decoded from hashlib alone: block b is
    SHAKE128 over ``"seed/b"``, read as little-endian 64-bit words."""
    for block in itertools.count():
        data = hashlib.shake_128(f"{seed}/{block}".encode()).digest(8 * block_words)
        for k in range(0, len(data), 8):
            yield int.from_bytes(data[k:k + 8], "little")


def replay(seq, seed, burn_in, steps):
    """The states of a ``sample`` run, step by step, re-derived from the
    documented stream and draw layout with the textbook switch.  Returns the
    states after each step and the number of moves made."""
    state = set(havel_hakimi_graph(seq).edges())
    m = len(state)
    words = stream_words(seed)
    trajectory, moved = [], 0
    for _ in range(burn_in + steps):
        if m >= 2:
            n_moves = m * (m - 1)
            w = next(words)
            while w >= 2**64 - 2**64 % n_moves:
                w = next(words)
            i, j = divmod(w % n_moves, m - 1)
            new = textbook_switch(state, i, j + 1, 0) if j >= i else textbook_switch(state, i, j, 1)
            if new is not None:
                state, moved = new, moved + 1
        trajectory.append(tuple(sorted(state)))
    return trajectory, moved


def switch_component_oracle(seq):
    """Enumerate the realizations, then search along textbook switches from
    the first; returns (component size, number of realizations)."""
    states = {frozenset(g.edges()) for g in enumerate_realizations(seq)}
    if not states:
        return 0, 0
    start = next(iter(states))
    seen, frontier = {start}, [start]
    while frontier:
        edges = frontier.pop()
        m = len(edges)
        for i in range(m):
            for j in range(i + 1, m):
                for flip in (0, 1):
                    new = textbook_switch(edges, i, j, flip)
                    if new is not None and frozenset(new) not in seen:
                        seen.add(frozenset(new))
                        frontier.append(frozenset(new))
    assert seen <= states
    return len(seen), len(states)


def key_sorted_greedy(seq) -> LabeledGraph:
    """Reference greedy start: re-sort every residual by (-residual, label)
    through a key function and keep each satisfied pivot in the list."""
    residual = [(d, v) for v, d in enumerate(seq.degrees)]
    edges = []
    while True:
        residual.sort(key=lambda t: (-t[0], t[1]))
        d, v = residual[0]
        if d == 0:
            break
        residual[0] = (0, v)
        for idx in range(1, d + 1):
            r, u = residual[idx]
            residual[idx] = (r - 1, u)
            edges.append((v, u))
    return LabeledGraph.from_edges(seq.n, edges)


class TestHavelHakimi:
    def test_equals_the_key_sorted_greedy_on_every_small_sequence(self):
        for n in range(1, 8):
            for degs in all_sorted_sequences(n):
                seq = DegreeSequence(degs)
                if is_graphic(seq).graphic:
                    assert havel_hakimi_graph(seq) == key_sorted_greedy(seq), degs

    def test_equals_the_key_sorted_greedy_on_random_sequences(self):
        rng = random.Random(25)
        for _ in range(200):
            n = rng.randint(1, 60)
            p = rng.random()
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            seq = LabeledGraph.from_edges(n, edges).degree_sequence()
            assert havel_hakimi_graph(seq) == key_sorted_greedy(seq), seq

    def test_positional_degrees_match(self):
        for degs in ((2, 2, 2), (4, 4, 3, 1, 1, 1, 1, 1), (3, 2, 2, 1), (0, 0)):
            g = havel_hakimi_graph(DegreeSequence(degs))
            assert g.degrees() == degs

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphic):
            havel_hakimi_graph(DegreeSequence([3, 3, 1, 1]))
        with pytest.raises(NotGraphic):
            havel_hakimi_graph(DegreeSequence([4, 1, 1]))


class TestSwitchStep:
    def test_unique_realization_is_fixed(self):
        triangle = havel_hakimi_graph(DegreeSequence([2, 2, 2]))
        rng = make_rng(1)
        for _ in range(50):
            assert switch_step(triangle, rng) == triangle
        # complete graph minus one edge is also uniquely realizable
        near_complete = havel_hakimi_graph(DegreeSequence([3, 3, 2, 2]))
        for _ in range(50):
            stepped = switch_step(near_complete, rng)
            assert stepped.degrees() == (3, 3, 2, 2)
            assert stepped == near_complete

    def test_fewer_than_two_edges_is_stationary(self):
        single = havel_hakimi_graph(DegreeSequence([1, 1]))
        rng = make_rng(1)
        assert switch_step(single, rng) == single

    def test_preserves_degrees_along_walk(self):
        g = havel_hakimi_graph(DegreeSequence([3, 2, 2, 2, 1]))
        want = g.degrees()
        rng = make_rng(99)
        for _ in range(300):
            g = switch_step(g, rng)
            assert g.degrees() == want

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=20, deadline=None)
    def test_degree_preservation_any_seed(self, seed):
        g = havel_hakimi_graph(DegreeSequence([2, 2, 1, 1, 1, 1]))
        rng = make_rng(seed)
        out = switch_step(g, rng)
        assert out.degree_sequence() == g.degree_sequence()

    def test_moves_are_reachable(self):
        # the two pairings of a fixed edge pair must both occur
        start = havel_hakimi_graph(DegreeSequence([1, 1, 1, 1]))
        rng = make_rng(5)
        seen = {start.edges()}
        g = start
        for _ in range(200):
            g = switch_step(g, rng)
            seen.add(g.edges())
        assert len(seen) == 3


class TestSample:
    def test_single_state_histogram(self):
        result = sample(DegreeSequence([2, 2, 2]), ChainConfig(seed=3, steps=100))
        assert len(result.histogram) == 1
        assert sum(result.histogram.values()) == 100

    def test_burn_in_excluded(self):
        result = sample(
            DegreeSequence([1, 1, 1, 1]), ChainConfig(seed=3, steps=50, burn_in=25)
        )
        assert sum(result.histogram.values()) == 50

    def test_deterministic_for_fixed_seed(self):
        cfg = ChainConfig(seed=1234, steps=400)
        a = sample(DegreeSequence([2, 2, 1, 1, 1, 1]), cfg)
        b = sample(DegreeSequence([2, 2, 1, 1, 1, 1]), cfg)
        assert a.histogram == b.histogram
        assert a.final == b.final
        assert a.metadata == b.metadata

    def test_metadata_records_rng(self):
        result = sample(DegreeSequence([1, 1]), ChainConfig(seed=9, steps=5))
        assert result.metadata["rng"] == "shake128"
        assert result.metadata["seed"] == 9

    def test_rejects_non_graphic(self):
        with pytest.raises(NotGraphic):
            sample(DegreeSequence([3, 3, 1, 1]), ChainConfig(seed=0, steps=10))

    def test_config_validation(self):
        with pytest.raises(InvalidInput):
            ChainConfig(seed=0, steps=-1)

    def test_config_rejects_non_integer_counts(self):
        for steps, burn_in in ((2.5, 0), ("2", 0), (2, 1.0), (2, None)):
            with pytest.raises(InvalidInput, match="must be integers"):
                ChainConfig(seed=1, steps=steps, burn_in=burn_in)

    def test_seed_domain(self):
        for seed in (-1, -(2**70), 1.0):
            with pytest.raises(InvalidInput, match="seed"):
                ChainConfig(seed=seed, steps=1)
            with pytest.raises(InvalidInput, match="seed"):
                make_rng(seed)
        for seed in (0, 2**64, 2**130):  # no upper bound
            run = sample(DegreeSequence([1, 1, 1, 1]), ChainConfig(seed=seed, steps=20))
            assert sum(run.histogram.values()) == 20 and run.metadata["seed"] == seed

    def test_work_cap_is_checked_before_the_start_graph(self, monkeypatch):
        # (burn_in + steps) * (m + 4) + n * n with m = 1, n = 2: 14 at the cap
        # runs, and one over it does not.
        monkeypatch.setattr(mcmc, "MCMC_MAX_WORK", 14)
        seq = DegreeSequence([1, 1])
        assert sum(sample(seq, ChainConfig(seed=0, steps=1, burn_in=1)).histogram.values()) == 1

        def no_start(seq):
            raise AssertionError("built a start graph")

        monkeypatch.setattr(mcmc, "havel_hakimi_graph", no_start)
        for cap, steps, burn_in in ((13, 1, 1), (14, 3, 0), (14, 0, 3), (14, 2, 1)):
            monkeypatch.setattr(mcmc, "MCMC_MAX_WORK", cap)
            work = (steps + burn_in) * 5 + 4
            with pytest.raises(TooLarge) as exc:
                sample(seq, ChainConfig(seed=0, steps=steps, burn_in=burn_in))
            assert (exc.value.limit, exc.value.allowed, exc.value.requested) == (
                "MCMC_MAX_WORK", cap, work)
            assert str(exc.value) == (f"MCMC_MAX_WORK exceeded: {work} > {cap} units of work"
                                      " for one chain, (burn_in + steps) * (m + 4) + n * n,"
                                      " or a greedy start, n * n")

    def test_start_graph_is_charged_to_the_work_cap(self):
        # 16,000 ones: one step, but a greedy start of n * n = 2.56e8.
        start = time.perf_counter()
        with pytest.raises(TooLarge) as exc:
            sample(DegreeSequence([1] * 16_000), ChainConfig(seed=0, steps=1))
        assert time.perf_counter() - start < 1
        assert exc.value.requested == 1 * (8_000 + 4) + 16_000 ** 2

    def test_a_zero_step_chain_labels_each_edge_once(self, monkeypatch):
        # 250^300 has 37,500 edges, more than the label memo holds, so each
        # pass over the edges would format every label anew.
        seq = DegreeSequence([250] * 300)
        looked_up = Counter()
        missing = core._EdgeLabels.__missing__

        def counted(labels, edge):
            looked_up[edge] += 1
            return missing(labels, edge)

        core._EDGE_LABELS.clear()
        monkeypatch.setattr(core._EdgeLabels, "__missing__", counted)
        run = sample(seq, ChainConfig(seed=1, steps=0))
        monkeypatch.undo()
        start = havel_hakimi_graph(seq)
        assert len(looked_up) == start.edge_count == 37_500
        assert set(looked_up.values()) == {1}
        assert run.metadata["start"] == edges_to_text(start.edges())
        assert run.final == start

    def test_zero_steps_record_nothing(self):
        seq = DegreeSequence([1, 1, 1, 1])
        for burn_in in (0, 9):
            run = sample(seq, ChainConfig(seed=3, steps=0, burn_in=burn_in))
            assert run.histogram == Counter() and run.metadata["steps"] == 0
        assert switch_connected(seq)  # the state-space report needs no steps
        with pytest.raises(InvalidInput):  # a TV over no recorded step is undefined
            tv_distance_to_uniform(Counter(), 3, 0)


class TestStateSpace:
    def test_matchings_connected(self):
        assert switch_connected(DegreeSequence([1, 1, 1, 1]))

    def test_not_graphic_raises(self):
        with pytest.raises(NotGraphic):
            switch_connected(DegreeSequence([3, 3, 1, 1]))

    def test_tv_distance_uniform_histogram_is_zero(self):
        from collections import Counter

        states = [("a",), ("b",), ("c",)]
        hist = Counter({("a",): 10, ("b",): 10, ("c",): 10})
        assert tv_distance_to_uniform(hist, len(states), 30) == pytest.approx(0.0)

    def test_tv_distance_concentrated_histogram(self):
        from collections import Counter

        states = [("a",), ("b",)]
        hist = Counter({("a",): 30})
        assert tv_distance_to_uniform(hist, len(states), 30) == pytest.approx(0.5)

    def test_matching_frequencies_near_uniform_at_scale(self):
        seq = DegreeSequence([1, 1, 1, 1])
        steps = 100_000
        result = sample(seq, ChainConfig(seed=8, steps=steps))
        assert len(result.histogram) == 3
        for visits in result.histogram.values():
            assert abs(visits / steps - 1 / 3) < 0.05

    def test_tv_shrinks_with_more_steps(self):
        # instances spanning 3 to 18 realizations
        for degs in ((1, 1, 1, 1), (2, 2, 2, 2), (3, 2, 2, 2, 1), (2, 2, 1, 1, 1, 1)):
            seq = DegreeSequence(degs)
            states = [g.edges() for g in enumerate_realizations(seq)]
            assert len(states) <= 50
            distances = []
            for steps in (40, 40000):
                result = sample(seq, ChainConfig(seed=11, steps=steps))
                distances.append(
                    tv_distance_to_uniform(result.histogram, len(states), steps)
                )
            assert distances[1] < distances[0], degs
            assert distances[1] < 0.05, degs


class TestEngineOracle:
    def test_move_matches_textbook_switch(self):
        """Every state, every i != j and both re-pairings, for n <= 6."""
        moves = 0
        for n in range(1, 7):
            for degs in all_sorted_sequences(n):
                for g in enumerate_realizations(DegreeSequence(degs)):
                    edges = g.edges()
                    m = len(edges)
                    for i in range(m):
                        for j in range(m):
                            if i == j:
                                continue
                            for flip in (0, 1):
                                adj, work = list(g.adj), list(edges)
                                changed = mcmc._switch(adj, work, i, j, flip)
                                want = textbook_switch(set(edges), i, j, flip)
                                assert bool(changed) == (want is not None), (degs, edges, i, j, flip)
                                want = sorted(want) if changed else list(edges)
                                assert work == want
                                assert tuple(adj) == LabeledGraph.from_edges(n, want).adj
                                if changed:  # the reported edits keep labels in step
                                    hi, lo, p, q = changed
                                    assert hi > lo and p < q
                                    labels = [edge_label(e) for e in edges]
                                    del labels[hi], labels[lo]
                                    labels.insert(p, edge_label(work[p]))
                                    labels.insert(q, edge_label(work[q]))
                                    assert labels == [edge_label(e) for e in want]
                                moves += 1
        assert moves == 103980  # sum of 2m(m-1) over the 1043 states

    def test_draws_cover_every_move_uniformly(self):
        """On a perfect matching every move is made and gives its own graph,
        so N = m(m-1) consecutive r must reach each (unordered pair,
        re-pairing) exactly once; words at or above the rejection limit are
        skipped."""
        for m in (2, 3, 4, 5):
            start = LabeledGraph.from_edges(2 * m, [(2 * k, 2 * k + 1) for k in range(m)])
            edges = set(start.edges())
            n_moves = m * (m - 1)
            limit = 2**64 - 2**64 % n_moves
            want = Counter()
            for i, j in itertools.combinations(range(m), 2):
                for flip in (0, 1):
                    want[frozenset(textbook_switch(edges, i, j, flip))] += 1
            assert len(want) == n_moves
            for offset in (0, 7 * n_moves, limit - n_moves):
                got = Counter()
                for r in range(offset, offset + n_moves):
                    words = iter([r])
                    got[frozenset(switch_step(start, words).edges())] += 1
                    assert next(words, None) is None  # one word per step
                assert got == want, (m, offset)
            if limit == 2**64:  # N divides 2^64: no word is skipped
                continue
            for r in range(n_moves):  # skipped words leave the draw unchanged
                words = iter([2**64 - 1, limit, r, 0])
                assert switch_step(start, words) == switch_step(start, iter([r]))
                assert list(words) == [0]

    def test_stream_golden_vector(self):
        """The first words of seed 0 and the first of its block 1: they fix
        the hash, the key text, the byte order and the block length."""
        words = list(itertools.islice(make_rng(0), 4098))
        assert words[:3] == [6690533480752639996, 16526409147270037063, 4842030936405344767]
        assert words[4096:] == [6907395727951219478, 17364674377003580700]
        assert words == list(itertools.islice(stream_words(0), 4098))
        assert mcmc.RNG_ALGORITHM == "shake128"

    def test_stream_from_hashlib_without_the_sha3_module(self):
        # A Python built without _sha3 takes SHAKE128 from hashlib: the same words.
        code = ("import itertools, sys; sys.modules['_sha3'] = None\n"
                "sys.path.insert(0, sys.argv[1]); from degseq import mcmc\n"
                "print(mcmc.shake_128.__module__, *itertools.islice(mcmc.make_rng(0), 3))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-I", "-c", code, src],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        module, *words = done.stdout.split()
        assert module != "_sha3"
        assert list(map(int, words)) == list(itertools.islice(stream_words(0), 3))

    @pytest.mark.parametrize("need", [0, 1, 1000, 4095, 4096, 5000])
    def test_sized_stream_is_the_stream(self, need):
        # Hashed in pieces, block by block: still the documented words, across
        # the cut in block 0, the boundary into block 1 and its cut.
        words = list(itertools.islice(mcmc._words(7, need), 2 * 4096 + 3))
        assert words == list(itertools.islice(stream_words(7), 2 * 4096 + 3))

    def test_sample_hashes_only_the_words_it_needs(self, monkeypatch):
        pieces = []
        block = mcmc._block
        monkeypatch.setattr(mcmc, "_block", lambda *part: pieces.append(part[2:]) or block(*part))
        run = sample(DegreeSequence([2] * 9), ChainConfig(seed=1, steps=30, burn_in=10))
        assert sum(run.histogram.values()) == 30
        assert pieces == [(0, 40)]  # no word of this seed's first 40 is rejected


class TestSampleInvariants:
    BLOCK = mcmc.DRAW_BLOCK

    @pytest.mark.parametrize("degs", [(2, 2, 1, 1, 1, 1), (3, 3, 2, 2, 2), (1, 1), (0, 0, 0)])
    @pytest.mark.parametrize("burn_in", [0, 7])
    def test_histogram_final_and_accepted_match_replay(self, degs, burn_in):
        seq = DegreeSequence(degs)
        start = havel_hakimi_graph(seq).edges()
        for steps in (0, 1, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1):
            run = sample(seq, ChainConfig(seed=steps + burn_in, steps=steps, burn_in=burn_in))
            trajectory, moved = replay(seq, steps + burn_in, burn_in, steps)
            visits = Counter({parse_edge_text(k): v for k, v in run.histogram.items()})
            assert sum(run.histogram.values()) == steps
            assert visits == Counter(trajectory[burn_in:])
            for key in visits:
                assert key == tuple(sorted(set(key)))
                assert LabeledGraph.from_edges(seq.n, key).degrees() == seq.degrees
            assert run.final.edges() == (trajectory[-1] if trajectory else start)
            assert run.metadata["accepted"] == moved
            if len(start) < 2:
                assert moved == 0 and set(visits) <= {start}

    def test_switch_step_is_a_one_step_sample(self):
        seq = DegreeSequence([2, 2, 2, 1, 1])
        start = havel_hakimi_graph(seq)
        for seed in range(30):
            run = sample(seq, ChainConfig(seed=seed, steps=1))
            assert switch_step(start, make_rng(seed)) == run.final


class TestSwitchConnectedOracle:
    def test_matches_enumeration_search(self, counter):
        """Every sorted sequence with n <= 6: the engine's component, the
        textbook component and the count agree, and the theorem answers True."""
        for n in range(1, 7):
            for degs in all_sorted_sequences(n):
                seq = DegreeSequence(degs)
                component, states = switch_component_oracle(seq)
                assert counter.count(seq).count == states, degs
                if states == 0:
                    with pytest.raises(NotGraphic):
                        switch_connected(seq)
                    continue
                assert switch_component(seq) == component == states, degs
                assert switch_connected(seq) is True, degs

    def test_answers_without_a_search_or_a_count(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched or counted")

        monkeypatch.setattr(mcmc, "havel_hakimi_graph", refuse)
        monkeypatch.setattr(enumeration, "count_realizations", refuse)
        monkeypatch.setattr(enumeration.RealizationCounter, "count", refuse)
        assert switch_connected(DegreeSequence([2] * 9)) is True  # 30,016 realizations
        start = time.perf_counter()
        assert switch_connected(DegreeSequence([1] * 1000)) is True
        assert time.perf_counter() - start < 0.01

    def test_not_graphic_by_erdos_gallai(self):
        for degs in ((1,), (3, 3, 1, 1), (4, 1, 1), (2, 2, 2, 1), (5,) * 4):
            with pytest.raises(NotGraphic):
                switch_connected(DegreeSequence(degs))

    def test_no_search_limit(self):
        assert not hasattr(mcmc, "SWITCH_MAX_STATES")
        assert switch_connected(DegreeSequence([1] * 18)) is True  # above ENUMERATE_MAX_N


class TestTextKeysAndCountForm:
    def test_count_form_equals_state_list_form_on_fixtures(self):
        fixtures = [
            (Counter({("a",): 10, ("b",): 10, ("c",): 10}), [("a",), ("b",), ("c",)], 30),
            (Counter({("a",): 30}), [("a",), ("b",)], 30),
        ]
        for hist, states, total in fixtures:
            want = tv_over_state_list(hist, states, total)
            assert tv_distance_to_uniform(hist, len(states), total) == pytest.approx(want, abs=1e-12)

    def test_keys_are_realizations_and_tv_forms_agree_up_to_6(self):
        """Every graphic sorted sequence with n <= 6: each key parses back to
        sorted distinct edges realizing it and prints as itself, and the count
        form of TV equals the state-list form."""
        runs = 0
        for n in range(1, 7):
            for degs in all_sorted_sequences(n):
                seq = DegreeSequence(degs)
                states = [g.edges() for g in enumerate_realizations(seq)]
                if not states:
                    continue
                steps = 300
                run = sample(seq, ChainConfig(seed=runs, steps=steps, burn_in=5))
                visits = Counter()
                for key, value in run.histogram.items():
                    edges = parse_edge_text(key)
                    assert edges == tuple(sorted(set(edges))), key
                    assert LabeledGraph.from_edges(n, edges).degrees() == degs, key
                    assert edges_to_text(edges) == key
                    visits[edges] = value
                assert set(visits) <= set(states)
                want = tv_over_state_list(visits, states, steps)
                got = tv_distance_to_uniform(run.histogram, len(states), steps)
                assert got == pytest.approx(want, abs=1e-12), degs
                runs += 1
        assert runs == 151  # graphic sorted sequences with n <= 6, by the census

    def test_count_form_rejects_inconsistent_input(self):
        hist = Counter({"1-2": 3, "1-3": 1})
        assert tv_distance_to_uniform(hist, 2, 4) == pytest.approx(0.25)
        for states, total in ((1, 4), (0, 4), (2, 0), (-1, 4)):
            with pytest.raises(InvalidInput):
                tv_distance_to_uniform(hist, states, total)
