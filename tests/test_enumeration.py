import importlib
import itertools
import json
import math
import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from degseq import enumeration
from degseq.cli import main
from degseq import (
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    NotGraphic,
    PerturbationKind,
    RealizationCounter,
    TooLarge,
    bumped_staircase_sequence,
    count_realizations,
    count_staircase_family,
    edges_to_text,
    enumerate_realizations,
    family_count,
    is_graphic,
    p_measure,
    staircase_realization,
    staircase_sequence,
    verify_family_bounds,
)
from conftest import all_sorted_sequences, brute_force_count, degree_census


# ---------------------------------------------------------------------------
# Test-only oracle: a counter on sparse (value, multiplicity) states
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sparse_count(state):
    """Realizations of ``state``, a sorted tuple of (residual, multiplicity).

    Eliminates a vertex of the smallest residual (the counter eliminates the
    largest), choosing its neighbours class by class through dicts.
    """
    if not state:
        return 1
    (low, mult), rest = state[0], state[1:]
    classes = (((low, mult - 1),) if mult > 1 else ()) + rest
    total = 0

    def choose(i, need, ways, out):
        nonlocal total
        if need == 0:
            for value, m in classes[i:]:
                out[value] = out.get(value, 0) + m
            child = tuple(sorted((v, m) for v, m in out.items() if v and m))
            total += ways * sparse_count(child)
            return
        if i == len(classes):
            return
        value, m = classes[i]
        for k in range(min(m, need) + 1):
            nxt = dict(out)
            nxt[value - 1] = nxt.get(value - 1, 0) + k
            nxt[value] = nxt.get(value, 0) + m - k
            choose(i + 1, need - k, ways * math.comb(m, k), nxt)

    choose(0, low, 1, {})
    return total


def oracle_count(degrees):
    hist = {}
    for d in degrees:
        if d:
            hist[d] = hist.get(d, 0) + 1
    return sparse_count(tuple(sorted(hist.items())))


class TestSparseOracle:
    @pytest.mark.parametrize("shared", [True, False])
    def test_every_sorted_sequence_up_to_8(self, shared):
        # One counter whose memo serves every query, or a cold one per query.
        counter = RealizationCounter()
        for n in range(1, 9):
            for seq in all_sorted_sequences(n):
                if not shared:
                    counter = RealizationCounter()
                assert counter.count(seq).count == oracle_count(seq), seq

    def test_oracle_against_the_census(self):
        for n in range(1, 7):
            census = degree_census(n)
            for seq in all_sorted_sequences(n):
                assert oracle_count(seq) == census.get(seq, 0), seq


# ---------------------------------------------------------------------------
# Test-only oracle: the enumeration order, from the backtracker on bitsets
# ---------------------------------------------------------------------------

def oracle_enumerate(seq, limit=None):
    """The library's backtracker before it yielded edge lists, kept verbatim
    (less its argument checks) as the reference for the enumeration order."""
    degrees = seq.degrees
    n = len(degrees)
    if any(d > n - 1 for d in degrees) or sum(degrees) % 2:
        return
    adj = [0] * n
    residual = list(degrees)
    active = [v for v in range(n) if residual[v] > 0]

    def backtrack():
        live = [v for v in active if residual[v] > 0]
        if not live:
            yield LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if adj[u] >> v & 1])
            return
        pivot = max(live, key=lambda v: residual[v])
        need = residual[pivot]
        others = [v for v in live if v != pivot]
        if need > len(others):
            return
        residual[pivot] = 0
        for nbrs in itertools.combinations(others, need):
            ok = True
            for v in nbrs:
                if residual[v] == 0:
                    ok = False
                    break
            if not ok:
                continue
            for v in nbrs:
                residual[v] -= 1
                adj[pivot] |= 1 << v
                adj[v] |= 1 << pivot
            yield from backtrack()
            for v in nbrs:
                residual[v] += 1
                adj[pivot] &= ~(1 << v)
                adj[v] &= ~(1 << pivot)
        residual[pivot] = need

    yield from itertools.islice(backtrack(), limit)


# ---------------------------------------------------------------------------
# Counter diagnostics, pinned: (count, nodes_explored, from_cache)
# ---------------------------------------------------------------------------

def diagnostics(result):
    return result.count, result.nodes_explored, result.from_cache


def count_concurrently(counter, sequences):
    """Count each sequence in its own thread, all started together."""
    barrier = threading.Barrier(len(sequences))
    results = [None] * len(sequences)

    def work(i, degrees):
        barrier.wait()
        results[i] = counter.count(degrees)

    threads = [threading.Thread(target=work, args=item) for item in enumerate(sequences)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-query
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return results


class TestCounterDiagnostics:
    @pytest.mark.parametrize("degrees, count, nodes", [
        ((7,) * 16, 15138592322753242235338875, 2202),
        ((3,) * 16, 50262958713792825, 108),
        ((5,) * 14, 283097260184159421, 415),
    ])
    def test_regular_cold_then_cached(self, degrees, count, nodes):
        counter = RealizationCounter()
        assert diagnostics(counter.count(degrees)) == (count, nodes, False)
        assert diagnostics(counter.count(degrees)) == (count, 0, True)

    def test_staircase_pairs(self):
        pinned = {3: ((1, 4), (2, 6)), 4: ((1, 5), (5, 10)), 5: ((1, 6), (13, 16)),
                  6: ((1, 7), (34, 24)), 7: ((1, 8), (89, 34))}
        for m, (base, bumped) in pinned.items():
            counter = RealizationCounter()
            assert diagnostics(counter.count(staircase_sequence(m))) == (*base, False)
            assert diagnostics(counter.count(bumped_staircase_sequence(m))) == (*bumped, False)

    def test_repeated_query(self):
        counter = RealizationCounter()
        got = [diagnostics(counter.count(DegreeSequence(d))) for d in
               ([3, 3, 2, 2, 2, 2], [3, 3, 2, 2, 2, 2], [2] * 8, [3, 3, 2, 2, 2, 2])]
        assert got == [(54, 10, False), (54, 0, True), (3507, 4, False), (54, 0, True)]

    def test_vertex_order_does_not_matter(self):
        counter = RealizationCounter()
        assert diagnostics(counter.count([2, 1, 3, 1, 3])) == (2, 5, False)
        assert diagnostics(counter.count([3, 3, 2, 1, 1])) == (2, 0, True)

    def test_concurrent_cold_queries_on_one_counter(self):
        # Sums of opposite parity: every residual state of one query has an
        # even sum and every state of the other an odd one, so the two share
        # no memo entry and each must report its serial nodes.
        even, odd = (7,) * 16, (7,) * 15
        for _ in range(3):
            got = count_concurrently(RealizationCounter(), [even, odd])
            assert [diagnostics(r) for r in got] == [
                (15138592322753242235338875, 2202, False), (0, 1191, False)]

    def test_concurrent_queries_sharing_memo_entries(self):
        # Both sums are even, so the queries meet each other's residual
        # states; whichever stores an entry first, both counts stay exact.
        sequences = [(5,) * 12, (3,) * 14]
        expected = [oracle_count(d) for d in sequences]
        assert expected == [2977635137862, 19506631814670]
        for _ in range(3):
            got = count_concurrently(RealizationCounter(), sequences)
            assert [r.count for r in got] == expected


class TestCountRealizations:
    def test_single_edge(self):
        assert count_realizations(DegreeSequence([1, 1])).count == 1

    def test_path_plus_edge_census(self):
        seq = DegreeSequence([2, 1, 1, 1, 1])
        assert brute_force_count(seq.degrees) == 6
        assert count_realizations(seq).count == 6

    def test_unique_realization(self):
        assert count_realizations(DegreeSequence([3, 2, 2, 1])).count == 1

    def test_matches_census_exhaustively_small(self, counter):
        for n in range(1, 8):
            census = degree_census(n)
            for seq in all_sorted_sequences(n):
                assert counter.count(seq).count == census.get(seq, 0), seq

    def test_count_depends_only_on_multiset(self):
        # positional counts agree across permutations: pure brute force
        census = degree_census(6)
        for multiset in ((2, 2, 1, 1, 0, 0), (3, 2, 2, 2, 1, 0), (4, 3, 2, 2, 2, 1)):
            values = {census.get(p, 0) for p in set(itertools.permutations(multiset))}
            assert len(values) == 1, multiset
        census7 = degree_census(7)
        values = {
            census7.get(p, 0)
            for p in set(itertools.permutations((3, 2, 2, 1, 1, 1, 0)))
        }
        assert len(values) == 1

    def test_out_of_range_entries_count_zero(self):
        assert count_realizations(DegreeSequence([4, 1, 1])).count == 0
        assert count_realizations(DegreeSequence([5, 5, 5])).count == 0
        assert RealizationCounter().count([-1, 1]).count == 0
        assert RealizationCounter().count([3, 1]).count == 0

    def test_raw_float_entries_are_refused(self):
        with pytest.raises(InvalidInput, match="must be integers"):
            RealizationCounter().count([1.5, 0.5])

    def test_raw_string_entries_are_refused(self):
        with pytest.raises(InvalidInput, match="must be integers"):
            RealizationCounter().count(["1", "1"])

    def test_too_large(self):
        # 200,000 entries: the step budget stops both, 1^200000 on the
        # frames of its open nodes, the other on its second node.  Neither
        # hangs, and the counter stays exact after the refusals.
        counter = RealizationCounter()
        for degrees in ([1] * 200_000, [199_999] * 200_000):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match="DEGSEQ_STEP_BUDGET"):
                counter.count(degrees)
            assert time.perf_counter() - start < 1
        assert counter.count(bumped_staircase_sequence(7)).count == 89

    def test_beyond_sixteen_entries(self):
        counter = RealizationCounter()
        # 1^k counts the perfect matchings of k vertices: (k - 1)!! for even k
        for k in (2000, *range(40)):
            expected = math.prod(range(1, k, 2)) if k % 2 == 0 else 0
            assert counter.count([1] * k).count == expected, k
        assert counter.count([4] * 40).count == oracle_count([4] * 40)

    def test_node_budget(self):
        # 3 steps stop this query; 400 let it finish, in at most 200 nodes.
        tight = RealizationCounter(step_budget=3)
        with pytest.raises(TooLarge):
            tight.count(DegreeSequence([3, 3, 2, 2, 2, 2]))
        res = RealizationCounter(step_budget=400).count(DegreeSequence([3, 3, 2, 2, 2, 2]))
        assert res.count == oracle_count([3, 3, 2, 2, 2, 2])
        assert 0 < res.nodes_explored <= 200

    def test_open_nodes_are_charged_for_their_frames(self):
        # 1^2000 opens 1,000 nodes at once, each charged its one-entry
        # histogram, one child and _NODE_FRAME_STEPS for its frame: 98,000
        # steps is the least budget that answers it.
        assert enumeration._NODE_FRAME_STEPS == 96
        expected = math.prod(range(1, 2000, 2))
        assert RealizationCounter(step_budget=98_000).count([1] * 2000).count == expected
        with pytest.raises(TooLarge):
            RealizationCounter(step_budget=97_999).count([1] * 2000)

    def test_cache_flag_and_diagnostics(self):
        counter = RealizationCounter()
        first = counter.count(DegreeSequence([2, 2, 2, 2]))
        again = counter.count(DegreeSequence([2, 2, 2, 2]))
        assert not first.from_cache and first.nodes_explored > 0
        assert again.from_cache and again.nodes_explored == 0
        assert first.count == again.count == 3

    def test_memoization_soundness_random_sample(self):
        rng = random.Random(20240817)
        memo = RealizationCounter()
        for _ in range(12):
            n = rng.randint(2, 10)
            degs = sorted((rng.randint(0, min(4, n - 1)) for _ in range(n)), reverse=True)
            if sum(degs) % 2:
                degs[-1] += 1
                degs.sort(reverse=True)
            seq = DegreeSequence(degs)
            assert memo.count(seq).count == oracle_count(degs), degs


class TestCounterLimits:
    def test_messages_name_the_variable_that_raises_the_limit(self):
        with pytest.raises(TooLarge) as exc:
            RealizationCounter(step_budget=3).count(DegreeSequence([3, 3, 2, 2, 2, 2]))
        assert str(exc.value) == ("DEGSEQ_STEP_BUDGET exceeded: 101 > 3 steps in one count"
                                  " (set the variable to change it)")
        with pytest.raises(TooLarge) as exc:
            list(enumerate_realizations(DegreeSequence([1] * 18)))
        assert str(exc.value) == ("ENUMERATE_MAX_N exceeded: 18 > 16 entries in a sequence"
                                  " to enumerate")

    def test_enumeration_bound_is_the_benchmark_count_limit(self, monkeypatch):
        # perfbench's mcmc oracle wants no exact-space report above COUNT_LIMIT.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        assert enumeration.ENUMERATE_MAX_N == importlib.import_module("workloads").COUNT_LIMIT

    def test_default_memo_limit_is_far_above_a_benchmark_round(self):
        assert enumeration.MEMO_MAX_ENTRIES >= 1 << 18

    def test_memo_stays_bounded_and_counts_exact(self, monkeypatch):
        limit = 25
        monkeypatch.setattr(enumeration, "MEMO_MAX_ENTRIES", limit)
        counter = RealizationCounter()
        census = degree_census(7)
        clears = 0
        for _ in range(2):  # the second pass meets memo hits and clears alike
            for seq in all_sorted_sequences(7):
                before = len(counter._memo)
                result = counter.count(seq)
                assert result.count == census.get(seq, 0), seq
                # a query over the limit starts empty and adds one entry per node
                kept = before if before <= limit else 0
                assert len(counter._memo) <= kept + result.nodes_explored
                clears += len(counter._memo) < before
        assert clears > 10


class TestEnumerateRealizations:
    def test_triangle(self):
        graphs = list(enumerate_realizations(DegreeSequence([2, 2, 2])))
        assert len(graphs) == 1
        assert graphs[0].edges() == ((0, 1), (0, 2), (1, 2))

    def test_perfect_matchings(self):
        graphs = list(enumerate_realizations(DegreeSequence([1, 1, 1, 1])))
        assert {g.edges() for g in graphs} == {
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        }

    def test_complete_graph(self):
        graphs = list(enumerate_realizations(DegreeSequence([3, 3, 3, 3])))
        assert len(graphs) == 1 and graphs[0].edge_count == 6

    def test_yield_matches_count_exhaustively_small(self, counter):
        for n in range(1, 7):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                graphs = list(enumerate_realizations(d))
                assert len(graphs) == counter.count(d).count, seq
                assert len({g.adj for g in graphs}) == len(graphs), seq
                for g in graphs:
                    assert g.degrees() == seq

    def test_limit(self):
        got = list(enumerate_realizations(DegreeSequence([1, 1, 1, 1]), limit=2))
        assert len(got) == 2

    def test_limit_zero_yields_nothing(self):
        for degs in ((1, 1, 1, 1), (0, 0), (2, 2, 2)):
            assert list(enumerate_realizations(DegreeSequence(degs), limit=0)) == []
        assert len(list(enumerate_realizations(DegreeSequence([0, 0]), limit=1))) == 1

    def test_negative_limit_rejected(self):
        with pytest.raises(InvalidInput):
            list(enumerate_realizations(DegreeSequence([1, 1]), limit=-1))

    def test_non_graphic_input_yields_nothing_without_a_search(self):
        # Even sum, every entry <= n - 1, yet not graphic (k = 8 fails): a
        # search of its tree ran for about 20 s before printing nothing.
        seq = DegreeSequence([13, 13, 12, 11, 11, 11, 10, 10, 8, 5, 4, 4, 3, 3, 3, 1])
        start = time.perf_counter()
        assert list(enumerate_realizations(seq, limit=1)) == []
        assert list(enumeration.realization_edge_lists(seq)) == []
        assert time.perf_counter() - start < 1

    def test_yielded_graphs_pass_full_validation(self):
        for n in range(1, 6):
            for seq in all_sorted_sequences(n):
                for g in enumerate_realizations(DegreeSequence(seq)):
                    assert LabeledGraph(g.n, list(g.edges())) == g

    def test_too_large(self):
        with pytest.raises(TooLarge):
            list(enumerate_realizations(DegreeSequence([0] * 18)))

    def test_argument_errors_raise_at_the_call(self):
        for enumerate_ in (enumerate_realizations, enumeration.realization_edge_lists):
            with pytest.raises(TooLarge) as exc:
                enumerate_(DegreeSequence([1] * 18))
            assert exc.value.args == ("ENUMERATE_MAX_N", 16, 18)
            with pytest.raises(InvalidInput, match="limit must be >= 0"):
                enumerate_(DegreeSequence([1, 1]), limit=-1)

    def test_library_and_cli_follow_the_oracle_order(self, capsys):
        for n in range(1, 8):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                graphs = list(oracle_enumerate(d))
                texts = [edges_to_text(g.edges()) for g in graphs]
                total = len(graphs)
                for limit in {0, 1, 2, total - 1, total, None} - {-1}:
                    assert list(enumerate_realizations(d, limit)) == graphs[:limit], (seq, limit)
                    argv = ["--json", "enumerate", str(d)]
                    argv += [] if limit is None else ["--limit", str(limit)]
                    assert main(argv) == 0
                    result = json.loads(capsys.readouterr().out)["result"]
                    assert result["realizations"] == texts[:limit], (seq, limit)


def family_vectors(degrees, kind):
    """Oracle: the family's distinct positional vectors, from every i != j
    (pairwise kinds) or every i (doubled kinds), deduplicated by a set."""
    n = len(degrees)
    vectors = set()
    if kind.pairwise:
        di = 1 if kind in (PerturbationKind.PLUS_PLUS, PerturbationKind.PLUS_MINUS) else -1
        dj = 1 if kind is PerturbationKind.PLUS_PLUS else -1
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = list(degrees)
                    v[i] += di
                    v[j] += dj
                    vectors.add(tuple(v))
    else:
        step = 2 if kind is PerturbationKind.PLUS_TWO else -2
        for i in range(n):
            v = list(degrees)
            v[i] += step
            vectors.add(tuple(v))
    return vectors


def family_union_census(degrees, kind):
    """Oracle: count graphs whose positional degree vector lies in the family."""
    census = degree_census(len(degrees))
    return sum(census.get(v, 0) for v in family_vectors(degrees, kind))


class RecordingCounter(RealizationCounter):
    """A counter that records the multiset of every sequence it is asked for."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.queries = []

    def count(self, seq):
        self.queries.append(tuple(sorted(seq, reverse=True)))
        return super().count(seq)


class TestFamilyCount:
    def test_zero_pair_gains_an_edge(self):
        seq = DegreeSequence([0, 0])
        assert family_count(seq, PerturbationKind.PLUS_PLUS).total == 1
        assert family_count(seq, PerturbationKind.PLUS_MINUS).total == 0

    def test_matching_family(self):
        seq = DegreeSequence([1, 1, 1, 1])
        result = family_count(seq, PerturbationKind.MINUS_MINUS)
        assert result.total == family_union_census(seq.degrees, PerturbationKind.MINUS_MINUS)
        assert result.total == 6

    def test_double_step_down_impossible(self):
        assert family_count(DegreeSequence([2, 2, 2]), PerturbationKind.MINUS_TWO).total == 0

    def test_distinct_vectors_per_kind(self, counter):
        for n in range(1, 7):
            expected = {"--": n * (n - 1) // 2, "++": n * (n - 1) // 2,
                        "+-": n * (n - 1), "-2": n, "+2": n}
            for seq in all_sorted_sequences(n):
                for kind in PerturbationKind:
                    got = family_count(DegreeSequence(seq), kind, counter).distinct_vectors
                    assert got == expected[kind.value], (seq, kind)

    def test_all_families_match_union_oracle_small(self):
        # The ungrouped positional sum.  Each distinct in-range multiset is
        # queried once and none out of range, so a family with no vector in
        # range totals 0 even on a counter with no step to spend.
        for n in range(1, 8):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                for kind in PerturbationKind:
                    counter = RecordingCounter()
                    got = family_count(d, kind, counter)
                    assert got.total == family_union_census(seq, kind), (seq, kind)
                    vectors = family_vectors(seq, kind)
                    assert got.distinct_vectors == len(vectors), (seq, kind)
                    in_range = {tuple(sorted(v, reverse=True)) for v in vectors
                                if 0 <= min(v) and max(v) < n}
                    assert sorted(counter.queries) == sorted(in_range), (seq, kind)
                    if not in_range:
                        assert family_count(d, kind, RealizationCounter(step_budget=0)).total == 0

    def test_heavy_ties_match_positional_oracle(self):
        # A few value picks stand for many positional vectors here.  Every
        # +- pick (a, a + 1) gives the base multiset, queried once for all.
        # Staircases stop at n = 12: the oracle takes ~30 s on n = 14.
        cases = [staircase_sequence(m).degrees for m in (4, 5, 6)]
        for n in range(8, 15):
            cases += [(n // 2,) * n, (n - 2,) * 3 + (2,) * (n - 3),
                      (5,) * (n // 2) + (4,) * (n - n // 2)]
        for seq in cases:
            n = len(seq)
            for kind in PerturbationKind:
                counter = RecordingCounter()
                got = family_count(DegreeSequence(seq), kind, counter)
                vectors = family_vectors(seq, kind)
                in_range = [v for v in vectors if 0 <= min(v) and max(v) < n]
                assert got.total == sum(map(oracle_count, in_range)), (seq, kind)
                assert got.distinct_vectors == len(vectors), (seq, kind)
                multisets = {tuple(sorted(v, reverse=True)) for v in in_range}
                assert sorted(counter.queries) == sorted(multisets), (seq, kind)
                if kind is PerturbationKind.PLUS_MINUS:
                    merged = sum(sorted(v, reverse=True) == list(seq) for v in vectors)
                    adjacent = sum(seq.count(a) * seq.count(a + 1) for a in set(seq))
                    assert merged == adjacent, seq
                    assert (seq in multisets) == (adjacent > 0), seq


class TestPMeasure:
    def test_matchings(self):
        assert p_measure(DegreeSequence([1, 1, 1, 1])) == 2

    def test_triangle(self):
        assert p_measure(DegreeSequence([2, 2, 2])) == 3

    def test_zero_sequence(self):
        assert p_measure(DegreeSequence([0, 0, 0])) == 0

    def test_requires_graphic(self):
        with pytest.raises(NotGraphic):
            p_measure(DegreeSequence([3, 3, 1, 1]))

    def test_positional_sum_against_census(self, counter):
        for n in range(1, 7):
            census = degree_census(n)
            for seq in all_sorted_sequences(n):
                base = census.get(seq, 0)
                if base == 0:
                    continue
                expected = Fraction(0)
                for i in range(n):
                    for j in range(i + 1, n):
                        child = list(seq)
                        child[i] -= 1
                        child[j] -= 1
                        if min(child) >= 0:
                            child = tuple(sorted(child, reverse=True))
                            expected += Fraction(census.get(child, 0), base)
                assert p_measure(DegreeSequence(seq), counter) == expected, seq


class TestFamilyBounds:
    def test_matching_sequence_all_hold(self):
        report = verify_family_bounds(DegreeSequence([1, 1, 1, 1]))
        assert report.all_hold and not report.plus_minus_empty

    def test_zero_sequence_needs_base_term(self):
        report = verify_family_bounds(DegreeSequence([0, 0, 0, 0]))
        assert report.plus_minus_empty
        assert report.family_totals[PerturbationKind.PLUS_PLUS] > 0
        assert report.family_totals[PerturbationKind.PLUS_MINUS] == 0
        assert report.all_hold  # pair_bound survives only through the base count

    def test_triangle(self):
        assert verify_family_bounds(DegreeSequence([2, 2, 2])).all_hold

    def test_requires_graphic(self):
        with pytest.raises(NotGraphic):
            verify_family_bounds(DegreeSequence([1, 1, 1]))


class TestStaircase:
    def test_sequences(self):
        assert staircase_sequence(2).degrees == (3, 2, 2, 1)
        assert staircase_sequence(3).degrees == (5, 4, 3, 3, 2, 1)
        assert bumped_staircase_sequence(2).degrees == (3, 3, 2, 2)
        assert bumped_staircase_sequence(4).degrees == (7, 6, 5, 5, 4, 3, 2, 2)

    def test_counts(self, counter):
        # The staircase has one realization and its bump F(2m - 3), with F
        # the Fibonacci numbers: a closed form that shares no code with the
        # counter, out to n = 120 entries.
        fib = [0, 1]
        while len(fib) < 2 * 60:
            fib.append(fib[-1] + fib[-2])
        for m in range(2, 61):
            assert count_staircase_family(m, counter) == (1, fib[2 * m - 3]), m
        # a cold counter, which eliminates all 80 entries in one query
        assert count_staircase_family(40, RealizationCounter()) == (1, 5527939700884757)
        assert fib[77] == 5527939700884757

    def test_realization_is_the_unique_one(self):
        for m in range(1, 6):
            built = staircase_realization(m)
            seq = staircase_sequence(m)
            assert built.degrees() == seq.degrees
            graphs = list(enumerate_realizations(seq))
            assert len(graphs) == 1
            assert graphs[0].adj == built.adj

    def test_half_graph_structure(self):
        g = staircase_realization(2)
        # one clique pair dominating, plus cross edges thinning out
        assert g.degrees() == (3, 2, 2, 1)
        assert g.has_edge(0, 1)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            staircase_sequence(0)
        with pytest.raises(InvalidInput):
            count_staircase_family(1)

    def test_size_cap(self):
        cap = enumeration.WITNESS_MAX_SIZE
        start = time.perf_counter()
        for build in (staircase_sequence, bumped_staircase_sequence, staircase_realization):
            with pytest.raises(TooLarge, match="WITNESS_MAX_SIZE"):
                build(10**12)
        assert time.perf_counter() - start < 1
        # the sequences have 2m entries
        m = cap // 2
        assert staircase_sequence(m).n == bumped_staircase_sequence(m).n == cap
        with pytest.raises(TooLarge) as exc:
            staircase_sequence(m + 1)
        assert str(exc.value) == (f"WITNESS_MAX_SIZE exceeded: {cap + 2} > {cap} entries plus"
                                  " edges that leg or a witness builder lays out")
        # the realization has 2m vertices plus m^2 edges
        m = math.isqrt(cap + 1) - 1
        assert staircase_realization(m).edge_count == m * m
        with pytest.raises(TooLarge) as exc:
            staircase_realization(m + 1)
        assert exc.value.requested == 2 * (m + 1) + (m + 1) ** 2 > cap


class TestCrossChecks:
    def test_zero_count_iff_not_graphic_small(self, counter):
        for n in range(1, 8):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                assert (counter.count(d).count == 0) == (not is_graphic(d).graphic), seq
