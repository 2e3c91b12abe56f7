import itertools
import random
import time

import pytest

from degseq import (
    ConstructionError,
    DegreeSequence,
    InvalidInput,
    LabeledGraph,
    NotGraphic,
    RealizationCounter,
    SplitGraph,
    TooLarge,
    VerySimpleRegion,
    count_realizations,
    enumerate_realizations,
    havel_hakimi_graph,
    hs_index,
    is_graphic,
    is_split_sequence,
    membership,
    nonstability_witness,
    split_witness,
    tyshkevich_compose,
    very_simple_region_fully_graphic,
    verify_multiplicativity,
)
from degseq import splitgraph
from degseq.errors import LIMITS
from degseq.graphicality import _slack
from conftest import (
    _threshold,
    all_sorted_sequences,
    degree_census,
    greedy_split_graph,
    half_graph,
    has_split_partition,
)


def non_fully_graphic_regions(n_max):
    for n in range(1, n_max + 1):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                region = VerySimpleRegion(n, c1, c2)
                if not very_simple_region_fully_graphic(region):
                    yield region


def qualifying_candidates(region):
    """(ell, degrees) of every clique size s(ell) < 0 admits, by increasing ell."""
    n, c1, c2 = region.n, region.c1, region.c2
    for ell in range(max(c2, 1), c1 + 1):
        if _slack(n, c1, c2, ell) < 0:
            c, alpha = divmod((n - ell) * c2, ell)
            yield ell, (ell + c,) * alpha + (ell + c - 1,) * (ell - alpha) + (c2,) * (n - ell)


def pairwise_split_error(g, clique, independent):
    """The message SplitGraph gives for a partition, from the edge list pair by pair."""
    edges = set(g.edges())
    for u, v in itertools.combinations(sorted(clique), 2):
        if (u, v) not in edges:
            return f"clique part misses edge ({u}, {v})"
    for u, v in itertools.combinations(sorted(independent), 2):
        if (u, v) in edges:
            return f"independent part contains edge ({u}, {v})"
    return None


class TestSplitSequence:
    def test_triangle_is_split(self):
        verdict = is_split_sequence(DegreeSequence([2, 2, 2]))
        assert verdict.is_split and verdict.m == 3 and verdict.lhs == verdict.rhs == 6

    def test_two_matchings_not_split(self):
        verdict = is_split_sequence(DegreeSequence([1, 1, 1, 1]))
        assert not verdict.is_split and verdict.m == 2
        assert (verdict.lhs, verdict.rhs) == (2, 4)

    def test_witness_shape_is_split(self):
        verdict = is_split_sequence(DegreeSequence([3, 3, 1, 1, 1, 1]))
        assert verdict.is_split and verdict.m == 2 and verdict.lhs == 6

    def test_requires_graphic(self):
        with pytest.raises(NotGraphic):
            is_split_sequence(DegreeSequence([3, 3, 1, 1]))

    def test_hs_index(self):
        assert hs_index(DegreeSequence([5, 4, 4, 4, 4, 1])) == 5
        assert hs_index(DegreeSequence([0, 0, 0])) == 1

    def test_matches_partition_oracle_across_all_realizations_small(self):
        for n in range(2, 7):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                if not is_graphic(d).graphic:
                    continue
                expected = is_split_sequence(d).is_split
                for g in enumerate_realizations(d):
                    assert has_split_partition(g) == expected, (seq, g.edges())


class TestSplitPartition:
    def test_split_graph_validation(self):
        g = LabeledGraph.from_edges(3, [(0, 1)])
        SplitGraph(graph=g, clique=frozenset({0, 1}), independent=frozenset({2}))
        with pytest.raises(InvalidInput):
            SplitGraph(graph=g, clique=frozenset({0, 2}), independent=frozenset({1}))
        with pytest.raises(InvalidInput):
            SplitGraph(graph=g, clique=frozenset({0}), independent=frozenset({0, 1, 2}))

    def test_validation_matches_pairwise_oracle(self):
        for n in range(5):
            pairs = list(itertools.combinations(range(n), 2))
            for edge_bits in range(1 << len(pairs)):
                edges = [p for k, p in enumerate(pairs) if edge_bits >> k & 1]
                g = LabeledGraph.from_edges(n, edges)
                for clique_bits in range(1 << n):
                    clique = frozenset(v for v in range(n) if clique_bits >> v & 1)
                    independent = frozenset(range(n)) - clique
                    want = pairwise_split_error(g, clique, independent)
                    if want is None:
                        SplitGraph(graph=g, clique=clique, independent=independent)
                        continue
                    with pytest.raises(InvalidInput) as err:
                        SplitGraph(graph=g, clique=clique, independent=independent)
                    assert str(err.value) == want, (edges, sorted(clique))


class TestSplitWitness:
    def test_known_witness(self):
        w = split_witness(VerySimpleRegion(6, 5, 1))
        assert str(w.sequence) == "3,3,1,1,1,1"
        assert (w.ell, w.cross_edges, w.c, w.alpha) == (2, 4, 2, 0)
        assert w.graph.clique == frozenset({0, 1})

    def test_fully_graphic_region_has_no_witness(self):
        assert split_witness(VerySimpleRegion(10, 3, 2)) is None

    def test_constant_band_has_no_witness(self):
        assert split_witness(VerySimpleRegion(6, 3, 3)) is None

    def test_smallest_qualifying_clique_size(self):
        # s(3) < 0 is the first qualifying size; cross edges (i % 3, 3 + i // 2)
        w = split_witness(VerySimpleRegion(6, 5, 2))
        assert (w.ell, w.cross_edges, w.c, w.alpha) == (3, 6, 2, 0)
        assert str(w.sequence) == "4,4,4,2,2,2"
        assert w.graph.graph.edges() == (
            (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5))

    def test_witness_contract_small(self):
        for n in range(2, 9):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    region = VerySimpleRegion(n, c1, c2)
                    w = split_witness(region)
                    if very_simple_region_fully_graphic(region):
                        assert w is None
                        continue
                    assert w is not None
                    assert membership(w.sequence, region)
                    assert is_graphic(w.sequence).graphic
                    assert is_split_sequence(w.sequence).is_split
                    assert w.graph.graph.degrees() == w.sequence.degrees

    def test_every_non_fully_graphic_region_has_a_split_member(self):
        # Includes (66, 54, 23) and (78, 76, 61), where a round-robin layout
        # (i % ell, i % w) repeats a cross edge at every qualifying ell.
        checked = 0
        for region in non_fully_graphic_regions(80):
            w = split_witness(region)
            ell, degrees = next(qualifying_candidates(region))
            assert (w.ell, w.sequence.degrees) == (ell, degrees), region
            assert membership(w.sequence, region), region
            assert is_split_sequence(w.sequence).is_split, region
            checked += 1
        assert checked == 32_033

    def test_realization_matches_a_pairwise_check(self):
        for region in non_fully_graphic_regions(24):
            w = split_witness(region)
            split = w.graph
            g, ell = split.graph, w.ell
            assert split.clique == frozenset(range(ell)), region
            assert split.independent == frozenset(range(ell, region.n)), region
            edges = set(g.edges())
            assert edges >= set(itertools.combinations(range(ell), 2)), region
            assert not edges & set(itertools.combinations(range(ell, region.n), 2)), region
            assert g.degrees() == w.sequence.degrees, region

    def test_large_region_in_bounded_time(self):
        start = time.perf_counter()
        w = split_witness(VerySimpleRegion(2000, 1999, 3))
        g = w.graph.graph
        assert time.perf_counter() - start < 1
        assert w.ell == 4 and g.degrees() == w.sequence.degrees

    def test_witness_size_cap(self):
        cap = LIMITS["WITNESS_MAX_SIZE"][0]
        assert split_witness(VerySimpleRegion(cap, 5, 0)).sequence.n == cap
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="WITNESS_MAX_SIZE"):
            split_witness(VerySimpleRegion(cap + 1, 5, 0))
        with pytest.raises(TooLarge, match="WITNESS_MAX_SIZE"):
            split_witness(VerySimpleRegion(5 * cap, 5, 0))
        # ell = 501: 125,250 clique plus 249,500 cross edges, no graph built.
        w = split_witness(VerySimpleRegion(1000, 999, 500))
        with pytest.raises(TooLarge, match="375750"):
            w.graph
        assert time.perf_counter() - start < 1


class TestTyshkevichCompose:
    def test_clique_composition_gives_complete_graph(self):
        k2 = LabeledGraph.from_edges(2, [(0, 1)])
        split = SplitGraph(graph=k2, clique=frozenset({0, 1}), independent=frozenset())
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        composed = tyshkevich_compose(split, edge)
        assert composed.degree_sequence().degrees == (3, 3, 3, 3)
        assert len(composed.edges()) == 6

    def test_single_vertex_composition(self):
        k1 = LabeledGraph(1, ())
        split = SplitGraph(graph=k1, clique=frozenset({0}), independent=frozenset())
        one = LabeledGraph(1, ())
        assert tyshkevich_compose(split, one).degree_sequence().degrees == (1, 1)

    def test_witness_composed_with_triangle(self):
        w = split_witness(VerySimpleRegion(6, 5, 1))
        triangle = havel_hakimi_graph(DegreeSequence([2, 2, 2]))
        composed = tyshkevich_compose(w.graph, triangle)
        # clique side gains 3 each, triangle side gains |clique| = 2 each
        assert composed.degree_sequence().degrees == (6, 6, 4, 4, 4, 1, 1, 1, 1)

    def test_degree_arithmetic_random_instances(self):
        rng = random.Random(7)
        for _ in range(20):
            ell = rng.randint(1, 3)
            w = rng.randint(0, 3)
            n_split = ell + w
            edges = [(a, b) for a in range(ell) for b in range(a + 1, ell)]
            for k in range(w):  # sprinkle clique-to-independent edges
                for a in range(ell):
                    if rng.random() < 0.5:
                        edges.append((a, ell + k))
            g = LabeledGraph.from_edges(n_split, edges)
            split = SplitGraph(
                graph=g,
                clique=frozenset(range(ell)),
                independent=frozenset(range(ell, n_split)),
            )
            n_h = rng.randint(1, 4)
            h_edges = [
                (a, b)
                for a in range(n_h)
                for b in range(a + 1, n_h)
                if rng.random() < 0.4
            ]
            h = LabeledGraph.from_edges(n_h, h_edges)
            composed = tyshkevich_compose(split, h)
            assert splitgraph._composed_degrees(
                g.degrees(), split.clique, h.degree_sequence()) == composed.degree_sequence()
            degrees = composed.degrees()
            for v in range(n_split):
                gain = n_h if v in split.clique else 0
                assert degrees[v] == g.degrees()[v] + gain
            for v in range(n_h):
                assert degrees[n_split + v] == h.degrees()[v] + ell


class TestMultiplicativity:
    def test_simple_cases(self, counter):
        k2 = LabeledGraph.from_edges(2, [(0, 1)])
        split = SplitGraph(graph=k2, clique=frozenset({0, 1}), independent=frozenset())
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        report = verify_multiplicativity(split, edge, counter)
        assert report.holds and report.composed_count == 1

    def test_path_factor(self, counter):
        split = greedy_split_graph(DegreeSequence([2, 1, 1]))
        other = havel_hakimi_graph(DegreeSequence([2, 1, 1]))
        report = verify_multiplicativity(split, other, counter)
        assert report.holds

    def test_witness_times_edge(self, counter):
        w = split_witness(VerySimpleRegion(6, 5, 1))
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        report = verify_multiplicativity(w.graph, edge, counter)
        assert report.holds
        assert report.split_count == count_realizations(w.sequence, counter).count


class TestThreshold:
    def test_matches_the_census_small(self):
        for n in range(1, 8):
            census = degree_census(n)
            for seq in all_sorted_sequences(n):
                assert _threshold(seq) == (census.get(seq, 0) == 1), seq

    def test_matches_the_counter(self, counter):
        for n in (8, 9):
            for seq in all_sorted_sequences(n):
                assert _threshold(seq) == (counter.count(seq).count == 1), seq


class TestNonstabilityWitness:
    def test_requires_stretch(self):
        with pytest.raises(InvalidInput):
            nonstability_witness(6, 6, 5, 1)

    def test_fully_graphic_region_yields_none(self):
        assert nonstability_witness(10, 12, 3, 2) is None

    def test_base_is_uniquely_realizable(self, counter):
        witness = nonstability_witness(6, 8, 5, 1, verify=True, counter=counter)
        assert witness is not None
        assert witness.m == 2
        assert witness.unique_verified
        assert witness.witness.ell == 5  # the smaller clique witnesses repeat
        assert witness.base_count == 1
        assert witness.base.n == 6 + 2 * witness.m
        composed = tyshkevich_compose(witness.witness.graph, half_graph(witness.m))
        assert composed.degree_sequence() == witness.base

    def test_base_is_the_degree_sequence_of_the_composition(self):
        # The ranges of the counting benchmark's nonstab-witness ops: n 4..8,
        # c2 = 0 or c1 = n - 1 with c2 <= n - 3, and n' up to (14 + n) // 2.
        # ``perturbed`` is checked against ++ at the first entries of value
        # m + ell and 1 + ell of ``base``, the images of the staircase's bump.
        for n in range(4, 9):
            regions = {(c1, 0) for c1 in range(2, n)} | {(n - 1, c2) for c2 in range(n - 2)}
            for c1, c2 in sorted(regions):
                for n_prime in range(n + 1, (14 + n) // 2 + 1):
                    witness = nonstability_witness(n, n_prime, c1, c2)
                    case = (n, n_prime, c1, c2)
                    assert witness.unique_verified is True, case
                    assert _threshold(witness.base.degrees), case
                    composed = tyshkevich_compose(witness.witness.graph, half_graph(witness.m))
                    assert composed.degree_sequence() == witness.base, case
                    degs, ell, m = witness.base.degrees, witness.witness.ell, witness.m
                    i = degs.index(m + ell)
                    j = degs.index(1 + ell, i + 1 if m == 1 else 0)
                    bumped = list(degs)
                    bumped[i] += 1
                    bumped[j] += 1
                    assert witness.perturbed == DegreeSequence(bumped), case

    def test_uncountable_region_gets_a_threshold_witness(self):
        # Chosen without counting: the first candidate (ell = 4, 8^4 3^16)
        # has many realizations; the first threshold one is ell = 19.
        first = split_witness(VerySimpleRegion(20, 19, 3))
        assert first.ell == 4 and not _threshold(first.sequence.degrees)
        witness = nonstability_witness(20, 22, 19, 3)
        assert witness.witness.ell == 19
        assert witness.unique_verified is True
        assert _threshold(witness.base.degrees)
        assert witness.base_count is witness.perturbed_count is None

    def test_counts_nothing_unless_verified(self):
        class Refusing(RealizationCounter):
            def count(self, seq):
                raise AssertionError(f"counted {seq}")

        witness = nonstability_witness(6, 8, 5, 1, counter=Refusing())
        assert witness.unique_verified is True and witness.witness.ell == 5

    def test_no_candidate_raises(self):
        # c2 >= 1 and c1 < n - 1: candidates 3^2 1^4, 3^3 1^3 and 4^2 3^2 1^2
        region = VerySimpleRegion(6, 4, 1)
        assert not very_simple_region_fully_graphic(region)
        assert [ell for ell, degs in qualifying_candidates(region)] == [2, 3, 4]
        assert not any(_threshold(degs) for _, degs in qualifying_candidates(region))
        with pytest.raises(ConstructionError, match="no uniquely realizable split witness"):
            nonstability_witness(6, 8, 4, 1)

    def test_pick_matches_the_threshold_oracle(self):
        # A qualifying candidate is threshold iff c2 = 0 or w = 1; the witness
        # takes the first one, or raises ConstructionError when there is none.
        candidates = raised = 0
        for region in non_fully_graphic_regions(40):
            n, c1, c2 = region.n, region.c1, region.c2
            want = None
            for ell, degs in qualifying_candidates(region):
                candidates += 1
                assert _threshold(degs) == (c2 == 0 or ell == n - 1), (region, ell)
                if want is None and _threshold(degs):
                    want = ell, degs
            if want is None:
                raised += 1
                with pytest.raises(ConstructionError):
                    nonstability_witness(n, n + 1, c1, c2)
                continue
            chosen = nonstability_witness(n, n + 1, c1, c2).witness
            assert (chosen.ell, chosen.sequence.degrees) == want, region
        assert (candidates, raised) == (65_659, 2_935)

    def test_large_regions_in_bounded_time(self):
        for n in (200, 2000):
            start = time.perf_counter()
            witness = nonstability_witness(n, n + 2, n - 1, 3)
            assert time.perf_counter() - start < 1
            assert witness.witness.ell == n - 1 and witness.base.n == n + 4
            # 3 clique vertices with one cross edge each gain 2m = 4; c2 = 3 gains nothing
            assert witness.base.degrees[:3] == (n + 3,) * 3 and witness.base.degrees[-1] == 3

    def test_witness_size_cap(self):
        # base has 2 n_prime - n entries.
        cap = LIMITS["WITNESS_MAX_SIZE"][0]
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="WITNESS_MAX_SIZE"):
            nonstability_witness(4, (cap + 4) // 2 + 1, 3, 0)
        with pytest.raises(TooLarge, match="WITNESS_MAX_SIZE"):
            nonstability_witness(4, 1_000_004, 3, 0)
        assert time.perf_counter() - start < 1
        assert nonstability_witness(4, (cap + 4) // 2, 3, 0).base.n == cap

    def test_exact_bump_counts(self):
        # Every witnessed region with n <= 12: at m = 1 the bumped staircase
        # is 2,2, which is not graphic, so the perturbed count is 0; from
        # m = 2 on it is F(2m - 3), with F the Fibonacci numbers.
        fib = [0, 1, 1, 2, 3, 5, 8]
        counter = RealizationCounter()
        witnessed = 0
        for n in range(1, 13):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    try:
                        if nonstability_witness(n, n + 1, c1, c2) is None:
                            continue
                    except ConstructionError:
                        continue
                    witnessed += 1
                    for m in range(1, 5):
                        witness = nonstability_witness(n, n + m, c1, c2, verify=True,
                                                       counter=counter)
                        want = 0 if m == 1 else fib[2 * m - 3]
                        assert (witness.base_count, witness.perturbed_count) == (1, want), (
                            n, c1, c2, m)
        assert witnessed == 100

    def test_m_1_witness_shows_no_blow_up(self, counter):
        # Every non-fully-graphic region with c2 = 0 or c1 = n - 1, n <= 8:
        # at n' = n + 1 the witness is returned with a uniquely realizable
        # base, but the bump 2,2 is not graphic, so neither is the perturbed
        # sequence, and it counts 0.
        regions = [(n, c1, c2) for n in range(1, 9) for c1 in range(n) for c2 in range(c1 + 1)
                   if (c2 == 0 or c1 == n - 1)
                   and not very_simple_region_fully_graphic(VerySimpleRegion(n, c1, c2))]
        assert len(regions) == 36
        for n, c1, c2 in regions:
            witness = nonstability_witness(n, n + 1, c1, c2, verify=True, counter=counter)
            assert witness.m == 1 and witness.unique_verified, (n, c1, c2)
            assert (witness.base_count, witness.perturbed_count) == (1, 0), (n, c1, c2)
            assert not is_graphic(witness.perturbed).graphic, (n, c1, c2)

    def test_perturbed_differs_by_one_double_step(self, counter):
        witness = nonstability_witness(6, 9, 5, 1, verify=True, counter=counter)
        assert witness.perturbed.sigma == witness.base.sigma + 2
        diff = [
            b - a for a, b in zip(witness.base.degrees, witness.perturbed.degrees)
        ]
        assert sorted(diff) == [0] * (witness.base.n - 2) + [1, 1]
        assert witness.perturbed_count > witness.base_count
