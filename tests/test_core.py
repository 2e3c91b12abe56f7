import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degseq import (
    DegreeSequence,
    InvalidInput,
    InvalidRegion,
    NegativeDegree,
    Perturbation,
    PerturbationKind,
    SimpleRegion,
    VerySimpleRegion,
    apply_perturbation,
    iter_region,
    leg,
    membership,
    parse_region,
)
from degseq.core import LabeledGraph, edges_to_text
from conftest import MALFORMED_EDGE_LISTS


def parse_per_part(text: str) -> DegreeSequence:
    """``DegreeSequence.parse`` as it read every text before its one-pass path."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InvalidInput(f"cannot parse degree sequence from {text!r}")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidInput(f"cannot parse degree sequence from {text!r}") from exc
    return DegreeSequence(values)


def parse_outcome(parse, text: str):
    """The entries ``parse`` reads from ``text``, or the type and message it raises."""
    try:
        return parse(text).degrees
    except Exception as exc:
        return type(exc), str(exc)


_BLANK = st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000", "\xa0"])
# Parts of degree text: ints with blanks around them, then odd spellings
# (signs, underscores, Arabic-Indic and fullwidth digits, stray letters),
# then digit strings on either side of int's 4,300-digit limit.
_PART = st.one_of(
    st.builds("{}{}{}".format, _BLANK, st.integers(-3, 12), _BLANK),
    st.text(alphabet=" \t+-_0123456789\u0663\uff17x.", max_size=6),
    st.integers(4290, 4310).map(lambda k: "7" * k),
)


class TestDegreeSequence:
    @given(st.lists(_PART, max_size=6).map(",".join))
    def test_parse_agrees_with_the_per_part_path(self, text):
        assert parse_outcome(DegreeSequence.parse, text) == parse_outcome(parse_per_part, text)

    def test_input_is_sorted(self):
        assert DegreeSequence([1, 3, 2]).degrees == (3, 2, 1)

    def test_sorting_is_idempotent(self):
        d = DegreeSequence([1, 3, 2])
        assert DegreeSequence(d.degrees).degrees == d.degrees

    def test_parse_str_round_trip(self):
        text = "4,4,3,1,1,1,1,1"
        d = DegreeSequence.parse(text)
        assert str(d) == text
        assert DegreeSequence.parse(str(d)) == d

    def test_sigma_and_len(self):
        d = DegreeSequence([2, 1, 1])
        assert (d.n, d.sigma) == (3, 4)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInput):
            DegreeSequence([])

    def test_rejects_negative(self):
        with pytest.raises(NegativeDegree):
            DegreeSequence([1, -1])

    def test_ordering_is_lexicographic(self):
        assert DegreeSequence([2, 2, 0]) > DegreeSequence([2, 1, 1])

    def test_rejects_non_integer_entries(self):
        for bad in ([1.5, 1], [2.0, 2, 2], ["1", 1]):
            with pytest.raises(InvalidInput, match="must be integers"):
                DegreeSequence(bad)
        assert DegreeSequence([True, 1]).degrees == (1, 1)


class TestRegions:
    def test_very_simple_validation(self):
        VerySimpleRegion(3, 0, 0)
        for bad in ((3, 3, 0), (3, 1, 2), (3, 1, -1), (0, 0, 0)):
            with pytest.raises(InvalidRegion):
                VerySimpleRegion(*bad)

    def test_very_simple_rejects_non_integer_fields(self):
        for bad in ((4.5, 3, 1), ("4", 3, 1), (4, 3.0, 1), (4, 3, None)):
            with pytest.raises(InvalidRegion, match="must be integers"):
                VerySimpleRegion(*bad)

    def test_simple_rejects_non_integer_fields(self):
        for bad in ((8, 16.0, 4, 1), (8.5, 16, 4, 1), (8, 16, "4", 1)):
            with pytest.raises(InvalidRegion, match="must be integers"):
                SimpleRegion(*bad)

    def test_simple_validation(self):
        SimpleRegion(8, 16, 4, 1)
        with pytest.raises(InvalidRegion):
            SimpleRegion(8, 15, 4, 1)  # odd sum
        with pytest.raises(InvalidRegion):
            SimpleRegion(8, 34, 4, 1)  # above n*c1
        with pytest.raises(InvalidRegion):
            SimpleRegion(8, 6, 4, 1)  # below n*c2

    def test_parse_region(self):
        r = parse_region("n=8,sigma=16,c1=4,c2=1")
        assert r == SimpleRegion(8, 16, 4, 1)
        v = parse_region("n=10,c1=3,c2=2")
        assert v == VerySimpleRegion(10, 3, 2)
        with pytest.raises(InvalidInput):
            parse_region("n=3,c1=1")

    def test_sigma_values_even_and_in_range(self):
        r = VerySimpleRegion(5, 3, 1)
        values = list(r.sigma_values())
        assert values[0] >= 5 and values[-1] <= 15
        assert all(v % 2 == 0 for v in values)


class TestMembership:
    def test_staircase_region_member(self):
        d = DegreeSequence([4, 4, 3, 1, 1, 1, 1, 1])
        assert membership(d, SimpleRegion(8, 16, 4, 1))

    def test_zero_sequence(self):
        assert membership(DegreeSequence([0, 0, 0]), VerySimpleRegion(3, 0, 0))

    def test_lower_bound_violation(self):
        assert not membership(DegreeSequence([3, 3, 1, 1]), SimpleRegion(4, 8, 3, 2))

    def test_length_and_sum_mismatches(self):
        r = SimpleRegion(4, 8, 3, 1)
        assert membership(DegreeSequence([3, 3, 1, 1]), r)
        assert membership(DegreeSequence([3, 2, 2, 1]), r)
        assert not membership(DegreeSequence([3, 3, 1, 1, 0]), r)  # wrong length
        assert not membership(DegreeSequence([2, 2, 1, 1]), r)  # sum 6 != 8
        assert not membership(DegreeSequence([3, 3, 3, 1]), r)  # sum 10, odd parity aside

    def test_leg_is_member_for_all_small_regions(self):
        for n in range(1, 7):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    for sigma in range(n * c2 + (n * c2) % 2, n * c1 + 1, 2):
                        region = SimpleRegion(n, sigma, c1, c2)
                        assert membership(leg(region), region), region


class TestPerturbation:
    def test_minus_minus_sorted_result(self):
        d = DegreeSequence([1, 1, 1, 1])
        p = Perturbation(PerturbationKind.MINUS_MINUS, 1, 2)
        assert apply_perturbation(d, p).degrees == (1, 1, 0, 0)

    def test_plus_plus_matches_staircase_bump(self):
        d = DegreeSequence([3, 2, 2, 1])
        p = Perturbation(PerturbationKind.PLUS_PLUS, 4, 2)
        assert apply_perturbation(d, p).degrees == (3, 3, 2, 2)

    def test_negative_degree_error(self):
        d = DegreeSequence([0, 0])
        p = Perturbation(PerturbationKind.MINUS_MINUS, 1, 2)
        with pytest.raises(NegativeDegree):
            apply_perturbation(d, p)

    def test_entry_above_n_minus_1_is_returned(self):
        d = DegreeSequence([1, 1])
        p = Perturbation(PerturbationKind.PLUS_PLUS, 1, 2)
        assert apply_perturbation(d, p).degrees == (2, 2)

    def test_delta_table(self):
        assert {k.value: k.deltas for k in PerturbationKind} == {
            "--": (-1, -1), "++": (1, 1), "+-": (1, -1), "-2": (-2,), "+2": (2,),
        }
        assert PerturbationKind("+-") is PerturbationKind.PLUS_MINUS

    def test_position_validation(self):
        with pytest.raises(InvalidInput):
            Perturbation(PerturbationKind.MINUS_MINUS, 1, 1)
        with pytest.raises(InvalidInput):
            Perturbation(PerturbationKind.PLUS_TWO, 1, 2)
        with pytest.raises(InvalidInput):
            Perturbation(PerturbationKind.PLUS_PLUS, 0, 1)
        p = Perturbation(PerturbationKind.PLUS_TWO, 3)
        with pytest.raises(InvalidInput):
            apply_perturbation(DegreeSequence([1, 1]), p)

    @given(
        st.lists(st.integers(min_value=2, max_value=8), min_size=2, max_size=8),
        st.sampled_from(list(PerturbationKind)),
        st.data(),
    )
    def test_sigma_delta(self, values, kind, data):
        d = DegreeSequence(values)
        i = data.draw(st.integers(1, d.n))
        if kind.pairwise:
            j = data.draw(st.integers(1, d.n).filter(lambda x: x != i))
            p = Perturbation(kind, i, j)
        else:
            p = Perturbation(kind, i)
        out = apply_perturbation(d, p)
        assert out.sigma - d.sigma == kind.sigma_delta


class TestIterRegion:
    def test_members_match_direct_filter(self):
        import itertools

        region = SimpleRegion(5, 8, 3, 1)
        members = [d.degrees for d in iter_region(region)]
        expected = {
            seq
            for seq in itertools.combinations_with_replacement(range(3, 0, -1), 5)
            if sum(seq) == 8
        }
        assert members == sorted(expected, reverse=True)  # lexicographically descending

    def test_very_simple_union(self):
        region = VerySimpleRegion(4, 2, 1)
        members = list(iter_region(region))
        assert all(membership(d, region) for d in members)
        sums = {d.sigma for d in members}
        assert sums == {4, 6, 8}
        # sums ascending, each sum's members lexicographically descending
        keys = [(d.sigma, [-x for x in d.degrees]) for d in members]
        assert keys == sorted(keys)

    def test_one_member_region_of_any_length(self):
        # the enumeration nests no call per entry
        for n in (2, 5000):
            members = list(iter_region(SimpleRegion(n, n, 1, 1)))
            assert [d.degrees for d in members] == [(1,) * n]


class TestLabeledGraph:
    def test_from_edges_and_degrees(self):
        g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == (1, 2, 2, 1)
        assert g.degree_sequence().degrees == (2, 2, 1, 1)
        assert g.edges() == ((0, 1), (1, 2), (2, 3))

    def test_validation(self):
        with pytest.raises(InvalidInput):
            LabeledGraph.from_edges(3, [(0, 0)])
        with pytest.raises(InvalidInput):
            LabeledGraph.from_edges(3, [(0, 1), (1, 0)])
        with pytest.raises(InvalidInput):
            LabeledGraph.from_edges(3, [(0, 3)])
        with pytest.raises(InvalidInput):
            LabeledGraph(2, (1, 0))  # neighbour bitsets, not pairs

    def test_validation_against_every_short_list(self):
        # Oracle: for n <= 3, every list of up to three pairs with entries in
        # -1..n is accepted exactly when each pair is (u, v) with
        # 0 <= u < v < n above the pair before it; a refusal names the first
        # pair that is not.
        for n in range(4):
            pairs = list(itertools.product(range(-1, n + 1), repeat=2))
            for k in range(4):
                for edges in itertools.product(pairs, repeat=k):
                    bad = [i for i, (u, v) in enumerate(edges)
                           if not 0 <= u < v < n or i and edges[i - 1] >= (u, v)]
                    try:
                        LabeledGraph(n, edges)
                        refusal = None
                    except InvalidInput as exc:
                        refusal = str(exc)
                    if not bad:
                        assert refusal is None, (n, edges)
                    else:
                        assert refusal.startswith(f"edge {edges[bad[0]]} "), (n, edges, refusal)

    @pytest.mark.parametrize("pairs", MALFORMED_EDGE_LISTS)
    def test_refuses_each_malformed_edge_list(self, pairs):
        with pytest.raises(InvalidInput):
            LabeledGraph(4, pairs)

    @pytest.mark.parametrize("pairs", [
        [(0.0, 1)], [(0, 1.5)], [(0, 1), (2.0, 3.0)], [("0", "1")], [(0, 1), (2, "3")], ["01"],
    ])
    def test_refuses_float_and_string_entries(self, pairs):
        with pytest.raises(InvalidInput, match="must be integers"):
            LabeledGraph(4, pairs)

    def test_entries_are_read_as_integers(self):
        g = LabeledGraph(True + 2, [[False, True], (1, 2)])
        assert g == LabeledGraph(3, ((0, 1), (1, 2)))
        assert repr(g) == "LabeledGraph(n=3, pairs=((0, 1), (1, 2)))"
        assert all(type(x) is int for pair in g.pairs for x in pair)

    def test_bitsets_and_degrees_agree_on_every_small_graph(self):
        for n in range(6):
            slots = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(slots)):
                pairs = [e for k, e in enumerate(slots) if mask >> k & 1]
                g = LabeledGraph(n, pairs)
                bits = [0] * n
                for u, v in pairs:
                    bits[u] |= 1 << v
                    bits[v] |= 1 << u
                assert g.adj == tuple(bits)
                assert g.degrees() == tuple(bin(b).count("1") for b in bits)
                assert all(g.has_edge(u, v) == bool(bits[u] >> v & 1)
                           for u in range(n) for v in range(n))
                assert g.edge_count == len(pairs) == sum(g.degrees()) // 2

    def test_bitsets_are_cached_outside_the_fields(self):
        g = LabeledGraph.from_edges(3, [(0, 1)])
        assert g.adj is g.adj == (2, 1, 0)
        assert g == LabeledGraph(3, [(0, 1)]) and hash(g) == hash((3, ((0, 1),)))
        assert repr(g) == "LabeledGraph(n=3, pairs=((0, 1),))"
        with pytest.raises(AttributeError, match="frozen"):
            g.adj = (0, 0, 0)

    def test_canonical_key_is_sorted_edges(self):
        g = LabeledGraph.from_edges(4, [(2, 3), (0, 1)])
        assert g.edges() == ((0, 1), (2, 3))
        assert str(g) == "1-2,3-4"

    def test_edges_to_text_past_the_label_memo(self):
        # 44,850 distinct edges, more than the label memo holds, twice over.
        edges = list(itertools.combinations(range(300), 2))
        expected = ",".join(f"{u + 1}-{v + 1}" for u, v in edges)
        assert edges_to_text(edges) == expected
        assert edges_to_text(reversed(edges)) == ",".join(reversed(expected.split(",")))
