"""The record contract: every record type built on ``core.Record`` keeps the
repr, equality, hashing, immutability and defaults its earlier
``dataclasses`` form had.  The golden reprs were taken from that form."""

import pickle
from collections import Counter
from fractions import Fraction

import pytest

from degseq import (
    ChainConfig,
    CountResult,
    DegreeSequence,
    EGReport,
    InvalidInput,
    LabeledGraph,
    MultiplicativityReport,
    NonstabilityWitness,
    Perturbation,
    PerturbationFamilyCount,
    PerturbationKind,
    RegionPredicate,
    SampleResult,
    SimpleRegion,
    SplitGraph,
    SplitVerdict,
    SplitWitness,
    VerySimpleRegion,
)
from degseq.core import Record
from degseq.enumeration import BoundCheck, FamilyBoundsReport

K = PerturbationKind


def graph():
    return LabeledGraph.from_edges(3, [(0, 1)])


def split():
    star = LabeledGraph.from_edges(3, [(0, 1), (0, 2)])
    return SplitGraph(star, frozenset({0}), frozenset({1, 2}))


def witness():
    return SplitWitness(DegreeSequence([2, 1, 1]), 1, 2, 2, 0)


# (factory, golden repr); each factory builds a fresh, equal record.
CASES = [
    (lambda: DegreeSequence([1, 3, 2]), "DegreeSequence(degrees=(3, 2, 1))"),
    (lambda: VerySimpleRegion(4, 2, 1), "VerySimpleRegion(n=4, c1=2, c2=1)"),
    (lambda: SimpleRegion(4, 6, 2, 1), "SimpleRegion(n=4, sigma=6, c1=2, c2=1)"),
    (lambda: Perturbation(K.PLUS_MINUS, 1, 2),
     "Perturbation(kind=<PerturbationKind.PLUS_MINUS: '+-'>, i=1, j=2)"),
    (graph, "LabeledGraph(n=3, pairs=((0, 1),))"),
    (lambda: CountResult(6, 5, False),
     "CountResult(count=6, nodes_explored=5, from_cache=False)"),
    (lambda: PerturbationFamilyCount(K.MINUS_MINUS, 3, 2),
     "PerturbationFamilyCount(family=<PerturbationKind.MINUS_MINUS: '--'>, total=3, "
     "distinct_vectors=2)"),
    (lambda: BoundCheck("pair_bound", 1, 2), "BoundCheck(name='pair_bound', lhs=1, rhs=2)"),
    (lambda: FamilyBoundsReport(2, 1, {K.PLUS_PLUS: 0}, (BoundCheck("pair_bound", 1, 2),), False),
     "FamilyBoundsReport(n=2, base_count=1, family_totals={<PerturbationKind.PLUS_PLUS: '++'>: 0}, "
     "checks=(BoundCheck(name='pair_bound', lhs=1, rhs=2),), plus_minus_empty=False)"),
    (lambda: EGReport(False, 2, [1, 2]),
     "EGReport(graphic=False, failing_k=2, checked_ks=[1, 2], odd_sum=False)"),
    (lambda: RegionPredicate("phi_eps", Fraction(1, 2)),
     "RegionPredicate(name='phi_eps', epsilon=Fraction(1, 2))"),
    (lambda: ChainConfig(seed=1, steps=2), "ChainConfig(seed=1, steps=2, burn_in=0)"),
    (lambda: SampleResult(graph(), Counter({"1-2": 2}), {"seed": 1}),
     "SampleResult(final=LabeledGraph(n=3, pairs=((0, 1),)), histogram=Counter({'1-2': 2}), "
     "metadata={'seed': 1})"),
    (lambda: SplitVerdict(True, 2, 2, 2), "SplitVerdict(is_split=True, m=2, lhs=2, rhs=2)"),
    (split, "SplitGraph(graph=LabeledGraph(n=3, pairs=((0, 1), (0, 2))), clique=frozenset({0}), "
            "independent=frozenset({1, 2}))"),
    (witness, "SplitWitness(sequence=DegreeSequence(degrees=(2, 1, 1)), ell=1, cross_edges=2, "
              "c=2, alpha=0)"),
    (lambda: MultiplicativityReport(1, 1, 1),
     "MultiplicativityReport(composed_count=1, split_count=1, other_count=1)"),
    (lambda: NonstabilityWitness(DegreeSequence([1, 1]), DegreeSequence([2, 2, 2]), 1,
                                 witness(), True),
     "NonstabilityWitness(base=DegreeSequence(degrees=(1, 1)), "
     "perturbed=DegreeSequence(degrees=(2, 2, 2)), m=1, "
     "witness=SplitWitness(sequence=DegreeSequence(degrees=(2, 1, 1)), ell=1, cross_edges=2, "
     "c=2, alpha=0), unique_verified=True, base_count=None, perturbed_count=None)"),
]
FROZEN = {DegreeSequence, VerySimpleRegion, SimpleRegion, Perturbation, LabeledGraph,
          RegionPredicate, ChainConfig, SplitGraph}
IDS = [repr(make()).partition("(")[0] for make, _ in CASES]


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_every_record_type_is_covered():
    assert len(CASES) == 18 and len(set(IDS)) == 18
    assert all(isinstance(make(), Record) for make, _ in CASES)
    assert FROZEN <= {type(make()) for make, _ in CASES}


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_repr_matches_the_dataclass_form(make, golden):
    assert repr(make()) == golden


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_equality_compares_fields_of_one_class(make, golden):
    a, b = make(), make()
    assert a == b and not a != b
    assert a != fields(a) and a.__eq__(fields(a)) is NotImplemented
    assert type(a).__match_args__ == tuple(vars(a))


@pytest.mark.parametrize("make, golden", CASES, ids=IDS)
def test_frozen_records_hash_as_their_fields_and_refuse_changes(make, golden):
    record = make()
    name = type(record).__match_args__[0]
    if type(record) not in FROZEN:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        setattr(record, name, None)
        assert getattr(record, name) is None
        return
    expected = hash(record.graph) if type(record) is SplitGraph else hash(fields(record))
    assert hash(record) == hash(make()) == expected
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(record, name)
    assert repr(record) == golden
    assert pickle.loads(pickle.dumps(record)) == record


def test_split_graphs_compare_their_graphs_only():
    other = SplitGraph(split().graph, frozenset({0, 1}), frozenset({2}))
    assert other == split() and hash(other) == hash(split())
    assert {split(), other} == {split()}


@pytest.mark.parametrize("call, message", [
    (lambda: CountResult(6, 5), "missing field 'from_cache'"),
    (lambda: CountResult(6, 5, False, 1), "takes 3 fields, got 4"),
    (lambda: CountResult(6, 5, from_cache=False, total=1), "has no field 'total'"),
    (lambda: CountResult(6, 5, False, count=6), "got field 'count' twice"),
    (lambda: ChainConfig(steps=2), "missing field 'seed'"),
    (lambda: EGReport(True, None), "missing field 'checked_ks'"),
    (lambda: SampleResult(graph(), Counter()), "missing field 'metadata'"),
])
def test_bad_arguments_raise_type_error(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_defaults():
    assert ChainConfig(1, 2).burn_in == 0
    assert EGReport(True, None, []).odd_sum is False
    assert Perturbation(K.PLUS_TWO, 3).j is None
    assert RegionPredicate("phi_FG").epsilon is None
    nw = NonstabilityWitness(DegreeSequence([1, 1]), DegreeSequence([2, 2, 2]), 1, witness(),
                             True)
    assert nw.base_count is None and nw.perturbed_count is None
    assert ChainConfig(1, 2, burn_in=3) == ChainConfig(1, 2, 3)


def test_post_init_runs_on_keyword_construction():
    with pytest.raises(InvalidInput, match="steps and burn_in"):
        ChainConfig(seed=1, steps=-1)


def test_degree_sequences_are_ordered_by_entry_tuples():
    seqs = [DegreeSequence(d) for d in ([2, 2], [1, 1, 0], [3, 1, 1, 1], [1, 1])]
    assert [s.degrees for s in sorted(seqs)] == sorted(s.degrees for s in seqs)
    assert DegreeSequence([1, 1]) < DegreeSequence([2, 2]) <= DegreeSequence([2, 2])
    assert DegreeSequence([3, 1, 1, 1]) > DegreeSequence([2, 2]) >= DegreeSequence([1, 1])
    assert max(seqs).degrees == (3, 1, 1, 1)
    assert DegreeSequence([1, 1]).__lt__((1, 1)) is NotImplemented
    with pytest.raises(TypeError):
        DegreeSequence([1, 1]) < (2, 2)
