"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Everything here is exact: the graph-side ground truth is
the edge-subset census from conftest, which shares no code with the library
algorithms it arbitrates.
"""

from __future__ import annotations

import itertools
import time

from degseq import (
    ChainConfig,
    DegreeSequence,
    PerturbationKind,
    SimpleRegion,
    VerySimpleRegion,
    count_staircase_family,
    enumerate_realizations,
    is_graphic,
    is_graphic_tv,
    iter_region,
    jms_star_sigma_margin,
    leg,
    membership,
    nonstability_witness,
    p_measure,
    region_fully_graphic,
    region_satisfies_stability_bound,
    sample,
    satisfies_stability_bound,
    split_witness,
    switch_connected,
    tv_distance_to_uniform,
    verify_family_bounds,
    verify_multiplicativity,
    very_simple_region_fully_graphic,
)
from degseq.mcmc import havel_hakimi_graph
from degseq.splitgraph import is_split_sequence
from conftest import (
    all_sorted_sequences,
    degree_census,
    greedy_split_graph,
    has_split_partition,
    switch_component,
)


def _criterion(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
    print(f"acceptance {number:02d} [{label}]: {status}")
    assert not failures, f"criterion {number} ({label}): first failures {failures[:5]}"


def _simple_regions(n_max: int):
    for n in range(1, n_max + 1):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                start = n * c2 + (n * c2) % 2
                for sigma in range(start, n * c1 + 1, 2):
                    yield SimpleRegion(n, sigma, c1, c2)


def test_criterion_01_graphicality_oracle():
    failures = []
    for n in range(1, 8):
        census = degree_census(n)
        for seq in all_sorted_sequences(n):
            verdict = is_graphic(DegreeSequence(seq)).graphic
            truth = census.get(seq, 0) > 0
            if verdict != truth:
                failures.append(seq)
    _criterion(1, "graphicality equals edge-subset enumeration, n<=7", failures)


def test_criterion_02_tripathi_vijay_reduction():
    failures = []
    for n in range(1, 8):
        for seq in all_sorted_sequences(n):
            d = DegreeSequence(seq)
            full = is_graphic(d)
            reduced = is_graphic_tv(d)
            descents = {k for k in range(1, n) if seq[k - 1] > seq[k]} | {n}
            if reduced.graphic != full.graphic or not set(reduced.checked_ks) <= descents:
                failures.append(seq)
    _criterion(2, "descent-index reduction agrees everywhere, n<=7", failures)


def test_criterion_03_least_eg_machinery():
    failures = []
    for region in _simple_regions(7):
        base = leg(region)
        members = list(iter_region(region))
        # primitive: (c1, ..., c1, a, c2, ..., c2), so one entry at most strictly between
        primitive_members = [
            d for d in members if sum(region.c2 < x < region.c1 for x in d) <= 1
        ]
        all_graphic = all(is_graphic(d).graphic for d in members)
        ok = (
            membership(base, region)
            and primitive_members == [base]
            and max(members) == base
            and region_fully_graphic(region) == all_graphic
        )
        if not ok:
            failures.append(region)
    _criterion(3, "region generator: member, unique primitive, lex-max, decides", failures)


def test_criterion_04_min_max_degree_theorem():
    failures = []
    for n in range(1, 13):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                if (c1 - c2 + 1) ** 2 <= 4 * c2 * (n - c1 - 1):
                    if not very_simple_region_fully_graphic(VerySimpleRegion(n, c1, c2)):
                        failures.append((n, c1, c2))
    _criterion(4, "min/max-degree inequality forces fully graphic, n<=12", failures)


def test_criterion_05_sum_form_theorem():
    failures = []
    for region in _simple_regions(12):
        if jms_star_sigma_margin(region.n, region.sigma, region.c1, region.c2) <= 0:
            if not region_fully_graphic(region):
                failures.append(region)
    _criterion(5, "sum-form inequality forces fully graphic, n<=12", failures)


def test_criterion_06_generator_family(counter):
    failures = []
    for m in range(4, 11):
        region = SimpleRegion(2 * m, 4 * m, m, 1)
        base = leg(region)
        expected = (m, m, 3) + (1,) * (2 * m - 3)
        if base.degrees != expected:
            failures.append((m, "leg"))
        if jms_star_sigma_margin(2 * m, 4 * m, m, 1) != 2 * m * m - 6 * m:
            failures.append((m, "margin"))
        if not satisfies_stability_bound(base):
            failures.append((m, "bound"))
    if counter.count(DegreeSequence((4, 4, 3) + (1,) * 5)).count <= 0:
        failures.append((4, "count"))
    _criterion(6, "(m,m,3,1...) family: shape, margin 2m^2-6m, bound", failures)


def test_criterion_07_staircase_counts(counter):
    failures = []
    counts = {m: count_staircase_family(m, counter) for m in range(2, 7)}
    for m in (2, 3, 4, 5):
        if counts[m][0] != 1:
            failures.append((m, "base", counts[m][0]))
    for m in (2, 3, 4):
        if not counts[m][1] < counts[m + 1][1]:
            failures.append((m, "monotone"))
    for m in (4, 5):
        if counts[m + 1][1] < 2 * counts[m][1]:
            failures.append((m, "ratio", counts[m + 1][1], counts[m][1]))
    _criterion(7, "staircase: unique base, exploding bumped counts", failures)


def test_criterion_08_family_bounds(counter):
    failures = []
    for n in range(1, 7):
        census = degree_census(n)
        for seq in all_sorted_sequences(n):
            if census.get(seq, 0) == 0:
                continue
            report = verify_family_bounds(DegreeSequence(seq), counter)
            if not report.all_hold:
                failures.append(seq)
    for n in range(2, 7):
        report = verify_family_bounds(DegreeSequence([0] * n), counter)
        if report.family_totals[PerturbationKind.PLUS_MINUS] != 0:
            failures.append(("zero", n, "+- not empty"))
        if report.family_totals[PerturbationKind.PLUS_PLUS] <= 0:
            failures.append(("zero", n, "++ empty"))
    _criterion(8, "family bounds exact for all graphic n<=6, zero-sequence edge", failures)


def test_criterion_09_stability_measure(counter):
    failures = []
    for n in range(1, 9):
        bound = 3 * n**9
        for seq in all_sorted_sequences(n):
            d = DegreeSequence(seq)
            if not satisfies_stability_bound(d):
                continue
            if counter.count(d).count == 0:
                continue
            if p_measure(d, counter) > bound:
                failures.append(seq)
    for region in _simple_regions(7):
        region_wide = all(
            satisfies_stability_bound(d) for d in iter_region(region)
        )
        if region_satisfies_stability_bound(region) != region_wide:
            failures.append(region)
    _criterion(9, "p(D) <= 3n^9 under the prefix bound; region form equivalent", failures)


def test_criterion_10_split_machinery():
    failures = []
    for n in range(1, 8):
        for seq in all_sorted_sequences(n):
            d = DegreeSequence(seq)
            if not is_graphic(d).graphic:
                continue
            expected = is_split_sequence(d).is_split
            for g in enumerate_realizations(d):
                if has_split_partition(g) != expected:
                    failures.append((seq, g.edges()))
                    break
    for n in range(2, 11):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                region = VerySimpleRegion(n, c1, c2)
                witness = split_witness(region)
                if very_simple_region_fully_graphic(region):
                    if witness is not None:
                        failures.append((region, "unexpected witness"))
                    continue
                if witness is None:
                    failures.append((region, "missing witness"))
                    continue
                seq = witness.sequence
                if not (
                    is_split_sequence(seq).is_split
                    and membership(seq, region)
                    and is_graphic(seq).graphic
                ):
                    failures.append((region, str(seq)))
    _criterion(10, "split verdicts match partition search; witnesses on all n<=10", failures)


def test_criterion_11_multiplicativity(counter):
    failures = []
    split_sequences = [
        (0,),
        (1, 1),
        (2, 1, 1),
        (2, 2, 2),
        (3, 2, 2, 1),
        (2, 2, 1, 1),
        (3, 3, 1, 1, 1, 1),
        (5, 4, 4, 4, 4, 1),
    ]
    other_sequences = [
        (0,),
        (1, 1),
        (2, 1, 1),
        (1, 1, 1, 1),
        (2, 2, 2),
        (3, 3, 3, 3),
        (2, 2, 1, 1),
        (2, 2, 2, 2, 2),
    ]
    pairs = 0
    for s_deg, o_deg in itertools.product(split_sequences, other_sequences):
        if len(s_deg) + len(o_deg) > 12:
            continue
        split = greedy_split_graph(DegreeSequence(s_deg))
        other = havel_hakimi_graph(DegreeSequence(o_deg))
        report = verify_multiplicativity(split, other, counter)
        pairs += 1
        if not report.holds:
            failures.append((s_deg, o_deg, report))
    if pairs < 20:
        failures.append(("too few pairs", pairs))
    _criterion(11, f"count multiplicativity exact on {pairs} compositions", failures)


def test_criterion_12_nonstability_growth(counter):
    failures = []
    perturbed_counts = []
    for stretch in (2, 3, 4):
        witness = nonstability_witness(
            6, 6 + stretch, 5, 1, verify=True, counter=counter
        )
        if witness is None:
            failures.append((stretch, "missing"))
            continue
        if witness.base_count != 1:
            failures.append((stretch, "base", witness.base_count))
        perturbed_counts.append(witness.perturbed_count)
    if perturbed_counts != sorted(perturbed_counts) or len(
        set(perturbed_counts)
    ) != len(perturbed_counts):
        failures.append(("growth", perturbed_counts))
    _criterion(12, "unique base count, strictly growing bumped counts", failures)


def test_criterion_13_switch_chain(counter):
    failures = []
    for n in range(1, 8):
        for seq in all_sorted_sequences(n):
            d = DegreeSequence(seq)
            total = counter.count(d).count
            if total == 0:
                continue
            if switch_component(d) != total or not switch_connected(d):
                failures.append(seq)
    start = time.monotonic()
    seq = DegreeSequence([2, 2, 2, 1, 1])  # 7 realizations
    states = [g.edges() for g in enumerate_realizations(seq)]
    assert 3 <= len(states) <= 50
    steps = 100_000
    run = sample(seq, ChainConfig(seed=20250810, steps=steps))
    tv = tv_distance_to_uniform(run.histogram, len(states), steps)
    elapsed = time.monotonic() - start
    if tv >= 0.05:
        failures.append(("tv", tv))
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _criterion(13, "switch graph connected n<=7; TV < 0.05 at 1e5 steps", failures)
