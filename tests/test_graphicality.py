import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degseq import (
    DegreeSequence,
    InvalidInput,
    MissingSigma,
    RegionPredicate,
    SimpleRegion,
    VerySimpleRegion,
    evaluate_predicate,
    is_graphic,
    is_graphic_tv,
    is_primitive,
    iter_region,
    jms_star_sigma_margin,
    leg,
    region_fully_graphic,
    region_satisfies_stability_bound,
    satisfies_stability_bound,
    sweep,
    very_simple_region_fully_graphic,
)
from conftest import all_sorted_sequences, brute_force_count


def all_simple_regions(n_max):
    for n in range(1, n_max + 1):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                start = n * c2 + (n * c2) % 2
                for sigma in range(start, n * c1 + 1, 2):
                    yield SimpleRegion(n, sigma, c1, c2)


def textbook_eg(degs, ks):
    """The literal Erdos-Gallai inequality at each k of ``ks``, in order,
    stopping at the first failure: (graphic, failing_k, checked_ks)."""
    checked = []
    for k in ks:
        checked.append(k)
        if sum(degs[:k]) > k * (k - 1) + sum(min(d, k) for d in degs[k:]):
            return False, k, checked
    return True, None, checked


def assert_matches_textbook(degs):
    """``is_graphic`` and ``is_graphic_tv`` against the textbook inequality."""
    n = len(degs)
    seq = DegreeSequence(degs)
    reports = [(is_graphic(seq), range(1, n + 1))]
    if degs[0] < n:
        descents = [k for k in range(1, n) if degs[k - 1] > degs[k]] + [n]
        reports.append((is_graphic_tv(seq), descents))
    for report, ks in reports:
        if sum(degs) % 2:
            assert report.odd_sum and not report.graphic, degs
            assert report.failing_k is None and report.checked_ks == [], degs
            continue
        graphic, failing_k, checked = textbook_eg(degs, ks)
        assert not report.odd_sum, degs
        assert (report.graphic, report.failing_k, report.checked_ks) == (
            graphic, failing_k, checked), degs


@st.composite
def degree_lists(draw):
    """A random graph's degrees on up to 300 vertices, some entries then
    raised or lowered (possibly to n and above), sorted non-increasing."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0, 1))
    degs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                degs[i] += 1
                degs[j] += 1
    for i, delta in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(-3, n + 3)), max_size=6)):
        degs[i] = max(0, degs[i] + delta)
    return tuple(sorted(degs, reverse=True))


class TestScanAgainstTextbook:
    def test_exhaustive_small(self):
        # entries up to n + 1, so degrees at and above n are covered too
        for n in range(1, 9):
            for degs in itertools.combinations_with_replacement(range(n + 1, -1, -1), n):
                assert_matches_textbook(degs)

    @settings(max_examples=80, deadline=None)
    @given(degree_lists())
    def test_random_up_to_300(self, degs):
        assert_matches_textbook(degs)


class TestIsGraphic:
    def test_complete_graph(self):
        assert is_graphic(DegreeSequence([3, 3, 3, 3])).graphic

    def test_staircase_region_generator(self):
        assert is_graphic(DegreeSequence([4, 4, 3, 1, 1, 1, 1, 1])).graphic

    def test_non_graphic_reports_first_failure(self):
        report = is_graphic(DegreeSequence([3, 3, 1, 1]))
        assert not report.graphic and report.failing_k == 2
        assert brute_force_count((3, 3, 1, 1)) == 0

    def test_odd_sum_flag(self):
        report = is_graphic(DegreeSequence([2, 1]))
        assert not report.graphic and report.odd_sum and report.failing_k is None
        assert report.checked_ks == []

    def test_entry_at_or_above_n_fails(self):
        assert not is_graphic(DegreeSequence([4, 2, 1, 1])).graphic


class TestTripathiVijay:
    def test_checked_indices_are_descents(self):
        report = is_graphic_tv(DegreeSequence([4, 4, 3, 1, 1, 1, 1, 1]))
        assert report.graphic and set(report.checked_ks) <= {2, 3, 8}

    def test_zero_sequence_checks_only_n(self):
        report = is_graphic_tv(DegreeSequence([0, 0, 0, 0]))
        assert report.graphic and report.checked_ks == [4]

    def test_failure_index(self):
        report = is_graphic_tv(DegreeSequence([5, 5, 1, 1, 1, 1]))
        assert not report.graphic and report.failing_k == 2
        assert brute_force_count((5, 5, 1, 1, 1, 1)) == 0

    def test_requires_max_degree_below_n(self):
        with pytest.raises(InvalidInput):
            is_graphic_tv(DegreeSequence([4, 2, 1, 1]))

    def test_agrees_with_full_test_exhaustively_small(self):
        for n in range(1, 9):
            for seq in all_sorted_sequences(n):
                d = DegreeSequence(seq)
                full = is_graphic(d)
                tv = is_graphic_tv(d)
                assert tv.graphic == full.graphic, seq
                descents = {k for k in range(1, n) if seq[k - 1] > seq[k]} | {n}
                assert set(tv.checked_ks) <= descents, seq


class TestLeg:
    def test_staircase_region(self):
        assert str(leg(SimpleRegion(8, 16, 4, 1))) == "4,4,3,1,1,1,1,1"

    def test_constant_region(self):
        # c1 == c2 forces sigma == n * c1, which must still be even
        assert str(leg(SimpleRegion(4, 12, 3, 3))) == "3,3,3,3"
        assert str(leg(SimpleRegion(6, 12, 2, 2))) == "2,2,2,2,2,2"

    def test_interior_value(self):
        assert str(leg(SimpleRegion(5, 12, 3, 2))) == "3,3,2,2,2"

    def test_max_sum_gives_constant(self):
        assert leg(SimpleRegion(4, 12, 3, 1)).degrees == (3, 3, 3, 3)

    def test_lex_maximal_in_enumerated_region(self):
        region = SimpleRegion(5, 12, 3, 2)
        members = list(iter_region(region))
        assert max(members) == leg(region)


class TestIsPrimitive:
    def test_examples(self):
        assert is_primitive(DegreeSequence([4, 4, 3, 1, 1, 1, 1, 1]), 4, 1)
        assert is_primitive(DegreeSequence([3, 3, 3]), 3, 3)
        assert not is_primitive(DegreeSequence([4, 3, 3, 1, 1]), 4, 1)

    def test_two_block_shapes(self):
        assert is_primitive(DegreeSequence([3, 3, 1, 1]), 3, 1)
        assert is_primitive(DegreeSequence([1, 1, 1]), 3, 1)
        assert is_primitive(DegreeSequence([3, 3, 3]), 3, 1)

    def test_out_of_band_value(self):
        assert not is_primitive(DegreeSequence([5, 3, 1]), 4, 1)


class TestFullyGraphic:
    def test_fixed_sum_examples(self):
        assert region_fully_graphic(SimpleRegion(8, 16, 4, 1))
        assert region_fully_graphic(SimpleRegion(4, 12, 3, 3))
        bad = SimpleRegion(6, 14, 5, 1)
        assert leg(bad).degrees == (5, 5, 1, 1, 1, 1)
        assert not region_fully_graphic(bad)

    def test_very_simple_examples(self):
        assert very_simple_region_fully_graphic(VerySimpleRegion(10, 3, 2))
        assert not very_simple_region_fully_graphic(VerySimpleRegion(6, 5, 1))
        for n in (1, 4, 9):
            assert very_simple_region_fully_graphic(VerySimpleRegion(n, 0, 0))

    def test_empty_constant_region_is_vacuously_fully_graphic(self):
        # odd n * c1 with c1 == c2 admits no even sum at all
        assert very_simple_region_fully_graphic(VerySimpleRegion(3, 1, 1))

    def test_matches_member_enumeration_small(self):
        for region in all_simple_regions(6):
            expected = all(is_graphic(d).graphic for d in iter_region(region))
            assert region_fully_graphic(region) == expected, region


class TestBlockFormDecisions:
    def test_fixed_sum_matches_scan_of_leg(self):
        for region in all_simple_regions(14):
            assert region_fully_graphic(region) == is_graphic(leg(region)).graphic, region

    def test_very_simple_matches_scan_of_every_leg(self):
        for n in range(1, 15):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    region = VerySimpleRegion(n, c1, c2)
                    expected = all(
                        is_graphic(leg(SimpleRegion(n, sigma, c1, c2))).graphic
                        for sigma in region.sigma_values()
                    )
                    assert very_simple_region_fully_graphic(region) == expected, region


class TestSweep:
    @staticmethod
    def brute_label(region):
        members = [is_graphic(d).graphic for d in iter_region(region)]
        if not members:
            return "EMPTY"
        return "FULLY_GRAPHIC" if all(members) else "NOT_FULLY_GRAPHIC"

    def test_matches_member_enumeration(self):
        expected, expected_sigma = [], []
        for n in range(1, 9):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    label = self.brute_label(VerySimpleRegion(n, c1, c2))
                    expected.append({"n": n, "c1": c1, "c2": c2, "classification": label})
                    for sigma in range(n * c2, n * c1 + 1):
                        label = "EMPTY" if sigma % 2 else self.brute_label(
                            SimpleRegion(n, sigma, c1, c2))
                        expected_sigma.append({"n": n, "sigma": sigma, "c1": c1,
                                               "c2": c2, "classification": label})
        expected_sigma.sort(key=lambda r: (r["n"], r["sigma"], r["c1"], r["c2"]))
        assert sweep(1, 8) == expected
        assert sweep(1, 8, with_sigma=True) == expected_sigma

    def test_empty_ranges(self):
        assert sweep(5, 4) == [] and sweep(-3, 0, with_sigma=True) == []
        assert sweep(-3, 1) == sweep(1, 1)


class TestOneStepMonotonicity:
    def test_exhaustive_small(self):
        # moving mass to an earlier position inside the band preserves
        # graphicality downward: if the shifted sequence is graphic, so was
        # the original
        for region in all_simple_regions(7):
            c1, c2, n = region.c1, region.c2, region.n
            for d in iter_region(region):
                degs = d.degrees
                g = is_graphic(d).graphic
                for ell in range(n):
                    for m in range(ell + 1, n):
                        if degs[ell] < c1 and degs[m] > c2:
                            shifted = list(degs)
                            shifted[ell] += 1
                            shifted[m] -= 1
                            if is_graphic(DegreeSequence(shifted)).graphic:
                                assert g, (degs, ell, m)


class TestFirstFailureWindow:
    def test_failing_k_between_c2_and_c1(self):
        for region in all_simple_regions(7):
            for d in iter_region(region):
                report = is_graphic(d)
                if not report.graphic:
                    assert region.c2 < report.failing_k <= region.c1, (d, region)


class TestStabilityBound:
    def test_examples(self):
        assert satisfies_stability_bound(DegreeSequence([4, 4, 3, 1, 1, 1, 1, 1]))
        assert satisfies_stability_bound(DegreeSequence([0, 0, 0]))
        assert not satisfies_stability_bound(DegreeSequence([5, 5, 1, 1, 1, 1]))

    def test_region_form_examples(self):
        assert region_satisfies_stability_bound(SimpleRegion(8, 16, 4, 1))
        assert not region_satisfies_stability_bound(SimpleRegion(6, 14, 5, 1))
        assert region_satisfies_stability_bound(SimpleRegion(4, 12, 3, 3))


class TestPredicates:
    def test_min_max_degree_form(self):
        p = RegionPredicate("phi_JMS")
        assert evaluate_predicate(p, 10, 3, 2)
        assert not evaluate_predicate(p, 6, 5, 1)

    def test_sum_form_margin(self):
        p = RegionPredicate("phi_JMS_star_sigma")
        assert not evaluate_predicate(p, 8, 4, 1, sigma=16)
        assert jms_star_sigma_margin(8, 16, 4, 1) == 8

    def test_zero_bounds_always_pass_fg(self):
        p = RegionPredicate("phi_FG")
        for n in (1, 5, 12):
            assert evaluate_predicate(p, n, 0, 0)

    def test_missing_sigma(self):
        for name in ("phi_JMS_star_sigma", "phi_GS", "phi_eps"):
            pred = RegionPredicate(name, epsilon=Fraction(1, 2) if name == "phi_eps" else None)
            with pytest.raises(MissingSigma):
                pred.evaluate(8, 4, 1)

    def test_phi_eps_validation_and_bound(self):
        with pytest.raises(InvalidInput):
            RegionPredicate("phi_eps")
        with pytest.raises(InvalidInput):
            RegionPredicate("phi_eps", epsilon=Fraction(3, 2))
        with pytest.raises(InvalidInput):
            RegionPredicate("phi_JMS", epsilon=Fraction(1, 2))
        p = RegionPredicate("phi_eps", epsilon=Fraction(8, 9))
        assert p.exception_bound == pytest.approx(9 / 32)
        assert RegionPredicate("phi_JMS").exception_bound is None

    def test_phi_gs_matches_phi_eps_at_one_ninth(self):
        gs = RegionPredicate("phi_GS")
        eps = RegionPredicate("phi_eps", epsilon=Fraction(8, 9))
        for n, sigma, c1, c2 in itertools.product(
            range(4, 30, 5), range(20, 120, 17), range(3, 7), range(2, 5)
        ):
            if not (n > c1 >= c2 and n * c1 >= sigma >= n * c2):
                continue
            assert gs.evaluate(n, c1, c2, sigma=sigma) == eps.evaluate(
                n, c1, c2, sigma=sigma
            )

    def test_forall_k_form_implies_fg_form(self):
        k_form = RegionPredicate("phi_JMS_star_k")
        fg_form = RegionPredicate("phi_FG")
        for n in range(1, 13):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    if k_form.evaluate(n, c1, c2):
                        assert fg_form.evaluate(n, c1, c2)


class TestTheoremScaleProperties:
    def test_fully_graphic_implies_fg_predicate(self):
        fg = RegionPredicate("phi_FG")
        for n in range(1, 13):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    if very_simple_region_fully_graphic(VerySimpleRegion(n, c1, c2)):
                        assert fg.evaluate(n, c1, c2), (n, c1, c2)

    def test_phi_eps_regions_above_exception_bound_fully_graphic(self):
        # 1 - eps = 1/9 only bites from n = 27 on (the sum forces n >= 9*c1),
        # so the sweep has to go that far to exercise real cells.
        for one_minus_eps, n_max in ((Fraction(1, 9), 30), (Fraction(1, 2), 16)):
            pred = RegionPredicate("phi_eps", epsilon=1 - one_minus_eps)
            cells = 0
            for n in range(1, n_max + 1):
                if n < pred.exception_bound:
                    continue
                for c1 in range(3, n):
                    for c2 in range(2, c1 + 1):
                        start = n * c2 + (n * c2) % 2
                        for sigma in range(start, n * c1 + 1, 2):
                            if pred.evaluate(n, c1, c2, sigma=sigma):
                                cells += 1
                                assert region_fully_graphic(
                                    SimpleRegion(n, sigma, c1, c2)
                                ), (n, sigma, c1, c2)
            assert cells > 0
