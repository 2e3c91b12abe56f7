import ast
import decimal
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degseq import (
    DegreeSequence,
    InvalidInput,
    MissingSigma,
    NotGraphic,
    RegionPredicate,
    TooLarge,
    SimpleRegion,
    VerySimpleRegion,
    havel_hakimi_graph,
    is_graphic,
    is_graphic_tv,
    is_primitive,
    is_split_sequence,
    iter_region,
    jms_star_sigma_margin,
    leg,
    p_measure,
    region_fully_graphic,
    region_satisfies_stability_bound,
    require_graphic,
    satisfies_stability_bound,
    sweep,
    switch_connected,
    verify_family_bounds,
    very_simple_region_fully_graphic,
)
from degseq import graphicality
from degseq.cli import main
from degseq.graphicality import SWEEP_MAX_ROWS, _leg_graphic, _sweep_rows, iter_sweep
from conftest import all_sorted_sequences, brute_force_count


def all_simple_regions(n_max):
    for n in range(1, n_max + 1):
        for c1 in range(n):
            for c2 in range(c1 + 1):
                start = n * c2 + (n * c2) % 2
                for sigma in range(start, n * c1 + 1, 2):
                    yield SimpleRegion(n, sigma, c1, c2)


def per_sum_fully_graphic(n, c1, c2):
    """Oracle: the very simple region is fully graphic iff the primitive
    member of every admissible even sum is graphic."""
    start = n * c2 + (n * c2) % 2
    return all(_leg_graphic(n, sigma, c1, c2) for sigma in range(start, n * c1 + 1, 2))


def per_k_holds(n, c1, c2, slack):
    """Oracle: c1*k <= k(k-1) + c2(n-k) + slack at every 1 <= k <= n."""
    return all(c1 * k <= k * (k - 1) + c2 * (n - k) + slack for k in range(1, n + 1))


@st.composite
def near_boundary_regions(draw):
    """A very simple region with c2 within 3 of the least c2 meeting the
    Zverovich-Zverovich bound n >= (c1 + c2 + 1)^2 / 4c2, that is
    2n - (c1 + 1) - 2 sqrt(n(n - c1 - 1)), where the verdict flips."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    c1 = rng.randrange(n)
    c2 = 2 * n - (c1 + 1) - 2 * math.isqrt(n * (n - c1 - 1)) + rng.randint(-3, 3)
    return n, c1, min(max(c2, 0), c1)


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


class TestRequireGraphic:
    """The one gate: every call that needs a graphic input raises its NotGraphic."""

    @pytest.mark.parametrize("degs, why", [
        ("2,1,1,1", "odd degree sum"),
        ("3,3,1,1", "inequality fails at k=2"),
        ("4,1,1", "inequality fails at k=1")])
    @pytest.mark.parametrize("call", [
        require_graphic, havel_hakimi_graph, switch_connected, is_split_sequence,
        p_measure, verify_family_bounds])
    def test_each_caller_raises_the_erdos_gallai_reason(self, call, degs, why):
        with pytest.raises(NotGraphic) as exc:
            call(DegreeSequence.parse(degs))
        assert str(exc.value) == f"{degs} is not graphic ({why})"

    @pytest.mark.parametrize("degs, why", [
        ("2,1,1,1", "odd degree sum"), ("3,3,1,1", "inequality fails at k=2")])
    def test_check_prints_the_same_reason(self, capsys, degs, why):
        assert main(["check", degs]) == 0
        assert capsys.readouterr().out == f"not graphic ({why})\n"

    @pytest.mark.parametrize("command", ["pmeasure", "family-bounds"])
    def test_odd_sum_is_refused_before_any_count(self, capsys, command):
        # n = 22, so no entry is above n - 1, but the sum is odd: the counter
        # would run its step budget out before it found no realization.
        degs = ",".join(["11"] * 21 + ["10"])
        start = time.perf_counter()
        code = main([command, degs])
        assert time.perf_counter() - start < 0.5
        assert (code, *capsys.readouterr()) == (
            1, "", f"error: {degs} is not graphic (odd degree sum)\n")

    def test_one_raise_in_the_source(self):
        src = Path(graphicality.__file__).parent
        raises = [(path.name, getattr(top, "name", None))
                  for path in sorted(src.glob("*.py"))
                  for top in ast.parse(path.read_text()).body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Raise) and ast.unparse(node.exc).startswith("NotGraphic")]
        assert raises == [("graphicality.py", "require_graphic")]


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

    @settings(max_examples=60, deadline=None)
    @given(near_boundary_regions())
    def test_closed_form_matches_per_sum_loop_near_the_boundary(self, params):
        expected = per_sum_fully_graphic(*params)
        assert very_simple_region_fully_graphic(VerySimpleRegion(*params)) == expected
        assert RegionPredicate("phi_FG").evaluate(*params) == expected

    def test_huge_n_answers_at_once(self):
        # n = m^2 + slack with c1 = 2m - 2, c2 = 1 puts the minimum slack
        # (at k = m) at exactly `slack`; the per-k and per-sum loops would
        # never finish here.
        fg, k_form = RegionPredicate("phi_FG"), RegionPredicate("phi_JMS_star_k")
        m = 10**6
        cases = [(10**12, 3, 2, True, True), (10**12, 1, 0, True, False),
                 (10**12, 10**12 - 1, 0, False, False)]
        cases += [(m * m + slack, 2 * m - 2, 1, slack >= -1, slack >= 0)
                  for slack in (0, -1, -2)]
        start = time.perf_counter()
        for n, c1, c2, fully_graphic, star_k in cases:
            assert very_simple_region_fully_graphic(VerySimpleRegion(n, c1, c2)) == fully_graphic
            assert fg.evaluate(n, c1, c2) == fully_graphic, (n, c1, c2)
            assert k_form.evaluate(n, c1, c2) == star_k, (n, c1, c2)
        assert time.perf_counter() - start < 1


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

    def test_iter_sweep_is_lazy_and_checks_size_on_the_call(self):
        rows = iter_sweep(1, 30, with_sigma=True)  # 0.8 million rows, none built yet
        assert next(rows) == {"n": 1, "sigma": 0, "c1": 0, "c2": 0,
                              "classification": "FULLY_GRAPHIC"}
        assert list(iter_sweep(3, 5)) == sweep(3, 5)
        with pytest.raises(TooLarge):
            iter_sweep(2, 200, with_sigma=True)  # before any row is asked for
        with pytest.raises(TooLarge):
            _sweep_rows(2, 200, True)
        # Every row keeps its keys in this insertion order.
        for with_sigma, keys in ((False, ["n", "c1", "c2", "classification"]),
                                 (True, ["n", "sigma", "c1", "c2", "classification"])):
            assert all(list(row) == keys for row in sweep(1, 9, with_sigma))

    @staticmethod
    def rows(n, with_sigma):
        """Rows for one n: each pair c1 >= c2 once, or once per sum."""
        return sum(n * (c1 - c2) + 1 if with_sigma else 1
                   for c1 in range(n) for c2 in range(c1 + 1))

    def test_row_count_closed_form(self):
        for with_sigma in (False, True):
            for n in range(1, 13):
                assert len(sweep(n, n, with_sigma=with_sigma)) == self.rows(n, with_sigma)

    def test_size_limit(self):
        # the largest grids of the desk-scale sweeps stay well inside the limit
        assert sum(self.rows(n, True) for n in range(1, 13)) < SWEEP_MAX_ROWS // 10
        with pytest.raises(TooLarge, match=str(SWEEP_MAX_ROWS)):
            sweep(2, 200, with_sigma=True)
        with pytest.raises(TooLarge):
            sweep(1, 10**12)
        # the limit is on the whole grid: the last n that fits, then one more
        top = 1
        while sum(self.rows(n, True) for n in range(1, top + 2)) <= SWEEP_MAX_ROWS:
            top += 1
        assert sum(self.rows(n, True) for n in range(1, top + 1)) <= SWEEP_MAX_ROWS
        with pytest.raises(TooLarge):
            sweep(1, top + 1, with_sigma=True)


class TestSweepStaircase:
    """The sweep's threshold walk, against oracles that share none of its code."""

    @staticmethod
    def fixed_sum_label(n, sigma, c1, c2):
        if sigma % 2:
            return "EMPTY"
        graphic = is_graphic(leg(SimpleRegion(n, sigma, c1, c2))).graphic
        return "FULLY_GRAPHIC" if graphic else "NOT_FULLY_GRAPHIC"

    def test_every_row_matches_its_least_member(self):
        for n in range(1, 13):
            for row in sweep(n, n, with_sigma=True):
                assert row["classification"] == self.fixed_sum_label(
                    row["n"], row["sigma"], row["c1"], row["c2"]), row
            for row in sweep(n, n):
                labels = {self.fixed_sum_label(n, sigma, row["c1"], row["c2"])
                          for sigma in range(n * row["c2"], n * row["c1"] + 1)} - {"EMPTY"}
                expected = ("EMPTY" if not labels else "NOT_FULLY_GRAPHIC"
                            if "NOT_FULLY_GRAPHIC" in labels else "FULLY_GRAPHIC")
                assert row["classification"] == expected, row

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_region_inside_a_fully_graphic_one_is_fully_graphic(self, data):
        n = data.draw(st.integers(1, 40))
        c1 = data.draw(st.integers(0, n - 1))
        c2 = data.draw(st.integers(0, c1))
        assume(-(-n * c2 // 2) <= n * c1 // 2)  # the region has an even sum
        sigma = 2 * data.draw(st.integers(-(-n * c2 // 2), n * c1 // 2))
        if not _leg_graphic(n, sigma, c1, c2):
            return
        for inner_c1 in range(-(-sigma // n), c1 + 1):
            for inner_c2 in range(c2, min(inner_c1, sigma // n) + 1):
                assert _leg_graphic(n, sigma, inner_c1, inner_c2), (inner_c1, inner_c2)

    def test_calls_per_grid(self, monkeypatch):
        calls = []
        monkeypatch.setattr(graphicality, "_leg_graphic",
                            lambda *region: calls.append(region) or _leg_graphic(*region))
        rows = sweep(12, 12, with_sigma=True)
        assert len(rows) == TestSweep.rows(12, True) and len(calls) <= 700


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
        assert p.evaluate(10, 3, 2)
        assert not p.evaluate(6, 5, 1)

    def test_sum_form_margin(self):
        p = RegionPredicate("phi_JMS_star_sigma")
        assert not p.evaluate(8, 4, 1, sigma=16)
        assert jms_star_sigma_margin(8, 16, 4, 1) == 8

    def test_zero_bounds_always_pass_fg(self):
        p = RegionPredicate("phi_FG")
        for n in (1, 5, 12):
            assert p.evaluate(n, 0, 0)

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

    def test_phi_eps_exception_bound_is_accurate(self):
        # (1 + sqrt(1 - eps))^2 / (8 eps^2) = 1 / (8 (1 - sqrt(1 - eps))^2), to 50 digits
        context = decimal.Context(prec=50)
        for eps in map(Fraction, ("1e-17", "1e-10", "1/2", "8/9", "1")):
            e = context.divide(eps.numerator, eps.denominator)
            gap = context.subtract(1, context.sqrt(context.subtract(1, e)))
            exact = context.divide(1, context.multiply(8, context.power(gap, 2)))
            bound = RegionPredicate("phi_eps", epsilon=eps).exception_bound
            assert abs(decimal.Decimal(bound) - exact) <= exact * decimal.Decimal("1e-15"), eps

    def test_phi_eps_exception_bound_above_the_largest_float(self):
        for eps in (Fraction(1, 10**400), Fraction(5, 10**156)):
            with pytest.raises(InvalidInput, match="largest float"):
                RegionPredicate("phi_eps", epsilon=eps).exception_bound
        assert RegionPredicate("phi_eps", epsilon=Fraction(6, 10**155)).exception_bound > 1e308

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

    def test_k_forms_match_per_k_loops(self):
        k_form, fg = RegionPredicate("phi_JMS_star_k"), RegionPredicate("phi_FG")
        for n, c1, c2 in itertools.product(range(-2, 25), range(-3, 30), range(-3, 30)):
            assert k_form.evaluate(n, c1, c2) == per_k_holds(n, c1, c2, 0), (n, c1, c2)
            assert fg.evaluate(n, c1, c2) == per_k_holds(n, c1, c2, 1), (n, c1, c2)

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
        # and conversely: phi_FG is the exact characterization
        fg = RegionPredicate("phi_FG")
        for n in range(1, 41):
            for c1 in range(n):
                for c2 in range(c1 + 1):
                    expected = per_sum_fully_graphic(n, c1, c2)
                    region = VerySimpleRegion(n, c1, c2)
                    assert very_simple_region_fully_graphic(region) == expected, region
                    assert fg.evaluate(n, c1, c2) == expected, region

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
