"""Erdos-Gallai machinery for degree-sequence regions.

A non-increasing sequence d_1 >= ... >= d_n with even sum is graphic iff for
every k in [1, n]

    sum_{i<=k} d_i  <=  k(k-1) + sum_{i>k} min(d_i, k).

This module provides the full test, the Tripathi-Vijay reduction that checks
only descent indices, the least Erdos-Gallai (primitive) member of a region,
fully-graphic decisions for regions and grids of regions, and the
closed-form region predicates from the P-stability literature.

Costs.  Both tests share one scan (after Ivanyi, Lucz, Mori and Soter): the
prefix sums are built once and a pointer to the crossover (the number of
entries >= k) only moves left as k grows, so a test costs O(n) in all.  A
fixed-sum region decision costs O(1): it evaluates the inequality in closed
form on the block form (c1, alpha), (a, 1), (c2, beta) of the primitive
member, at its block ends only.  A very simple region decision, phi_FG
and phi_JMS_star_k cost O(1): each reads one minimum, see ``_min_slack``.
A sweep makes at most 2n region decisions per (n, sigma), see ``_sweep_rows``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import accumulate

from .core import DegreeSequence, Record, SimpleRegion, VerySimpleRegion
from .errors import LIMITS, InvalidInput, MissingSigma, NotGraphic, check_limit

WITNESS_MAX_SIZE = LIMITS["WITNESS_MAX_SIZE"][0]


class EGReport(Record):
    """Outcome of a graphicality test.

    ``failing_k`` is the smallest index whose inequality fails, or None.
    ``checked_ks`` lists the indices actually evaluated, in test order.
    An odd degree sum short-circuits the test: ``graphic`` is False,
    ``odd_sum`` is True and no inequality is evaluated.
    """

    graphic: bool
    failing_k: int | None
    checked_ks: list[int]
    odd_sum: bool = False

    @property
    def reason(self) -> str:
        """Why a failed test failed: ``odd degree sum`` or ``inequality fails at k=K``."""
        return "odd degree sum" if self.odd_sum else f"inequality fails at k={self.failing_k}"


def _eg_scan(degs: tuple[int, ...], ks: Sequence[int]) -> EGReport:
    """Evaluate the inequality at the increasing indices ``ks``, stopping at
    the first failure, in O(n + len(ks)).

    With ``w`` entries >= k, the entries after k that are capped at k are
    those at positions k+1..w, so with m = max(k, w) the right-hand side is
    k(k-1) + k(m-k) + (sum of the entries after m) = k(m-1) + total - prefix[m].
    """
    prefix = list(accumulate(degs, initial=0))
    total = prefix[-1]
    w = len(degs)
    for i, k in enumerate(ks):
        while w and degs[w - 1] < k:
            w -= 1
        m = w if w > k else k
        if prefix[k] > k * (m - 1) + total - prefix[m]:
            return EGReport(graphic=False, failing_k=k, checked_ks=list(ks[: i + 1]))
    return EGReport(graphic=True, failing_k=None, checked_ks=list(ks))


def is_graphic(seq: DegreeSequence) -> EGReport:
    """Full graphicality test, checking every index until one fails."""
    if seq.sigma % 2:
        return EGReport(graphic=False, failing_k=None, checked_ks=[], odd_sum=True)
    return _eg_scan(seq.degrees, range(1, len(seq) + 1))


def require_graphic(seq: DegreeSequence) -> None:
    """Raise NotGraphic, with the reason of :func:`is_graphic`, unless ``seq``
    is graphic.  The package's one answer of "not graphic"."""
    report = is_graphic(seq)
    if not report.graphic:
        raise NotGraphic(f"{seq} is not graphic ({report.reason})")


def is_graphic_tv(seq: DegreeSequence) -> EGReport:
    """Graphicality via the Tripathi-Vijay reduction.

    Only indices k where d_k > d_{k+1}, plus k = n, need to be checked.
    Requires d_1 < n; agrees with :func:`is_graphic` on every valid input.
    """
    degs = seq.degrees
    n = len(degs)
    if degs[0] >= n:
        raise InvalidInput(f"reduction requires max degree below n, got d1={degs[0]}")
    if seq.sigma % 2:
        return EGReport(graphic=False, failing_k=None, checked_ks=[], odd_sum=True)
    descents = [k for k in range(1, n) if degs[k - 1] > degs[k]]
    descents.append(n)
    return _eg_scan(degs, descents)


def is_primitive(seq: DegreeSequence, c1: int, c2: int) -> bool:
    """Whether ``seq`` is (c1,...,c1, a, c2,...,c2) with c2 <= a <= c1."""
    if c1 < c2:
        return False
    degs = seq.degrees
    n = len(degs)
    k = 0
    while k < n and degs[k] == c1:
        k += 1
    tail = n
    while tail > k and degs[tail - 1] == c2:
        tail -= 1
    middle = degs[k:tail]
    if len(middle) > 1:
        return False
    if middle:
        return c2 <= middle[0] <= c1
    # Two pure blocks: the boundary entry on either side can play the role of a.
    return True


def leg(region: SimpleRegion) -> DegreeSequence:
    """The least Erdos-Gallai sequence of the region.

    This is the unique primitive member (c1)^alpha, a, (c2)^(n-1-alpha) and
    the lexicographic maximum of the region; the region is fully graphic
    exactly when this sequence is graphic.  For c1 = c2 the region is the
    singleton constant sequence.  An n above ``WITNESS_MAX_SIZE`` raises
    TooLarge before any entry is built.
    """
    n, sigma, c1, c2 = region.n, region.sigma, region.c1, region.c2
    check_limit("WITNESS_MAX_SIZE", WITNESS_MAX_SIZE, n)
    if c1 == c2:
        return DegreeSequence((c1,) * n)
    alpha = (sigma - n * c2) // (c1 - c2)
    if alpha >= n:  # only when sigma == n * c1
        return DegreeSequence((c1,) * n)
    a = sigma - (alpha * c1 + (n - 1 - alpha) * c2)
    return DegreeSequence((c1,) * alpha + (a,) + (c2,) * (n - 1 - alpha))


def _leg_graphic(n: int, sigma: int, c1: int, c2: int) -> bool:
    """Whether leg(n, sigma, c1, c2) is graphic, for valid region parameters.

    The block form is (c1, alpha), (a, 1), (c2, beta) with c2 <= a < c1 and
    beta = n - 1 - alpha.  By Tripathi-Vijay only the block ends alpha,
    alpha + 1 and n need the inequality; at k = n it always holds, because
    every entry is at most c1 <= n - 1.  A constant sequence (c1 == c2 or
    sigma == n * c1) with an even sum and entries below n is regular, hence
    graphic.
    """
    if c1 == c2:
        return True
    alpha, r = divmod(sigma - n * c2, c1 - c2)
    if alpha >= n:
        return True
    a = c2 + r
    beta = n - 1 - alpha
    # k = alpha: the a entry and the c2 block are capped at alpha.
    if alpha and alpha * c1 > (alpha * (alpha - 1) + (a if a < alpha else alpha)
                               + beta * (c2 if c2 < alpha else alpha)):
        return False
    # k = alpha + 1: only the c2 block lies after k.
    return alpha * c1 + a <= (alpha + 1) * alpha + beta * (c2 if c2 <= alpha else alpha + 1)


def region_fully_graphic(region: SimpleRegion) -> bool:
    """Whether every member of the fixed-sum region is graphic.  O(1)."""
    return _leg_graphic(region.n, region.sigma, region.c1, region.c2)


def _slack(n: int, c1: int, c2: int, k: int) -> int:
    """s(k) = k(k-1) + c2(n-k) - c1*k, the region's slack at k (see ``_min_slack``)."""
    return k * (k - 1) + c2 * (n - k) - c1 * k


def _min_slack(n: int, c1: int, c2: int) -> int:
    """min over 1 <= k <= n of s(k) (see ``_slack``); 0 if n < 1.

    As s(k+1) - s(k) = 2k - c1 - c2, the minimum is at v = (c1 + c2 + 1) // 2
    clamped into [1, n].  A region n > c1 >= c2 >= 0 is fully graphic iff
    the minimum is >= -1.  For a member D, LHS_k - RHS_k <= -s(k) if k > c2
    (entries are <= c1 up to k and >= c2 after it), and <= 0 if k <= c2
    (then RHS_k = k(n-1) >= c1*k).  So a failure at k with s(k) = -1 is
    tight: D = c1^k c2^(n-k), whose sum k(k-1) + 2c2(n-k) + 1 is odd, is
    no member.  Conversely, s(k) <= -2 forces c2 < k <= c1 < n, since
    s(k) >= k(n-1-c1) for k <= c2 and s(k) >= k(k-1-c1) for k > c1; then
    c1^k c2^(n-k), with one c2 raised to c2 + 1 if its sum is odd (adding
    at most 1 to RHS_k), is a member that fails at k.
    """
    if n < 1:
        return 0
    return _slack(n, c1, c2, min(max((c1 + c2 + 1) // 2, 1), n))


def very_simple_region_fully_graphic(region: VerySimpleRegion) -> bool:
    """Whether every member, over all admissible even sums, is graphic.

    Exactly when phi_FG holds (see ``_min_slack``), in O(1).  A region with
    no admissible even sum is empty and counts as fully graphic (vacuously).
    """
    return _min_slack(region.n, region.c1, region.c2) >= -1


SWEEP_MAX_ROWS = LIMITS["SWEEP_MAX_ROWS"][0]


def _sweep_rows(n_min: int, n_max: int, with_sigma: bool) -> Iterator[tuple]:
    """The grid as runs (n, sigma, c1, c2_lo, c2_hi, label) in (n, sigma, c1, c2)
    order, sigma None in the plain grid, counted on the call.  At fixed n (and
    sigma) a region only gains members as c1 rises or c2 falls, so one inside a
    fully graphic region is fully graphic.  So the fully graphic c2 of each c1
    are those >= some t, and t never falls as c1 rises: one walk per (n, sigma)
    asks the predicate once per c1 and once per rise of t.
    """
    total = 0
    for n in range(max(n_min, 1), n_max + 1):  # ends soon after the limit
        # n(n+1)/2 pairs c1 >= c2, each with n(c1 - c2) + 1 sums
        total += n * (n + 1) // 2 + (n * n * (n * n - 1) // 6 if with_sigma else 0)
        check_limit("SWEEP_MAX_ROWS", SWEEP_MAX_ROWS, total)
    return _staircase(range(max(n_min, 1), n_max + 1), with_sigma)  # n <= 0 has no c1 < n


def _staircase(ns: range, with_sigma: bool) -> Iterator[tuple]:
    """The runs of ``_sweep_rows`` over the n in ``ns``."""
    for n in ns:
        for s in range(n * (n - 1) + 1) if with_sigma else (None,):
            # An odd sum has no member: t = n puts every row below t, as EMPTY.
            t, below = (n, "EMPTY") if with_sigma and s % 2 else (0, "NOT_FULLY_GRAPHIC")
            # n*c2 <= s <= n*c1 means c2 <= floor and c1 >= ceil of s/n.
            for c1 in range(-(-s // n), n) if with_sigma else range(n):
                # c1 == c2 with n*c1 odd is the plain grid's one region without an even sum.
                hi = (c1 if c1 * n <= s else s // n) if with_sigma else c1 - n * c1 % 2
                while t <= hi and not (_leg_graphic(n, s, c1, t) if with_sigma
                                       else _min_slack(n, c1, t) >= -1):
                    t += 1
                if t:
                    yield n, s, c1, 0, t - 1 if t <= hi else hi, below
                if t <= hi:
                    yield n, s, c1, t, hi, "FULLY_GRAPHIC"
                if hi < c1 and not with_sigma:
                    yield n, s, c1, c1, c1, "EMPTY"


def iter_sweep(n_min: int, n_max: int, with_sigma: bool = False) -> Iterator[dict]:
    """Classify every region with n_min <= n <= n_max and n > c1 >= c2 >= 0.

    Each row is a dict with keys ``n``, ``c1``, ``c2`` and ``classification``
    (``FULLY_GRAPHIC``, ``NOT_FULLY_GRAPHIC`` or ``EMPTY``, the last for a
    region without a member with even sum), ordered by (n, c1, c2).  With
    ``with_sigma`` there is one row per sum n*c2 <= sigma <= n*c1, with the
    extra key ``sigma``, ordered by (n, sigma, c1, c2); odd sums are
    ``EMPTY``.  The rows are counted on the call, and a grid of more than
    ``SWEEP_MAX_ROWS`` rows raises TooLarge; each row is built only when the
    iterator reaches it.
    """
    return ({"n": n, "sigma": s, "c1": c1, "c2": c2, "classification": label} if with_sigma
            else {"n": n, "c1": c1, "c2": c2, "classification": label}
            for n, s, c1, lo, hi, label in _sweep_rows(n_min, n_max, with_sigma)
            for c2 in range(lo, hi + 1))


def sweep(n_min: int, n_max: int, with_sigma: bool = False) -> list[dict]:
    """The rows of ``iter_sweep`` as a list."""
    return list(iter_sweep(n_min, n_max, with_sigma))


def satisfies_stability_bound(seq: DegreeSequence) -> bool:
    """Prefix-sum bound that certifies p(D) <= 3 * n^9 for graphic D.

    Holds iff for every k in [1, n]:
        sum_{i<=k} d_i <= k(k-1) + d_n * (n - k) + 1.
    """
    degs = seq.degrees
    n = len(degs)
    dn = degs[-1]
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        if prefix > k * (k - 1) + dn * (n - k) + 1:
            return False
    return True


def region_satisfies_stability_bound(region: SimpleRegion) -> bool:
    """Region-wide stability bound; equivalent to the bound on leg(region)."""
    return satisfies_stability_bound(leg(region))


# ---------------------------------------------------------------------------
# Region predicates
# ---------------------------------------------------------------------------


def jms_star_sigma_margin(n: int, sigma: int, c1: int, c2: int) -> int:
    """LHS - RHS of the sum-form Jerrum-McKay-Sinclair inequality.

    The predicate holds iff the margin is <= 0:
        (sigma - n*c2)(n*c1 - sigma)
            <= (c1 - c2) * [ (sigma - n*c2)(n - c1 - 1) + (n*c1 - sigma)*c2 ].
    """
    lo = sigma - n * c2
    hi = n * c1 - sigma
    return lo * hi - (c1 - c2) * (lo * (n - c1 - 1) + hi * c2)


# name: (needs the degree sum, the exact formula over (n, c1, c2, sigma, epsilon))
_PREDICATES = {
    "phi_JMS": (False, lambda n, c1, c2, s, e: (c1 - c2 + 1) ** 2 <= 4 * c2 * (n - c1 - 1)),
    "phi_JMS_star_k": (False, lambda n, c1, c2, s, e: _min_slack(n, c1, c2) >= 0),
    "phi_JMS_star_sigma": (True, lambda n, c1, c2, s, e: jms_star_sigma_margin(n, s, c1, c2) <= 0),
    "phi_GS": (True, lambda n, c1, c2, s, e: 2 <= c2 and 3 <= c1 and 9 * c1 * c1 <= s),
    "phi_eps": (True, lambda n, c1, c2, s, e: 2 <= c2 and 3 <= c1 and c1 * c1 <= (1 - e) * s),
    # exact characterization of a fully graphic very simple region
    "phi_FG": (False, lambda n, c1, c2, s, e: _min_slack(n, c1, c2) >= -1),
}
PREDICATE_NAMES = tuple(_PREDICATES)


class RegionPredicate(Record, frozen=True):
    """A named closed-form predicate over region parameters.

    Evaluation is a pure function of (n, sigma, c1, c2); the sum is ignored
    by the very-simple predicates.  All comparisons are exact: square-root
    conditions are evaluated as integer or rational inequalities, with
    ``epsilon`` a rational in (0, 1] for ``phi_eps``.
    """

    name: str
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.name not in _PREDICATES:
            raise InvalidInput(f"unknown predicate {self.name!r}")
        if self.name == "phi_eps":
            if self.epsilon is None or not (0 < self.epsilon <= 1):
                raise InvalidInput("phi_eps needs a rational epsilon in (0, 1]")
        elif self.epsilon is not None:
            raise InvalidInput(f"{self.name} takes no epsilon")

    @property
    def needs_sigma(self) -> bool:
        return _PREDICATES[self.name][0]

    @property
    def exception_bound(self) -> float | None:
        """For ``phi_eps``: regions with n below this bound may contain
        non-graphic members; every region at or above it is fully graphic.
        None for the other predicates; InvalidInput when it is above the
        largest float."""
        if self.name != "phi_eps":
            return None
        # 1 / (8 (1 - sqrt(1 - eps))^2), without the cancellation, in one exact quotient.
        eps = Fraction(self.epsilon)
        bound = Fraction((1 + math.sqrt(1 - eps)) ** 2) / (8 * eps * eps)
        try:
            return float(bound)
        except OverflowError:
            raise InvalidInput("the phi_eps exception bound exceeds the largest float"
                               " (epsilon below about 5.3e-155)") from None

    def evaluate(self, n: int, c1: int, c2: int, sigma: int | None = None) -> bool:
        needs_sigma, holds = _PREDICATES[self.name]
        if needs_sigma and sigma is None:
            raise MissingSigma(f"{self.name} needs the degree sum")
        return holds(n, c1, c2, sigma, self.epsilon)
