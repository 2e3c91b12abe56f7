"""Erdos-Gallai machinery for degree-sequence regions.

A non-increasing sequence d_1 >= ... >= d_n with even sum is graphic iff for
every k in [1, n]

    sum_{i<=k} d_i  <=  k(k-1) + sum_{i>k} min(d_i, k).

This module provides the full test, the Tripathi-Vijay reduction that checks
only descent indices, the least Erdos-Gallai (primitive) member of a region,
fully-graphic decisions for regions and grids of regions, and the
closed-form region predicates from the P-stability literature.

Costs.  Both tests share one scan (after Ivanyi, Lucz, Mori and Soter, 2011):
the prefix sums are built once, their total decides the odd sum, and a pointer
to the crossover (the number of entries >= k) only moves left as k grows, so a
test costs O(n) in all; it stops at the first k past the crossover where the
inequality holds, as every later one then holds (Tripathi and Vijay, 2003).
So does the stability bound at its own such k.  A fixed-sum region decision
costs O(1): it evaluates the inequality in closed form on the block form
(c1, alpha), (a, 1), (c2, beta) of the primitive member, at its block ends
only.  A very simple region decision, phi_FG and phi_JMS_star_k cost O(1):
each reads one minimum, see ``_min_slack``.  A sweep hands out the grid in
blocks of rows, one per (n, sigma), see ``_sweep_rows``: a block costs at most
2n region decisions and one list slice per c1, and an odd sum's block no
per-c1 work at all.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate, compress
from operator import gt

from .core import DegreeSequence, Record, SimpleRegion, VerySimpleRegion
from .errors import InvalidInput, MissingSigma, NotGraphic, check_limit


class EGReport(Record):
    """Outcome of a graphicality test.

    ``failing_k`` is the smallest index whose inequality fails, or None.
    ``checked_ks`` lists the indices decided, in test order (past the crossover, implied).
    An odd degree sum, read by the scan from its own total, short-circuits the test:
    ``graphic`` is False, ``odd_sum`` is True and no inequality is evaluated.
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
    """Decide the inequality at the increasing indices ``ks``, stopping at
    the first failure or at the crossover, in O(n + len(ks)).  An odd total,
    read from the prefix sums, is the odd-sum report, with no index decided.

    With ``w`` entries >= k, the entries after k that are capped at k are
    those at positions k+1..w, so with m = max(k, w) the right-hand side is
    k(k-1) + k(m-k) + (sum of the entries after m) = k(m-1) + total - prefix[m].
    Once w <= k (the crossover), d_{k+1} < k and the slack
    k(k-1) + total - 2 prefix[k] grows by 2(k - d_{k+1}) per step, so the scan
    stops at the first such k that holds; the later indices count as decided.
    """
    prefix = list(accumulate(degs, initial=0))
    total = prefix[-1]
    if total % 2:
        return EGReport(graphic=False, failing_k=None, checked_ks=[], odd_sum=True)
    w = len(degs)
    for i, k in enumerate(ks):
        while w and degs[w - 1] < k:
            w -= 1
        m = w if w > k else k
        if prefix[k] > k * (m - 1) + total - prefix[m]:
            return EGReport(graphic=False, failing_k=k, checked_ks=list(ks[: i + 1]))
        if m == k:
            break
    return EGReport(graphic=True, failing_k=None, checked_ks=list(ks))


def is_graphic(seq: DegreeSequence) -> EGReport:
    """Full graphicality test, checking every index until one fails."""
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
    descents = list(compress(range(1, n), map(gt, degs, degs[1:])))
    descents.append(n)
    return _eg_scan(degs, descents)


def _leg_blocks(region: SimpleRegion) -> tuple[int, int, int]:
    """(alpha, a, beta) with leg(region) = (c1)^alpha, a, (c2)^beta, a constant
    leg as (c1)^(n-1), c1; in O(1), without a bound on n."""
    n, sigma, c1, c2 = region.n, region.sigma, region.c1, region.c2
    if c1 == c2 or sigma == n * c1:
        return n - 1, c1, 0
    alpha, r = divmod(sigma - n * c2, c1 - c2)
    return alpha, c2 + r, n - 1 - alpha


def leg(region: SimpleRegion) -> DegreeSequence:
    """The least Erdos-Gallai sequence of the region.

    This is the unique primitive member (c1)^alpha, a, (c2)^(n-1-alpha) and
    the lexicographic maximum of the region; the region is fully graphic
    exactly when this sequence is graphic.  For c1 = c2 the region is the
    singleton constant sequence.  An n above ``WITNESS_MAX_SIZE`` raises
    TooLarge before any entry is built.
    """
    check_limit("WITNESS_MAX_SIZE", region.n)
    alpha, a, beta = _leg_blocks(region)
    return DegreeSequence((region.c1,) * alpha + (a,) + (region.c2,) * beta)


def _leg_text(region: SimpleRegion) -> str:
    """``str(leg(region))``, repeated block by block."""
    check_limit("WITNESS_MAX_SIZE", region.n)
    alpha, a, beta = _leg_blocks(region)
    return f"{region.c1}," * alpha + str(a) + f",{region.c2}" * beta


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


def _sweep_rows(n_min: int, n_max: int, with_sigma: bool, heads, tail) -> Iterator[tuple]:
    """The grid as blocks (n, sigma, row heads, row tails), one per (n, sigma),
    or one per n with sigma None in the plain grid, counted on the call.  Row
    (c1, c2) of a block has the head ``heads(c1)[c2]`` and, at the same place
    in the block's (c1, c2) order, the tail ``tail(n, sigma, label)``.  At
    fixed n (and sigma) a region only gains members as c1 rises or c2 falls,
    so one inside a fully graphic region is fully graphic.  So the fully
    graphic c2 of each c1 are those >= some t, and t never falls as c1 rises:
    one walk per block asks the predicate once per c1 and once per rise of t.
    """
    total = 0
    for n in range(max(n_min, 1), n_max + 1):  # ends soon after the limit
        # n(n+1)/2 pairs c1 >= c2, each with n(c1 - c2) + 1 sums
        total += n * (n + 1) // 2 + (n * n * (n * n - 1) // 6 if with_sigma else 0)
        check_limit("SWEEP_MAX_ROWS", total)
    return _staircase(range(max(n_min, 1), n_max + 1),  # n <= 0 has no c1 < n
                      with_sigma, heads, tail)


def _staircase(ns: range, with_sigma: bool, heads, tail) -> Iterator[tuple]:
    """The blocks of ``_sweep_rows`` over the n in ``ns``."""
    for n in ns:
        if not with_sigma:
            block, tails, t = [], [], 0
            no, yes, none = (tail(n, None, label)
                             for label in ("NOT_FULLY_GRAPHIC", "FULLY_GRAPHIC", "EMPTY"))
            for c1 in range(n):
                # c1 == c2 with n*c1 odd is the plain grid's one region without an even sum.
                hi = c1 - n * c1 % 2
                while t <= hi and _min_slack(n, c1, t) < -1:
                    t += 1
                block += heads(c1)
                tails += [no] * t + [yes] * (hi + 1 - t) + [none] * (c1 - hi)
            yield n, None, block, tails
            continue
        key = None
        for s in range(n * (n - 1) + 1):
            # n*c2 <= s <= n*c1: each c1 from ceil(s/n) up has the c2 0..q, so
            # the sums that share q and the first c1 share one list of heads.
            q, first = s // n, -(-s // n)
            if key != (q, first):
                key, block = (q, first), []
                for c1 in range(first, n):
                    block += heads(c1)[:q + 1]
            if s % 2:  # no member: one EMPTY tail per row
                yield n, s, block, [tail(n, s, "EMPTY")] * len(block)
                continue
            # each c1's t tails below the staircase and q + 1 - t above it, as one slice
            tails, t = [], 0
            window = ([tail(n, s, "NOT_FULLY_GRAPHIC")] * (q + 1)
                      + [tail(n, s, "FULLY_GRAPHIC")] * (q + 1))
            for c1 in range(first, n):
                while t <= q and not _leg_graphic(n, s, c1, t):
                    t += 1
                tails += window[q + 1 - t:2 * q + 2 - t]
            yield n, s, block, tails


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
    blocks = _sweep_rows(n_min, n_max, with_sigma,
                         lambda c1: [(c1, c2) for c2 in range(c1 + 1)], lambda n, s, label: label)
    return ({"n": n, "sigma": s, "c1": c1, "c2": c2, "classification": label} if with_sigma
            else {"n": n, "c1": c1, "c2": c2, "classification": label}
            for n, s, block, tails in blocks for (c1, c2), label in zip(block, tails))


def sweep(n_min: int, n_max: int, with_sigma: bool = False) -> list[dict]:
    """The rows of ``iter_sweep`` as a list."""
    return list(iter_sweep(n_min, n_max, with_sigma))


def satisfies_stability_bound(seq: DegreeSequence) -> bool:
    """Prefix-sum bound that certifies p(D) <= 3 * n^9 for graphic D.

    Holds iff for every k in [1, n]:
        sum_{i<=k} d_i <= k(k-1) + d_n * (n - k) + 1.
    From k to k + 1 the slack changes by 2k - d_n - d_{k+1}, which grows with
    k, so the scan stops at the first k that holds with d_{k+1} + d_n <= 2k.
    """
    degs = seq.degrees
    n = len(degs)
    dn = degs[-1]
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        if prefix > k * (k - 1) + dn * (n - k) + 1:
            return False
        if k < n and degs[k] + dn <= 2 * k:
            return True
    return True


def region_satisfies_stability_bound(region: SimpleRegion) -> bool:
    """Region-wide stability bound: the bound on leg(region), in O(1) and for any n.

    On a block of leg's entries equal to e, the slack
    k(k-1) + d_n(n-k) + 1 - (d_1 + ... + d_k) changes by 2k - d_n - e from k
    to k + 1, a convex quadratic in k, so it is least at k = ceil((d_n + e)/2)
    clamped into the block; each of the three blocks is read there only.
    """
    n, c1, c2 = region.n, region.c1, region.c2
    alpha, a, beta = _leg_blocks(region)
    dn = c2 if beta else a
    prefix = 0  # the entries before the block
    for lo, hi, e in ((1, alpha, c1), (alpha + 1, alpha + 1, a), (alpha + 2, n, c2)):
        if lo <= hi:
            k = min(max((dn + e + 1) // 2, lo), hi)
            if prefix + e * (k - lo + 1) > k * (k - 1) + dn * (n - k) + 1:
                return False
            prefix += e * (hi - lo + 1)
    return True


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
    def exception_bound(self) -> float | None:
        """For ``phi_eps``: regions with n below this bound may contain
        non-graphic members; every region at or above it is fully graphic.
        None for the other predicates; InvalidInput when it is above the
        largest float."""
        if self.name != "phi_eps":
            return None
        # 1 / (8 (1 - sqrt(1 - eps))^2), without the cancellation, in one exact quotient.
        from fractions import Fraction
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
