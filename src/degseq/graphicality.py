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
member, at its block ends only.  A very simple region costs O(1) per
admissible sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .core import DegreeSequence, SimpleRegion, VerySimpleRegion
from .errors import InvalidInput, MissingSigma


@dataclass
class EGReport:
    """Outcome of a graphicality test.

    ``failing_k`` is the smallest index whose inequality fails, or None.
    ``checked_ks`` lists the indices actually evaluated, in test order.
    An odd degree sum short-circuits the test: ``graphic`` is False,
    ``odd_sum`` is True and no inequality is evaluated.
    """

    graphic: bool
    failing_k: int | None
    checked_ks: list[int] = field(default_factory=list)
    odd_sum: bool = False


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
        return EGReport(graphic=False, failing_k=None, odd_sum=True)
    return _eg_scan(seq.degrees, range(1, len(seq) + 1))


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
        return EGReport(graphic=False, failing_k=None, odd_sum=True)
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
    singleton constant sequence.
    """
    n, sigma, c1, c2 = region.n, region.sigma, region.c1, region.c2
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
    if alpha and alpha * c1 > alpha * (alpha - 1) + min(a, alpha) + beta * min(c2, alpha):
        return False
    # k = alpha + 1: only the c2 block lies after k.
    return alpha * c1 + a <= (alpha + 1) * alpha + beta * min(c2, alpha + 1)


def region_fully_graphic(region: SimpleRegion) -> bool:
    """Whether every member of the fixed-sum region is graphic.  O(1)."""
    return _leg_graphic(region.n, region.sigma, region.c1, region.c2)


def very_simple_region_fully_graphic(region: VerySimpleRegion) -> bool:
    """Whether every member, over all admissible even sums, is graphic.

    A region with no admissible even sum is empty and counts as fully
    graphic (vacuously).  O(1) per admissible sum.
    """
    n, c1, c2 = region.n, region.c1, region.c2
    return all(_leg_graphic(n, sigma, c1, c2) for sigma in region.sigma_values())


def _label(fully_graphic: bool) -> str:
    return "FULLY_GRAPHIC" if fully_graphic else "NOT_FULLY_GRAPHIC"


def sweep(n_min: int, n_max: int, with_sigma: bool = False) -> list[dict]:
    """Classify every region with n_min <= n <= n_max and n > c1 >= c2 >= 0.

    Each row is a dict with keys ``n``, ``c1``, ``c2`` and ``classification``
    (``FULLY_GRAPHIC``, ``NOT_FULLY_GRAPHIC`` or ``EMPTY``, the last for a
    region without a member with even sum), ordered by (n, c1, c2).  With
    ``with_sigma`` there is one row per sum n*c2 <= sigma <= n*c1, with the
    extra key ``sigma``, ordered by (n, sigma, c1, c2); odd sums are
    ``EMPTY``.
    """
    rows = []
    for n in range(max(n_min, 1), n_max + 1):  # n <= 0 has no c1 < n
        if with_sigma:
            for sigma in range(n * (n - 1) + 1):
                odd = sigma % 2
                # n*c2 <= sigma <= n*c1 means c2 <= floor and c1 >= ceil of sigma/n.
                for c1 in range(-(-sigma // n), n):
                    for c2 in range(min(c1, sigma // n) + 1):
                        label = "EMPTY" if odd else _label(_leg_graphic(n, sigma, c1, c2))
                        rows.append({"n": n, "sigma": sigma, "c1": c1, "c2": c2,
                                     "classification": label})
            continue
        for c1 in range(n):
            for c2 in range(c1 + 1):
                if c1 == c2 and n * c1 % 2:  # the only case without an even sum
                    label = "EMPTY"
                else:
                    label = _label(very_simple_region_fully_graphic(
                        VerySimpleRegion(n, c1, c2)))
                rows.append({"n": n, "c1": c1, "c2": c2, "classification": label})
    return rows


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

PREDICATE_NAMES = (
    "phi_JMS",
    "phi_JMS_star_k",
    "phi_JMS_star_sigma",
    "phi_GS",
    "phi_eps",
    "phi_FG",
)

_SIGMA_PREDICATES = frozenset({"phi_JMS_star_sigma", "phi_GS", "phi_eps"})


def jms_star_sigma_margin(n: int, sigma: int, c1: int, c2: int) -> int:
    """LHS - RHS of the sum-form Jerrum-McKay-Sinclair inequality.

    The predicate holds iff the margin is <= 0:
        (sigma - n*c2)(n*c1 - sigma)
            <= (c1 - c2) * [ (sigma - n*c2)(n - c1 - 1) + (n*c1 - sigma)*c2 ].
    """
    lo = sigma - n * c2
    hi = n * c1 - sigma
    return lo * hi - (c1 - c2) * (lo * (n - c1 - 1) + hi * c2)


@dataclass(frozen=True)
class RegionPredicate:
    """A named closed-form predicate over region parameters.

    Evaluation is a pure function of (n, sigma, c1, c2); the sum is ignored
    by the very-simple predicates.  All comparisons are exact: square-root
    conditions are evaluated as integer or rational inequalities, with
    ``epsilon`` a rational in (0, 1] for ``phi_eps``.
    """

    name: str
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.name not in PREDICATE_NAMES:
            raise InvalidInput(f"unknown predicate {self.name!r}")
        if self.name == "phi_eps":
            if self.epsilon is None or not (0 < self.epsilon <= 1):
                raise InvalidInput("phi_eps needs a rational epsilon in (0, 1]")
        elif self.epsilon is not None:
            raise InvalidInput(f"{self.name} takes no epsilon")

    @property
    def needs_sigma(self) -> bool:
        return self.name in _SIGMA_PREDICATES

    @property
    def exception_bound(self) -> float | None:
        """For ``phi_eps``: regions with n below this bound may contain
        non-graphic members; every region at or above it is fully graphic.
        None for the other predicates."""
        if self.name != "phi_eps":
            return None
        return 1.0 / (8.0 * (1.0 - math.sqrt(1.0 - self.epsilon)) ** 2)

    def evaluate(self, n: int, c1: int, c2: int, sigma: int | None = None) -> bool:
        if self.needs_sigma and sigma is None:
            raise MissingSigma(f"{self.name} needs the degree sum")
        if self.name == "phi_JMS":
            return (c1 - c2 + 1) ** 2 <= 4 * c2 * (n - c1 - 1)
        if self.name == "phi_JMS_star_k":
            return all(
                c1 * k <= k * (k - 1) + c2 * (n - k) for k in range(1, n + 1)
            )
        if self.name == "phi_JMS_star_sigma":
            return jms_star_sigma_margin(n, sigma, c1, c2) <= 0
        if self.name == "phi_GS":
            return 2 <= c2 and 3 <= c1 and 9 * c1 * c1 <= sigma
        if self.name == "phi_eps":
            return (
                2 <= c2
                and 3 <= c1
                and Fraction(c1 * c1) <= (1 - self.epsilon) * sigma
            )
        # phi_FG: necessary condition for a fully graphic very simple region.
        return all(
            c1 * k <= k * (k - 1) + c2 * (n - k) + 1 for k in range(1, n + 1)
        )


def evaluate_predicate(
    predicate: RegionPredicate,
    n: int,
    c1: int,
    c2: int,
    sigma: int | None = None,
) -> bool:
    """Evaluate a region predicate on the given parameters."""
    return predicate.evaluate(n, c1, c2, sigma=sigma)
