"""Exception hierarchy shared by all degseq modules."""


class DegseqError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidInput(DegseqError):
    """An argument violates a documented precondition."""


class InvalidRegion(DegseqError):
    """Region parameters violate n > c1 >= c2 >= 0 or the sum constraints."""


class NegativeDegree(DegseqError):
    """An operation would produce a degree below zero."""


class MissingSigma(DegseqError):
    """A sum-dependent predicate was evaluated without a degree sum."""


class NotGraphic(DegseqError):
    """The operation requires a graphic degree sequence."""


class NotSplit(DegseqError):
    """The operation requires a split graph or split degree sequence."""


# Each refusal's limit: name -> (value, unit, what it bounds).  Every check reads the value
# here when it runs (a counter made without a budget, at each cold query); no module keeps
# a copy.
LIMITS = {
    "DEGSEQ_STEP_BUDGET": (3_000_000, "steps", "in one count (set the variable to change it)"),
    "ENUMERATE_MAX_N": (16, "entries", "in a sequence to enumerate"),
    "ENUMERATE_MAX_GRAPHS": (100_000, "realizations", "to list (pass a --limit up to it)"),
    "MCMC_MAX_WORK": (10**7, "units of work", "for one chain, (burn_in + steps) * (m + 4)"
                      " + n * n, or a greedy start, n * n"),
    "SWEEP_MAX_ROWS": (1_000_000, "rows", "in one sweep (narrow the n range)"),
    "WITNESS_MAX_SIZE": (200_000, "entries plus edges", "that leg or a witness builder lays out"),
}


class TooLarge(DegseqError):
    """``requested`` is over ``allowed``, the value of ``LIMITS[limit]`` at the check; the
    step budget and the sweep stop counting early, so theirs is the count when the check
    fired.  The message is built from these three."""

    def __init__(self, limit: str, allowed: int, requested: int):
        super().__init__(limit, allowed, requested)
        self.limit, self.allowed, self.requested = limit, allowed, requested

    def __str__(self) -> str:
        _, unit, bounds = LIMITS[self.limit]
        return f"{self.limit} exceeded: {self.requested} > {self.allowed} {unit} {bounds}"


class ConstructionError(DegseqError):
    """A witness construction could not be completed as specified."""


def check_limit(limit: str, requested: int) -> None:
    """Raise ``TooLarge(limit, allowed, requested)`` if ``requested`` is over
    ``allowed = LIMITS[limit][0]``, read at the check."""
    allowed = LIMITS[limit][0]
    if requested > allowed:
        raise TooLarge(limit, allowed, requested)
