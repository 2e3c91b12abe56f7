"""Exception hierarchy shared by all degseq modules."""


class DegseqError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidInput(DegseqError):
    """An argument violates a documented precondition."""


class InvalidRegion(DegseqError):
    """Region parameters violate n > c1 >= c2 >= 0 or the sum constraints."""


class NegativeDegree(DegseqError):
    """An operation would produce a degree below zero."""


class ExceedsMax(DegseqError):
    """An operation would produce a degree above n - 1."""


class MissingSigma(DegseqError):
    """A sum-dependent predicate was evaluated without a degree sum."""


class NotGraphic(DegseqError):
    """The operation requires a graphic degree sequence."""


class NotSplit(DegseqError):
    """The operation requires a split graph or split degree sequence."""


class TooLarge(DegseqError):
    """The instance exceeds a documented size limit or the counter's step budget."""


class ConstructionError(DegseqError):
    """A witness construction could not be completed as specified."""
