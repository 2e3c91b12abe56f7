"""Core domain types: degree sequences, parameter regions, labeled graphs,
and single-entry perturbations.

All types here are immutable after construction and safe to share between
threads.  Degree sequences are kept sorted non-increasing; a region is a pair
of degree bounds (c1, c2) on sequences of length n, optionally pinned to a
fixed even degree sum.  ``Record`` is the base of every record type in the
package.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cached_property, total_ordering
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from .errors import DegseqError, InvalidInput, InvalidRegion, NegativeDegree


class Record:
    """Base of the package's record types.  The fields are the names the
    class itself annotates, in order; a class attribute of a field's name is
    its default.  A record takes its fields by position or keyword, then
    runs the class's own ``__post_init__``, if it has one.  ``repr`` reads
    ``Name(field=value, ...)`` and ``==`` compares the field tuples of two
    records of one class.  A subclass declared with ``frozen=True`` refuses
    assignment and deletion and hashes as its field tuple; other records are
    unhashable.
    """

    def __init_subclass__(cls, frozen: bool = False):
        cls.__match_args__ = fields = tuple(cls.__dict__.get("__annotations__", ()))
        # The field tuple's getter, made once per class; attrgetter of one
        # name returns the bare value, so that case is wrapped.
        get = attrgetter(*fields)
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda record: (get(record),))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            if "__hash__" not in cls.__dict__:
                cls.__hash__ = Record._hash

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__match_args__
        if args:
            if len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
            for name in kwargs.keys() & fields[: len(args)]:
                raise TypeError(f"{cls.__name__}() got field {name!r} twice")
            kwargs = dict(zip(fields, args), **kwargs)
        if tuple(kwargs) != fields:
            for name in kwargs.keys() - fields:
                raise TypeError(f"{cls.__name__}() has no field {name!r}")
            try:
                kwargs = {f: kwargs[f] if f in kwargs else cls.__dict__[f] for f in fields}
            except KeyError as exc:
                raise TypeError(f"{cls.__name__}() missing field {exc.args[0]!r}") from None
        vars(self).update(kwargs)
        if "__post_init__" in cls.__dict__:
            self.__post_init__()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def _hash(self) -> int:
        return hash(self._astuple(self))

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is frozen")


def _read_integers(record: Record, error: type[DegseqError], names: tuple[str, ...]) -> None:
    """Store the named fields of ``record`` as read by ``operator.index``;
    a field it refuses (a float, a string) raises ``error``."""
    try:
        vars(record).update({name: operator.index(getattr(record, name)) for name in names})
    except TypeError:
        raise error(f"{', '.join(names)} must be integers, got {record!r}") from None


@total_ordering
class DegreeSequence(Record, frozen=True):
    """A non-increasing vector of vertex degrees.

    Raw input is normalised by sorting.  Entries must be non-negative
    integers (read by ``operator.index``, so a float or a string raises
    InvalidInput); an entry above n - 1 is allowed, and only means the
    sequence has no realization.  Ordering compares entry tuples
    lexicographically.
    """

    degrees: tuple[int, ...]

    def __init__(self, degrees: Iterable[int]):
        try:
            degs = tuple(sorted(map(operator.index, degrees), reverse=True))
        except TypeError as exc:
            raise InvalidInput(f"degree sequence entries must be integers ({exc})") from None
        if not degs:
            raise InvalidInput("degree sequence must be non-empty")
        if degs[-1] < 0:
            raise NegativeDegree(f"negative entry in {degs}")
        object.__setattr__(self, "degrees", degs)

    @classmethod
    def parse(cls, text: str) -> "DegreeSequence":
        """Parse the canonical comma-separated form, e.g. ``4,4,3,1,1,1,1,1``,
        ignoring blanks and empty entries.  Text whose every part ``int`` reads,
        blanks and all, takes one pass; other text is read part by part."""
        try:
            return cls(map(int, text.split(",")))
        except ValueError:
            pass
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise InvalidInput(f"cannot parse degree sequence from {text!r}")
        try:
            values = [int(p) for p in parts]
        except ValueError as exc:
            raise InvalidInput(f"cannot parse degree sequence from {text!r}") from exc
        return cls(values)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def sigma(self) -> int:
        return sum(self.degrees)

    def __len__(self) -> int:
        return len(self.degrees)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __getitem__(self, idx):
        return self.degrees[idx]

    def __str__(self) -> str:
        # repr is str for an int, and on Python 3.11-3.12 a cheaper call in map()
        return ",".join(map(repr, self.degrees))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.degrees < other.degrees
        return NotImplemented


class VerySimpleRegion(Record, frozen=True):
    """All non-increasing length-n sequences with entries in [c2, c1] and even sum."""

    n: int
    c1: int
    c2: int

    def __post_init__(self):
        _read_integers(self, InvalidRegion, self.__match_args__)
        if not (self.n > self.c1 >= self.c2 >= 0):
            raise InvalidRegion(
                f"need n > c1 >= c2 >= 0, got n={self.n}, c1={self.c1}, c2={self.c2}"
            )

    def sigma_values(self) -> Iterator[int]:
        """Admissible even degree sums, ascending."""
        lo = self.n * self.c2
        lo += lo % 2
        return iter(range(lo, self.n * self.c1 + 1, 2))

    def __str__(self) -> str:
        return f"n={self.n},c1={self.c1},c2={self.c2}"


class SimpleRegion(Record, frozen=True):
    """The slice of a very simple region with a fixed even degree sum."""

    n: int
    sigma: int
    c1: int
    c2: int

    def __post_init__(self):
        _read_integers(self, InvalidRegion, self.__match_args__)
        if not (self.n > self.c1 >= self.c2 >= 0):
            raise InvalidRegion(
                f"need n > c1 >= c2 >= 0, got n={self.n}, c1={self.c1}, c2={self.c2}"
            )
        if not (self.n * self.c1 >= self.sigma >= self.n * self.c2):
            raise InvalidRegion(
                f"need n*c1 >= sigma >= n*c2, got sigma={self.sigma} for {self}"
            )
        if self.sigma % 2:
            raise InvalidRegion(f"sigma must be even, got {self.sigma}")

    def __str__(self) -> str:
        return f"n={self.n},sigma={self.sigma},c1={self.c1},c2={self.c2}"


Region = SimpleRegion | VerySimpleRegion


def parse_region(text: str) -> Region:
    """Parse ``n=8,sigma=16,c1=4,c2=1`` (sigma optional) into a region."""
    fields: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InvalidInput(f"cannot parse region field {part!r}")
        key, _, value = part.partition("=")
        try:
            fields[key.strip()] = int(value)
        except ValueError as exc:
            raise InvalidInput(f"cannot parse region field {part!r}") from exc
    unknown = set(fields) - {"n", "sigma", "c1", "c2"}
    if unknown or not {"n", "c1", "c2"} <= set(fields):
        raise InvalidInput(f"region needs n, c1, c2 and optional sigma: {text!r}")
    if "sigma" in fields:
        return SimpleRegion(fields["n"], fields["sigma"], fields["c1"], fields["c2"])
    return VerySimpleRegion(fields["n"], fields["c1"], fields["c2"])


def membership(seq: DegreeSequence, region: Region) -> bool:
    """Whether ``seq`` belongs to ``region``.  Total: never raises."""
    degs = seq.degrees
    if len(degs) != region.n:
        return False
    if degs[0] > region.c1 or degs[-1] < region.c2:
        return False
    total = seq.sigma
    if total % 2:
        return False
    if isinstance(region, SimpleRegion) and total != region.sigma:
        return False
    return True


def iter_region(region: Region) -> Iterator[DegreeSequence]:
    """Enumerate every member of the region.

    Members of each fixed sum come out lexicographically descending; for a
    very simple region the admissible sums are visited in ascending order.
    """
    n, hi, lo = region.n, region.c1, region.c2
    sums = [region.sigma] if isinstance(region, SimpleRegion) else list(region.sigma_values())
    # non-increasing prefixes, each with the sum its tail needs; the next one on top
    stack = [((), total) for total in reversed(sums)]
    while stack:
        prefix, rest = stack.pop()
        left = n - len(prefix)
        if not left:
            yield DegreeSequence(prefix)
            continue
        high = min(prefix[-1] if prefix else hi, rest - (left - 1) * lo)
        low = max(lo, -(-rest // left))  # ceil(rest / left): the next entry is its tail's max
        stack.extend((prefix + (v,), rest - v) for v in range(low, high + 1))


class PerturbationKind(Enum):
    """The five single-step degree perturbations and their delta table.

    ``deltas`` are the amounts added at positions i and j (i != j) for the
    pairwise kinds, or at position i alone for the doubled kinds.
    """

    MINUS_MINUS = "--", (-1, -1)
    PLUS_PLUS = "++", (1, 1)
    PLUS_MINUS = "+-", (1, -1)
    MINUS_TWO = "-2", (-2,)
    PLUS_TWO = "+2", (2,)

    def __new__(cls, value: str, deltas: tuple[int, ...]):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.deltas = deltas
        return kind

    @property
    def pairwise(self) -> bool:
        return len(self.deltas) == 2

    @property
    def sigma_delta(self) -> int:
        return sum(self.deltas)


class Perturbation(Record, frozen=True):
    """A perturbation applied at 1-based positions of a sorted sequence.

    ``j`` is unused for the single-position kinds.  The doubled kinds model
    the i = j case of the pairwise operations, so the pairwise kinds always
    require i != j.
    """

    kind: PerturbationKind
    i: int
    j: int | None = None

    def __post_init__(self):
        if self.i < 1:
            raise InvalidInput(f"position i must be >= 1, got {self.i}")
        if self.kind.pairwise:
            if self.j is None or self.j < 1:
                raise InvalidInput(f"{self.kind.value} needs a position j >= 1")
            if self.i == self.j:
                raise InvalidInput(
                    f"{self.kind.value} needs i != j; use the doubled kinds for i = j"
                )
        elif self.j is not None:
            raise InvalidInput(f"{self.kind.value} takes a single position")

    @property
    def sigma_delta(self) -> int:
        return self.kind.sigma_delta


def apply_perturbation(seq: DegreeSequence, pert: Perturbation) -> DegreeSequence:
    """Apply ``pert`` to ``seq`` and return the re-sorted result.

    Raises NegativeDegree if an entry would drop below zero, as a
    DegreeSequence cannot represent it.  An entry above n - 1 is returned as
    it is: such a sequence simply has no realization.
    """
    n = seq.n
    if pert.i > n or (pert.j is not None and pert.j > n):
        raise InvalidInput(f"positions out of range for length {n}")
    values = list(seq.degrees)
    for pos, delta in zip((pert.i, pert.j), pert.kind.deltas):
        values[pos - 1] += delta
    if min(values) < 0:
        raise NegativeDegree(f"{pert.kind.value} at {pert.i},{pert.j} drops below zero")
    return DegreeSequence(values)


class LabeledGraph(Record, frozen=True):
    """A simple graph on labeled vertices 0 .. n-1, stored as its sorted edge list.

    ``pairs`` holds each edge once as (u, v), u < v, in increasing order; its
    entries are read by ``operator.index``.  ``adj``, the neighbour bitsets
    (bit j of ``adj[i]`` set iff {i, j} is an edge), is derived on first use
    and cached outside the fields.  Instances are immutable.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            n = operator.index(self.n)
            pairs = tuple(map(tuple, self.pairs))
            if set(map(type, chain.from_iterable(pairs))) - {int}:
                pairs = tuple(map(tuple, map(map, repeat(operator.index), pairs)))
        except TypeError as exc:
            raise InvalidInput(f"a graph's n and edge entries must be integers ({exc})") from None
        # At C speed; on a failure the loop names the first bad pair.
        if not (n >= 0 and set(map(len, pairs)) <= {2} and all(map(operator.lt, pairs, pairs[1:]))
                and all(map(operator.lt, map(itemgetter(0), pairs), map(itemgetter(1), pairs)))
                and (not pairs or pairs[0][0] >= 0 and max(map(itemgetter(1), pairs)) < n)):
            if n < 0:
                raise InvalidInput(f"a graph needs n >= 0, got {n}")
            for before, pair in zip(((-1, -1),) + pairs, pairs):
                if len(pair) != 2 or not 0 <= pair[0] < pair[1] < n or pair <= before:
                    raise InvalidInput(f"edge {pair} is not (u, v) with 0 <= u < v < {n}"
                                       " above the edge before it")
        vars(self).update(n=n, pairs=pairs)

    @cached_property
    def adj(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for u, v in self.pairs:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @classmethod
    def empty(cls, n: int) -> "LabeledGraph":
        return cls(n, ())

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        return cls(n, sorted(e if e[0] < e[1] else e[::-1] for e in edges))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Positional degree vector, indexed by vertex label."""
        return tuple(bits.bit_count() for bits in self.adj)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degrees())

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted edge list; also the canonical form of the labeled graph."""
        return self.pairs

    def __str__(self) -> str:
        return edges_to_text(self.pairs)


class _EdgeLabels(dict):
    """The text of each (u, v) edge tuple, made on first use.  Formatting
    each edge anew was most of the time of a long ``mcmc`` run's histogram;
    emptied when full, it holds every pair of up to 256 vertices."""

    def __missing__(self, edge: tuple[int, int]) -> str:
        if len(self) >= 1 << 15:
            self.clear()
        self[edge] = label = f"{edge[0] + 1}-{edge[1] + 1}"
        return label


_EDGE_LABELS = _EdgeLabels()


def edges_to_text(edges: Iterable[tuple[int, int]]) -> str:
    """Render an edge list with 1-based labels, e.g. ``1-2,3-4``."""
    return ",".join(map(_EDGE_LABELS.__getitem__, edges))
