"""Data objects and time-travel IR queries (paper Section 2.1).

A data object is the triple ``⟨id, [t_st, t_end], d⟩``: an identifier, the
object's lifespan interval, and a *set* of descriptive elements drawn from a
global dictionary (set semantics — the paper defers bag semantics to future
work).  A time-travel IR query pairs a query interval with a set of query
elements; an object qualifies when its interval overlaps the query interval
and its description is a superset of the query elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, FrozenSet, Hashable, Iterable

from repro.core.errors import InvalidObjectError, InvalidQueryError
from repro.core.interval import Interval, Timestamp, validate_interval

#: The largest object id: answers are int64 arrays.
_ID_MAX = (1 << 63) - 1

#: Descriptive elements are arbitrary hashables (strings for documents,
#: track/product ids for sessions and baskets).
Element = Hashable


@dataclass(frozen=True, slots=True)
class TemporalObject:
    """An immutable data object ``⟨id, [t_st, t_end], d⟩``.

    Parameters
    ----------
    id:
        Integer identifier in ``[0, 2**63)``, unique within a collection:
        every answer (:mod:`repro.core.answer`) is an int64 array.
    st, end:
        Lifespan endpoints, ``st <= end``.
    d:
        Descriptive elements (e.g. the terms of a document version).
    """

    id: int
    st: Timestamp
    end: Timestamp
    d: FrozenSet[Element] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if isinstance(self.id, bool) or not isinstance(self.id, int):
            raise InvalidObjectError(f"object id must be an int, got {self.id!r}")
        if self.id < 0:
            raise InvalidObjectError(f"object id must be non-negative, got {self.id}")
        if self.id > _ID_MAX:
            raise InvalidObjectError(f"object id {self.id} is not an i64 (above 2**63 - 1)")
        try:
            validate_interval(self.st, self.end)
        except Exception as exc:  # re-brand as object error with context
            raise InvalidObjectError(f"object {self.id}: {exc}") from exc
        if not isinstance(self.d, frozenset):
            # Normalise any iterable of elements to a frozenset.
            object.__setattr__(self, "d", frozenset(self.d))

    @property
    def interval(self) -> Interval:
        """The object's lifespan as an :class:`Interval`."""
        return Interval(self.st, self.end)

    @property
    def duration(self) -> Timestamp:
        """Lifespan length."""
        return self.end - self.st

    def describes(self, elements: AbstractSet[Element]) -> bool:
        """``True`` iff the description contains every element given."""
        return self.d >= elements

    def overlaps_interval(self, st: Timestamp, end: Timestamp) -> bool:
        """``True`` iff the lifespan overlaps ``[st, end]``."""
        return self.st <= end and st <= self.end

    def matches(self, query: "TimeTravelQuery") -> bool:
        """Full time-travel IR predicate (Definition 2.1)."""
        return self.overlaps_interval(query.st, query.end) and self.d >= query.d


@dataclass(frozen=True, slots=True)
class TimeTravelQuery:
    """A time-travel IR query ``q = ⟨[q.t_st, q.t_end], q.d⟩``.

    ``d`` may be empty, in which case the query degrades to a pure temporal
    range query; ``st == end`` gives a stabbing query.
    """

    st: Timestamp
    end: Timestamp
    d: FrozenSet[Element] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        try:
            validate_interval(self.st, self.end)
        except Exception as exc:
            raise InvalidQueryError(str(exc)) from exc
        if not isinstance(self.d, frozenset):
            object.__setattr__(self, "d", frozenset(self.d))

    @property
    def interval(self) -> Interval:
        """The query interval."""
        return Interval(self.st, self.end)

    @property
    def is_stabbing(self) -> bool:
        """``True`` for a point-in-time (stabbing) query."""
        return self.st == self.end

    @property
    def is_pure_temporal(self) -> bool:
        """``True`` when no descriptive elements constrain the result."""
        return not self.d

    @property
    def extent(self) -> Timestamp:
        """Length of the query interval."""
        return self.end - self.st


def make_object(
    id: int,
    st: Timestamp,
    end: Timestamp,
    d: Iterable[Element] = (),
) -> TemporalObject:
    """Convenience constructor accepting any iterable of elements."""
    return TemporalObject(id=id, st=st, end=end, d=frozenset(d))


def make_query(
    st: Timestamp,
    end: Timestamp,
    d: Iterable[Element] = (),
) -> TimeTravelQuery:
    """Convenience constructor accepting any iterable of elements."""
    return TimeTravelQuery(st=st, end=end, d=frozenset(d))
