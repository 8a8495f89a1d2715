"""Common protocol for interval (temporal) indexes.

Every interval index in :mod:`repro.intervals` answers the two temporal query
types of the paper — **range** (all intervals overlapping ``[q.st, q.end]``)
and **stabbing** (all intervals containing a time point) — over records of the
form ``(id, t_st, t_end)``.  Composite temporal-IR indexes build on top of
these structures; tests use them as mutually-checking oracles.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Tuple

from repro.core.interval import Timestamp

#: The record every interval index stores.
IntervalRecord = Tuple[int, Timestamp, Timestamp]


class IntervalIndex(abc.ABC):
    """Abstract base for interval indexes over ``(id, st, end)`` records."""

    __slots__ = ()

    @classmethod
    def build(cls, records: Iterable[IntervalRecord], **params: object) -> "IntervalIndex":
        """Bulk-build an index over ``records``.

        The default implementation constructs an empty index and inserts
        record by record; subclasses override when a bulk path is cheaper.
        """
        index = cls(**params)  # type: ignore[call-arg]
        for object_id, st, end in records:
            index.insert(object_id, st, end)
        return index

    @abc.abstractmethod
    def insert(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Add one interval record."""

    @abc.abstractmethod
    def delete(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Logically delete a record (tombstone); raises if absent.

        The original endpoints must be supplied — like the paper's C++
        structures, the index locates the record's replicas from them.
        """

    @abc.abstractmethod
    def range_query(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """Ids of all live records overlapping ``[q_st, q_end]``, sorted."""

    def stab_query(self, t: Timestamp) -> List[int]:
        """Ids of all live records containing time point ``t``, sorted."""
        return self.range_query(t, t)

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live records."""

    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Modelled in-memory size (see :mod:`repro.utils.memory`)."""
