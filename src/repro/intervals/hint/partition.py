"""Physical storage of one HINT partition: divisions and subdivisions.

Each partition ``P`` keeps the intervals assigned to it in two divisions —
originals ``P^O`` (intervals starting inside ``P``) and replicas ``P^R``
(starting before ``P``) — and, following the paper's *subdivisions*
optimisation (Section 2.3), each division is further split by whether the
interval ends inside or after the partition:

=============  =========================  =====================================
subdivision    contents                   comparisons it can never fail
=============  =========================  =====================================
``O_in``       starts + ends inside       (none — both endpoints matter)
``O_aft``      starts inside, ends after  ``q.st <= i.end`` always holds
``R_in``       starts before, ends inside ``i.st <= q.end`` always holds
``R_aft``      spans the whole partition  both always hold → pure id storage
=============  =========================  =====================================

The *storage optimisation* falls out of the same table: ``O_aft`` needs only
``i.st``, ``R_in`` only ``i.end`` and ``R_aft`` no endpoint at all — the size
model charges each subdivision accordingly.

Each subdivision maintains one of two orders:

* ``TEMPORAL`` — the paper's *beneficial sorting*: ``O_in``/``O_aft`` by
  start (prefix scans answer ``i.st <= q.end`` via binary search), ``R_in``
  by end descending (prefix scans answer ``q.st <= i.end``), ``R_aft``
  unsorted;
* ``BY_ID`` — object-id order, required by the merge-sort tIF+HINT variant
  (Algorithm 4) and by the inverted-index-friendly irHINT layouts.

Deletions are tombstones, located via the subdivision's own sort order.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import List, Tuple

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.intervals.hint.traversal import DivisionKind
from repro.ir.inverted import TemporalCheck
from repro.utils.memory import (
    CONTAINER_BYTES,
    ENTRY_FULL_BYTES,
    ENTRY_ID_BYTES,
    ENTRY_ID_START_BYTES,
)


class SortPolicy(enum.Enum):
    """How subdivision contents are ordered."""

    TEMPORAL = "temporal"
    BY_ID = "by_id"


class _Order(enum.Enum):
    """Concrete key a single subdivision is sorted by."""

    NONE = "none"
    BY_ST = "st"
    BY_END_DESC = "end_desc"
    BY_ID = "id"


def _orders_for(policy: SortPolicy) -> "tuple[_Order, _Order, _Order, _Order]":
    """(O_in, O_aft, R_in, R_aft) orders under a policy."""
    if policy is SortPolicy.TEMPORAL:
        return _Order.BY_ST, _Order.BY_ST, _Order.BY_END_DESC, _Order.NONE
    return _Order.BY_ID, _Order.BY_ID, _Order.BY_ID, _Order.BY_ID


def _bisect_desc(values: List[Timestamp], value: Timestamp) -> int:
    """Leftmost insertion point keeping ``values`` sorted descending."""
    lo, hi = 0, len(values)
    while lo < hi:
        mid = (lo + hi) // 2
        if values[mid] > value:
            lo = mid + 1
        else:
            hi = mid
    return lo


class SubArray:
    """One subdivision: parallel ``(id, st, end)`` columns plus tombstones."""

    __slots__ = ("ids", "sts", "ends", "alive", "n_dead", "order")

    def __init__(self, order: _Order) -> None:
        self.ids: List[int] = []
        self.sts: List[Timestamp] = []
        self.ends: List[Timestamp] = []
        self.alive: List[bool] = []
        self.n_dead = 0
        self.order = order

    def __len__(self) -> int:
        return len(self.ids) - self.n_dead

    def physical_len(self) -> int:
        return len(self.ids)

    # ---------------------------------------------------------------- updates
    def _insert_position(self, object_id: int, st: Timestamp, end: Timestamp) -> int:
        if self.order is _Order.BY_ST:
            return bisect_right(self.sts, st)
        if self.order is _Order.BY_END_DESC:
            return _bisect_desc(self.ends, end)
        if self.order is _Order.BY_ID:
            return bisect_left(self.ids, object_id)
        return len(self.ids)

    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Insert keeping the subdivision's order."""
        pos = self._insert_position(object_id, st, end)
        if pos == len(self.ids):
            self.ids.append(object_id)
            self.sts.append(st)
            self.ends.append(end)
            self.alive.append(True)
        else:
            self.ids.insert(pos, object_id)
            self.sts.insert(pos, st)
            self.ends.insert(pos, end)
            self.alive.insert(pos, True)

    def locate(self, object_id: int, st: Timestamp, end: Timestamp) -> int:
        """Position of the live ``(object_id, st, end)`` entry, ``-1`` if none."""
        n = len(self.ids)
        lo, hi = 0, n
        if self.order is _Order.BY_ST:
            lo = bisect_left(self.sts, st)
            hi = bisect_right(self.sts, st)
        elif self.order is _Order.BY_END_DESC:
            lo = _bisect_desc(self.ends, end)  # first index with ends[i] <= end
            hi = lo
            while hi < n and self.ends[hi] == end:
                hi += 1
        elif self.order is _Order.BY_ID:
            lo = bisect_left(self.ids, object_id)
            hi = bisect_right(self.ids, object_id)
        for i in range(lo, hi):
            if self.ids[i] == object_id and self.alive[i]:
                if self.sts[i] == st and self.ends[i] == end:
                    return i
        return -1

    def tombstone_at(self, i: int) -> None:
        """Mark the entry at position ``i`` (from :meth:`locate`) dead."""
        self.alive[i] = False
        self.n_dead += 1

    # ------------------------------------------------------------------ scans
    def scan(
        self,
        check: TemporalCheck,
        q_st: Timestamp,
        q_end: Timestamp,
        out: List[int],
    ) -> None:
        """Append live ids passing ``check`` to ``out``, exploiting order."""
        ids, sts, ends, alive = self.ids, self.sts, self.ends, self.alive
        n = len(ids)
        if check is TemporalCheck.NONE:
            if self.n_dead == 0:
                out.extend(ids)
            else:
                out.extend(ids[i] for i in range(n) if alive[i])
            return
        if check is TemporalCheck.END_ONLY:
            if self.order is _Order.BY_ST:
                cutoff = bisect_right(sts, q_end)
                for i in range(cutoff):
                    if alive[i]:
                        out.append(ids[i])
            else:
                for i in range(n):
                    if alive[i] and sts[i] <= q_end:
                        out.append(ids[i])
            return
        if check is TemporalCheck.START_ONLY:
            if self.order is _Order.BY_END_DESC:
                for i in range(n):
                    if ends[i] < q_st:
                        break
                    if alive[i]:
                        out.append(ids[i])
            else:
                for i in range(n):
                    if alive[i] and q_st <= ends[i]:
                        out.append(ids[i])
            return
        # BOTH
        if self.order is _Order.BY_ST:
            cutoff = bisect_right(sts, q_end)
            for i in range(cutoff):
                if alive[i] and q_st <= ends[i]:
                    out.append(ids[i])
        else:
            for i in range(n):
                if alive[i] and sts[i] <= q_end and q_st <= ends[i]:
                    out.append(ids[i])

    def live_ids(self) -> List[int]:
        """Live ids in storage order."""
        if self.n_dead == 0:
            return list(self.ids)
        return [self.ids[i] for i in range(len(self.ids)) if self.alive[i]]

    def live_entries(self) -> "List[tuple[int, Timestamp, Timestamp]]":
        """Live ``(id, st, end)`` triples in storage order."""
        return [
            (self.ids[i], self.sts[i], self.ends[i])
            for i in range(len(self.ids))
            if self.alive[i]
        ]


#: Downgrades applied per subdivision: comparisons that cannot fail are
#: dropped (the subdivisions optimisation).
_DOWNGRADE_O_AFT = {
    TemporalCheck.BOTH: TemporalCheck.END_ONLY,
    TemporalCheck.START_ONLY: TemporalCheck.NONE,
    TemporalCheck.END_ONLY: TemporalCheck.END_ONLY,
    TemporalCheck.NONE: TemporalCheck.NONE,
}
_DOWNGRADE_R_IN = {
    TemporalCheck.BOTH: TemporalCheck.START_ONLY,
    TemporalCheck.START_ONLY: TemporalCheck.START_ONLY,
    TemporalCheck.END_ONLY: TemporalCheck.NONE,
    TemporalCheck.NONE: TemporalCheck.NONE,
}
_DOWNGRADE_R_AFT = {
    TemporalCheck.BOTH: TemporalCheck.NONE,
    TemporalCheck.START_ONLY: TemporalCheck.NONE,
    TemporalCheck.END_ONLY: TemporalCheck.NONE,
    TemporalCheck.NONE: TemporalCheck.NONE,
}


class Partition:
    """One ``P_{level,j}``: four subdivisions plus its cell extent."""

    __slots__ = ("first_cell", "last_cell", "o_in", "o_aft", "r_in", "r_aft")

    def __init__(self, first_cell: int, last_cell: int, policy: SortPolicy) -> None:
        self.first_cell = first_cell
        self.last_cell = last_cell
        o_in, o_aft, r_in, r_aft = _orders_for(policy)
        self.o_in = SubArray(o_in)
        self.o_aft = SubArray(o_aft)
        self.r_in = SubArray(r_in)
        self.r_aft = SubArray(r_aft)

    def __len__(self) -> int:
        return len(self.o_in) + len(self.o_aft) + len(self.r_in) + len(self.r_aft)

    def _subdivision(self, is_original: bool, end_cell: int) -> SubArray:
        ends_inside = end_cell <= self.last_cell
        if is_original:
            return self.o_in if ends_inside else self.o_aft
        return self.r_in if ends_inside else self.r_aft

    # ---------------------------------------------------------------- updates
    def add(
        self, object_id: int, st: Timestamp, end: Timestamp, end_cell: int, is_original: bool
    ) -> None:
        """Store the interval in the right subdivision."""
        self._subdivision(is_original, end_cell).add(object_id, st, end)

    def locate(
        self, object_id: int, st: Timestamp, end: Timestamp, end_cell: int, is_original: bool
    ) -> Tuple[SubArray, int]:
        """The subdivision and position of the interval's entry; raises when missing."""
        sub = self._subdivision(is_original, end_cell)
        i = sub.locate(object_id, st, end)
        if i < 0:
            raise UnknownObjectError(object_id)
        return sub, i

    # ------------------------------------------------------------------ scans
    def scan_division(
        self,
        kind: DivisionKind,
        check: TemporalCheck,
        q_st: Timestamp,
        q_end: Timestamp,
        out: List[int],
    ) -> None:
        """Scan one division, appending qualifying live ids to ``out``.

        Each subdivision runs only the comparisons that can actually fail
        for it (the subdivisions optimisation).
        """
        if kind is DivisionKind.ORIGINALS:
            self.o_in.scan(check, q_st, q_end, out)
            self.o_aft.scan(_DOWNGRADE_O_AFT[check], q_st, q_end, out)
        else:
            self.r_in.scan(_DOWNGRADE_R_IN[check], q_st, q_end, out)
            self.r_aft.scan(_DOWNGRADE_R_AFT[check], q_st, q_end, out)

    def division_live_ids(self, kind: DivisionKind) -> List[int]:
        """Live ids of a division in storage order (concatenated subdivisions)."""
        if kind is DivisionKind.ORIGINALS:
            return self.o_in.live_ids() + self.o_aft.live_ids()
        return self.r_in.live_ids() + self.r_aft.live_ids()

    def division_entries(self, kind: DivisionKind):
        """Live ``(id, st, end)`` triples of a division."""
        if kind is DivisionKind.ORIGINALS:
            return self.o_in.live_entries() + self.o_aft.live_entries()
        return self.r_in.live_entries() + self.r_aft.live_entries()

    # ------------------------------------------------------------------ sizes
    def size_bytes(self) -> int:
        """Modelled bytes of this partition's payload (the storage optimisation:
        each subdivision is charged only for the endpoints it needs)."""
        payload = (
            self.o_in.physical_len() * ENTRY_FULL_BYTES
            + self.o_aft.physical_len() * ENTRY_ID_START_BYTES
            + self.r_in.physical_len() * ENTRY_ID_START_BYTES
            + self.r_aft.physical_len() * ENTRY_ID_BYTES
        )
        n_nonempty = sum(
            1
            for sub in (self.o_in, self.o_aft, self.r_in, self.r_aft)
            if sub.physical_len()
        )
        return payload + n_nonempty * CONTAINER_BYTES

    def n_entries(self) -> int:
        """Live entries across all subdivisions."""
        return len(self)
