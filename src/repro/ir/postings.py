"""Time-aware postings lists (paper Section 2.2): the shared surface.

A postings list ``I[e]`` stores one ``⟨o.id, [o.t_st, o.t_end]⟩`` entry per
object whose description contains element ``e``.  Entries are kept ordered by
object id — the standard IR layout that makes merge intersections possible
(Algorithm 1).  Every index stores them in
:class:`~repro.ir.packed.PackedPostingsList`, flat columns that are the
closest CPython analogue of the paper's packed C++ arrays;
:class:`PostingsBackend` is the surface it shares with the block layouts
(:mod:`repro.ir.compressed`, :mod:`repro.ir.cold`).

Deletions are *logical*: a tombstone flag marks an entry dead and scans skip
it, exactly the strategy the paper adopts in Section 5.5 ("we place
tombstones for a logical deletion").  :class:`IdPostingsList` is the
id-only variant irHINT-size keeps per division.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Protocol, Tuple

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.utils.memory import CONTAINER_BYTES, ENTRY_ID_BYTES

#: One materialised postings entry.
PostingsEntry = Tuple[int, Timestamp, Timestamp]


class PostingsBackend(Protocol):
    """The full ⟨id, st, end⟩ postings surface.

    ``packed``, ``compressed`` and the read-only ``cold`` view answer every
    method here alike (the property harness in ``tests/ir`` checks them
    against one in-test model); ``cold`` refuses the updates.
    """

    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None: ...
    def delete(self, object_id: int) -> None: ...
    def __len__(self) -> int: ...
    def __contains__(self, object_id: int) -> bool: ...
    def physical_len(self) -> int: ...
    def entries(self) -> Iterator[PostingsEntry]: ...
    def ids(self) -> List[int]: ...
    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]: ...
    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]: ...
    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]: ...
    def span(self) -> Tuple[Timestamp, Timestamp]: ...
    def size_bytes(self) -> int: ...
    def compact(self) -> None: ...


class IdPostingsList:
    """Id-only postings list (irHINT size variant, Section 4.2).

    Stores bare object ids — the time interval lives once in the division's
    interval store, which is the whole point of the size-focused design.
    """

    __slots__ = ("_ids", "_alive", "_n_dead")

    def __init__(self) -> None:
        self._ids: List[int] = []
        self._alive: List[bool] = []
        self._n_dead = 0

    def add(self, object_id: int) -> None:
        """Insert an id, preserving order (append fast path)."""
        if not self._ids or object_id > self._ids[-1]:
            self._ids.append(object_id)
            self._alive.append(True)
            return
        pos = bisect_left(self._ids, object_id)
        if pos < len(self._ids) and self._ids[pos] == object_id:
            if not self._alive[pos]:
                self._alive[pos] = True
                self._n_dead -= 1
            return
        self._ids.insert(pos, object_id)
        self._alive.insert(pos, True)

    def delete(self, object_id: int) -> None:
        """Tombstone an id (raises if absent)."""
        pos = bisect_left(self._ids, object_id)
        if pos >= len(self._ids) or self._ids[pos] != object_id or not self._alive[pos]:
            raise UnknownObjectError(object_id)
        self._alive[pos] = False
        self._n_dead += 1

    def __len__(self) -> int:
        return len(self._ids) - self._n_dead

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, object_id: int) -> bool:
        pos = bisect_left(self._ids, object_id)
        return pos < len(self._ids) and self._ids[pos] == object_id and self._alive[pos]

    def ids(self) -> List[int]:
        """Live ids, sorted."""
        if self._n_dead == 0:
            return list(self._ids)
        return [oid for oid, alive in zip(self._ids, self._alive) if alive]

    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]:
        """Intersection with an ascending id list (live entries only).

        Operates on the column arrays directly — no copy of the postings is
        materialised (the hot path of irHINT-size's Algorithm 6 step 2).
        Switches from the two-pointer merge to per-candidate binary probes
        when the postings side dominates.
        """
        ids, alive = self._ids, self._alive
        out: List[int] = []
        n_c, n_e = len(sorted_ids), len(ids)
        if n_c == 0 or n_e == 0:
            return out
        if n_e > 16 * n_c:
            lo = 0
            for c in sorted_ids:
                pos = bisect_left(ids, c, lo)
                if pos < n_e and ids[pos] == c:
                    if alive[pos]:
                        out.append(c)
                    lo = pos + 1
                else:
                    lo = pos
                if lo >= n_e:
                    break
            return out
        i = j = 0
        while i < n_c and j < n_e:
            c, e = sorted_ids[i], ids[j]
            if c == e:
                if alive[j]:
                    out.append(c)
                i += 1
                j += 1
            elif c < e:
                i += 1
            else:
                j += 1
        return out

    def physical_len(self) -> int:
        return len(self._ids)

    def size_bytes(self) -> int:
        """Modelled size: bare ids + one container overhead."""
        return self.physical_len() * ENTRY_ID_BYTES + CONTAINER_BYTES
