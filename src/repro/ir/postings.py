"""Time-aware postings lists (paper Section 2.2).

A postings list ``I[e]`` stores one ``⟨o.id, [o.t_st, o.t_end]⟩`` entry per
object whose description contains element ``e``.  Entries are kept ordered by
object id — the standard IR layout that makes merge intersections possible
(Algorithm 1).  Storage is column-oriented (three parallel lists) which is
both the cheapest layout CPython offers and the closest analogue of the
paper's packed C++ arrays.

Deletions are *logical*: a tombstone flag marks an entry dead and scans skip
it, exactly the strategy the paper adopts in Section 5.5 ("we place
tombstones for a logical deletion").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Protocol, Tuple

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

#: One materialised postings entry.
PostingsEntry = Tuple[int, Timestamp, Timestamp]


class PostingsBackend(Protocol):
    """The full ⟨id, st, end⟩ postings surface every backend implements.

    :class:`PostingsList` is the reference implementation (and the oracle
    of the property harness in ``tests/ir``); ``packed`` and
    ``compressed`` (:mod:`repro.ir.packed`, :mod:`repro.ir.compressed`)
    must be observationally identical on every method here.
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


class IdPostingsBackend(Protocol):
    """The id-only postings surface (irHINT-size division dictionaries)."""

    def add(self, object_id: int) -> None: ...
    def delete(self, object_id: int) -> None: ...
    def __len__(self) -> int: ...
    def __contains__(self, object_id: int) -> bool: ...
    def physical_len(self) -> int: ...
    def ids(self) -> List[int]: ...
    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]: ...
    def size_bytes(self) -> int: ...


class PostingsList:
    """Id-ordered ``⟨id, t_st, t_end⟩`` entries for one element."""

    __slots__ = ("_ids", "_sts", "_ends", "_alive", "_n_dead")

    def __init__(self) -> None:
        self._ids: List[int] = []
        self._sts: List[Timestamp] = []
        self._ends: List[Timestamp] = []
        self._alive: List[bool] = []
        self._n_dead = 0

    # ---------------------------------------------------------------- updates
    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Insert an entry, preserving id order.

        Appends in O(1) when ids arrive in increasing order (the common case:
        new objects carry larger ids than indexed ones — Section 5.5) and
        falls back to a binary-search insert otherwise.
        """
        if not self._ids or object_id > self._ids[-1]:
            self._ids.append(object_id)
            self._sts.append(st)
            self._ends.append(end)
            self._alive.append(True)
            return
        pos = bisect_left(self._ids, object_id)
        if pos < len(self._ids) and self._ids[pos] == object_id:
            # Re-adding a tombstoned id revives the entry in place.
            self._sts[pos] = st
            self._ends[pos] = end
            if not self._alive[pos]:
                self._alive[pos] = True
                self._n_dead -= 1
            return
        self._ids.insert(pos, object_id)
        self._sts.insert(pos, st)
        self._ends.insert(pos, end)
        self._alive.insert(pos, True)

    def delete(self, object_id: int) -> None:
        """Tombstone the entry for ``object_id`` (raises if absent)."""
        pos = bisect_left(self._ids, object_id)
        if pos >= len(self._ids) or self._ids[pos] != object_id or not self._alive[pos]:
            raise UnknownObjectError(object_id)
        self._alive[pos] = False
        self._n_dead += 1

    def compact(self) -> None:
        """Physically drop tombstoned slots; answers are unchanged."""
        if not self._n_dead:
            return
        keep = [i for i, alive in enumerate(self._alive) if alive]
        self._ids = [self._ids[i] for i in keep]
        self._sts = [self._sts[i] for i in keep]
        self._ends = [self._ends[i] for i in keep]
        self._alive = [True] * len(keep)
        self._n_dead = 0

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._ids) - self._n_dead

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, object_id: int) -> bool:
        pos = bisect_left(self._ids, object_id)
        return pos < len(self._ids) and self._ids[pos] == object_id and self._alive[pos]

    def physical_len(self) -> int:
        """Number of slots including tombstones (for size accounting)."""
        return len(self._ids)

    def entries(self) -> Iterator[PostingsEntry]:
        """Live entries in id order."""
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        for i in range(len(ids)):
            if alive[i]:
                yield ids[i], sts[i], ends[i]

    def ids(self) -> List[int]:
        """Live object ids, sorted."""
        return [oid for oid, alive in zip(self._ids, self._alive) if alive]

    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]:
        """Live entries whose interval overlaps ``[q_st, q_end]`` (Alg. 1 l.4-6)."""
        out: List[PostingsEntry] = []
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        for i in range(len(ids)):
            if alive[i] and q_st <= ends[i] and sts[i] <= q_end:
                out.append((ids[i], sts[i], ends[i]))
        return out

    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """Ids of live entries overlapping ``[q_st, q_end]``, in id order."""
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        return [
            ids[i]
            for i in range(len(ids))
            if alive[i] and q_st <= ends[i] and sts[i] <= q_end
        ]

    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]:
        """Intersection with an ascending id list (live entries only).

        Works directly on the column arrays — Algorithm 1's hot path on
        short lists.  When the postings side is much longer than the
        candidate side the two-pointer merge degrades to a full scan, so
        the kernel switches to per-candidate binary probes (the classic
        merge-vs-gallop trade-off).
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

    def span(self) -> Tuple[Timestamp, Timestamp]:
        """``[min t_st, max t_end]`` over live entries (the list's time span)."""
        lo = None
        hi = None
        for _, st, end in self.entries():
            lo = st if lo is None or st < lo else lo
            hi = end if hi is None or end > hi else hi
        if lo is None:
            raise UnknownObjectError("span() of an empty postings list")
        return lo, hi

    # ------------------------------------------------------------------ sizes
    def size_bytes(self) -> int:
        """Modelled size: full entries + one container overhead."""
        return self.physical_len() * ENTRY_FULL_BYTES + CONTAINER_BYTES


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
        from repro.utils.memory import ENTRY_ID_BYTES

        return self.physical_len() * ENTRY_ID_BYTES + CONTAINER_BYTES
