"""tIF+Slicing — the temporal inverted file of Berberich et al. [7] (§2.2).

The time domain is broken into a sequence of disjoint slices (a 1D grid);
every postings list is divided into per-slice sub-lists and an entry is
replicated into every slice its interval overlaps.  A query then touches only
the sub-lists of slices overlapping the query interval.  Replication-induced
duplicates are discarded with the reference-value method [25].

The original work considers stabbing queries; as the paper notes
(footnote 6), the extension to interval queries only requires the duplicate
handling, which the reference-value test provides.  The number of slices is
a tuning parameter (Figure 8); 50 is the paper's chosen default.

The grid spans the objects held plus head-room
(:meth:`~repro.intervals.grid1d.GridLayout.spanning`); an object ending
past it re-slices every held object over the grown span (:func:`regrid`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.collection import Collection
from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.catalog import Catalog
from repro.intervals.grid1d import GridLayout
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES


def regrid(
    layout: Optional[GridLayout],
    obj: TemporalObject,
    held: Catalog,
    n_slices: int,
) -> Optional[GridLayout]:
    """The grid to re-slice ``held``'s objects and ``obj`` over, when ``obj``
    ends past ``layout`` (or there is none yet); ``None`` when it fits."""
    if layout is not None and obj.end <= layout.hi:
        return None
    objects = [*held.objects(), obj]
    return GridLayout.spanning(
        min(o.st for o in objects), max(o.end for o in objects), n_slices
    )


def intersect_slices(
    candidates: List[int],
    slices: Dict[int, List[list]],
    layout: GridLayout,
    first_slice: int,
    last_slice: int,
    q_st: Timestamp,
) -> Tuple[List[int], int, int]:
    """Algorithm 1's intersection over one list's relevant sub-lists.

    ``slices`` maps a slice to its id-sorted columns ``[ids, sts, …,
    alive]``.  Each sub-list is merged with the ascending ``candidates``,
    and a match is reported by one slice only: the one holding its
    reference value ``max(o.t_st, q.t_st)`` [25] — or the first relevant
    slice, for an object starting before it.  Returns ``(matched ids,
    entries scanned, sub-lists touched)``.
    """
    matched: List[int] = []
    scanned = touched = 0
    for slice_index in range(first_slice, last_slice + 1):
        columns = slices.get(slice_index)
        if columns is None:
            continue
        ids, sts, alive = columns[0], columns[1], columns[-1]
        scanned += len(ids)
        touched += 1
        slice_lo, slice_hi = layout.slice_bounds(slice_index)
        i = j = 0
        n_c, n_e = len(candidates), len(ids)
        while i < n_c and j < n_e:
            c, e = candidates[i], ids[j]
            if c == e:
                if alive[j]:
                    st = sts[j]
                    ref = st if st > q_st else q_st
                    if slice_lo <= ref < slice_hi or (
                        slice_index == first_slice and ref < slice_lo
                    ):
                        matched.append(c)
                i += 1
                j += 1
            elif c < e:
                i += 1
            else:
                j += 1
    matched.sort()
    return matched, scanned, touched


class _SlicedList:
    """One postings list, divided into id-sorted per-slice sub-lists."""

    __slots__ = ("slices",)

    def __init__(self) -> None:
        # slice index -> [ids, sts, ends, alive] column lists
        self.slices: Dict[int, List[list]] = {}

    def add(self, slice_index: int, object_id: int, st: Timestamp, end: Timestamp) -> None:
        columns = self.slices.get(slice_index)
        if columns is None:
            columns = self.slices[slice_index] = [[], [], [], []]
        ids, sts, ends, alive = columns
        if not ids or object_id > ids[-1]:
            ids.append(object_id)
            sts.append(st)
            ends.append(end)
            alive.append(True)
            return
        pos = bisect_left(ids, object_id)
        ids.insert(pos, object_id)
        sts.insert(pos, st)
        ends.insert(pos, end)
        alive.insert(pos, True)

    def tombstone(self, slice_index: int, object_id: int) -> bool:
        columns = self.slices.get(slice_index)
        if columns is None:
            return False
        ids, _sts, _ends, alive = columns
        pos = bisect_left(ids, object_id)
        if pos < len(ids) and ids[pos] == object_id and alive[pos]:
            alive[pos] = False
            return True
        return False

    def n_physical_entries(self) -> int:
        return sum(len(columns[0]) for columns in self.slices.values())

    def n_sublists(self) -> int:
        return len(self.slices)


class TIFSlicing(TemporalIRIndex):
    """Inverted file with vertically sliced postings lists."""

    name = "tIF+Slicing"

    def __init__(self, n_slices: int = 50) -> None:
        super().__init__()
        self._n_slices = n_slices
        self._layout: Optional[GridLayout] = None
        self._lists: Dict[Element, _SlicedList] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):  # a Collection's domain, or a plain list's span
            st, end = min(o.st for o in collection), max(o.end for o in collection)
            self._layout = GridLayout.spanning(st, end, self._n_slices)

    @property
    def layout(self) -> Optional[GridLayout]:
        """The slicing grid (None until the first object arrives)."""
        return self._layout

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        grown = regrid(self._layout, obj, self._catalog, self._n_slices)
        if grown is not None:
            self._layout, self._lists = grown, {}
            for held in self._catalog.objects():
                self._slice_in(held)
        self._slice_in(obj)

    def _slice_in(self, obj: TemporalObject) -> None:
        assert self._layout is not None
        first, last = self._layout.slice_range(obj.st, obj.end)
        for element in obj.d:
            sliced = self._lists.get(element)
            if sliced is None:
                sliced = self._lists[element] = _SlicedList()
            for slice_index in range(first, last + 1):
                sliced.add(slice_index, obj.id, obj.st, obj.end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        if not obj.d:
            return  # nothing was ever stored for an empty description
        if self._layout is None:
            raise UnknownObjectError(obj.id)
        first, last = self._layout.slice_range(obj.st, obj.end)
        found = False
        for element in obj.d:
            sliced = self._lists.get(element)
            if sliced is None:
                continue
            for slice_index in range(first, last + 1):
                found |= sliced.tombstone(slice_index, obj.id)
        if not found:
            raise UnknownObjectError(obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        layout = self._layout
        if layout is None:
            if traced:
                event("empty index")
            return []
        ordered = self.order_query_elements(q)
        first_slice, last_slice = layout.slice_range(q.st, q.end)
        if traced:
            annotate(relevant_slices=last_slice - first_slice + 1)

        # Phase 1 (Algorithm 1 lines 3-6): temporally filter the least
        # frequent element's relevant sub-lists; reference-value dedup.
        sliced = self._lists.get(ordered[0])
        if sliced is None:
            if traced:
                event(f"filter+dedup I[{ordered[0]}] (absent)")
            return []
        candidates: List[int] = []
        q_st, q_end = q.st, q.end
        scanned = touched = 0
        for slice_index in range(first_slice, last_slice + 1):
            columns = sliced.slices.get(slice_index)
            if columns is None:
                continue
            ids, sts, ends, alive = columns
            if traced:
                scanned += len(ids)
                touched += 1
            slice_lo, slice_hi = layout.slice_bounds(slice_index)
            for i in range(len(ids)):
                if not alive[i]:
                    continue
                st, end = sts[i], ends[i]
                if q_st <= end and st <= q_end:
                    ref = st if st > q_st else q_st
                    if slice_lo <= ref < slice_hi or (slice_index == first_slice and ref < slice_lo):
                        candidates.append(ids[i])
        candidates.sort()
        if traced:
            event(
                f"filter+dedup I[{ordered[0]}]",
                entries_scanned=scanned,
                candidates_after=len(candidates),
                structures_touched=touched,
            )

        # Phase 2 (lines 7-8): intersect with each remaining element's
        # relevant sub-lists (id-sorted merge per slice, reference dedup).
        for element in ordered[1:]:
            if not candidates:
                return []
            sliced = self._lists.get(element)
            if sliced is None:
                if traced:
                    event(f"∩ sub-lists of I[{element}] (absent)")
                return []
            candidates, scanned, touched = intersect_slices(
                candidates, sliced.slices, layout, first_slice, last_slice, q_st
            )
            if traced:
                event(
                    f"∩ sub-lists of I[{element}]",
                    entries_scanned=scanned,
                    candidates_after=len(candidates),
                    structures_touched=touched,
                )
        return candidates

    # -------------------------------------------------------------- inspection
    def n_replicated_entries(self) -> int:
        """Stored postings entries including replication."""
        return sum(sliced.n_physical_entries() for sliced in self._lists.values())

    def size_bytes(self) -> int:
        total = CONTAINER_BYTES  # directory
        for sliced in self._lists.values():
            total += sliced.n_sublists() * CONTAINER_BYTES
            total += sliced.n_physical_entries() * ENTRY_FULL_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["n_slices"] = self._n_slices
        out["replicated_entries"] = self.n_replicated_entries()
        return out
