"""tIF+HINT+Slicing — the hybrid dual-copy IR-first index (paper Section 3.2).

Algorithm 4's weakness is fragmentation: after the first element, candidate
intersections run against *every* relevant HINT division, and a HINT has far
more divisions than a slicing grid has slices.  The hybrid therefore stores
each postings list twice:

* a HINT ``H[e]`` with id-sorted divisions — used only for the **first**
  (least frequent) query element, where HINT's fast range query shines;
* a sliced copy — used for all **subsequent** intersections, where the few
  relevant sub-lists keep the merge cheap.

The slice copy stores only ``⟨o.id, o.t_st⟩`` pairs: once the initial
candidate set is temporally exact, later intersections never check the
temporal predicate again, and ``t_st`` is retained solely for the
reference-value de-duplication [25] that replication requires (Section 3.2's
space-saving observation).  Its grid grows as tIF+Slicing's does
(:func:`~repro.indexes.tif_slicing.regrid`); each HINT takes its grid from
its own list.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

from repro.core.collection import Collection
from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.tif_hint import _ids_list, _traced_range_query
from repro.indexes.tif_slicing import intersect_slices, regrid
from repro.intervals.grid1d import GridLayout
from repro.intervals.hint.index import Hint
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_ID_START_BYTES


class _SlimSlicedList:
    """Per-slice ``⟨id, t_st⟩`` sub-lists, id-sorted (the second copy)."""

    __slots__ = ("slices",)

    def __init__(self) -> None:
        self.slices: Dict[int, List[list]] = {}  # slice -> [ids, sts, alive]

    def add(self, slice_index: int, object_id: int, st: Timestamp) -> None:
        columns = self.slices.get(slice_index)
        if columns is None:
            columns = self.slices[slice_index] = [[], [], []]
        ids, sts, alive = columns
        if not ids or object_id > ids[-1]:
            ids.append(object_id)
            sts.append(st)
            alive.append(True)
            return
        pos = bisect_left(ids, object_id)
        ids.insert(pos, object_id)
        sts.insert(pos, st)
        alive.insert(pos, True)

    def tombstone(self, slice_index: int, object_id: int) -> bool:
        columns = self.slices.get(slice_index)
        if columns is None:
            return False
        ids, _sts, alive = columns
        pos = bisect_left(ids, object_id)
        if pos < len(ids) and ids[pos] == object_id and alive[pos]:
            alive[pos] = False
            return True
        return False

    def n_physical_entries(self) -> int:
        return sum(len(columns[0]) for columns in self.slices.values())

    def n_sublists(self) -> int:
        return len(self.slices)


class TIFHintSlicing(TemporalIRIndex):
    """Dual-copy hybrid: HINT for the first element, slices for the rest."""

    name = "tIF+HINT+Slicing"

    def __init__(self, num_bits: int = 5, n_slices: int = 50) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._n_slices = n_slices
        self._layout: Optional[GridLayout] = None
        self._hints: Dict[Element, Hint] = {}
        self._sliced: Dict[Element, _SlimSlicedList] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):
            domain = collection.domain()
            self._layout = GridLayout.spanning(domain.st, domain.end, self._n_slices)

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def n_slices(self) -> int:
        return self._n_slices

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is None:
                hint = self._hints[element] = Hint(self._num_bits)
            hint.insert(obj.id, obj.st, obj.end)
        grown = regrid(self._layout, obj, self._catalog.values(), self._n_slices)
        if grown is not None:
            self._layout, self._sliced = grown, {}
            for held in self._catalog.values():
                self._slice_in(held)
        self._slice_in(obj)

    def _slice_in(self, obj: TemporalObject) -> None:
        assert self._layout is not None
        first, last = self._layout.slice_range(obj.st, obj.end)
        for element in obj.d:
            sliced = self._sliced.get(element)
            if sliced is None:
                sliced = self._sliced[element] = _SlimSlicedList()
            for slice_index in range(first, last + 1):
                sliced.add(slice_index, obj.id, obj.st)

    def _delete_impl(self, obj: TemporalObject) -> None:
        if not obj.d:
            return  # nothing was ever stored for an empty description
        if self._layout is None:
            raise UnknownObjectError(obj.id)
        first, last = self._layout.slice_range(obj.st, obj.end)
        found = False
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is not None:
                hint.delete(obj.id, obj.st, obj.end)
                found = True
            sliced = self._sliced.get(element)
            if sliced is not None:
                for slice_index in range(first, last + 1):
                    sliced.tombstone(slice_index, obj.id)
        if not found:
            raise UnknownObjectError(obj.id)

    def _settle(self) -> None:
        for hint in self._hints.values():
            hint.table()

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        layout = self._layout
        if layout is None:
            if traced:
                event("empty index")
            return []
        ordered = self.order_query_elements(q)
        first_hint = self._hints.get(ordered[0])
        if first_hint is None:
            if traced:
                event(f"range query H[{ordered[0]}] (absent)")
            return []
        # First element: HINT's fast range query provides the candidates.
        candidates = _ids_list(_traced_range_query(first_hint, q, ordered[0], traced))
        first_slice, last_slice = layout.slice_range(q.st, q.end)
        if traced:
            annotate(relevant_slices=last_slice - first_slice + 1)
        # Remaining elements: slice-restricted merge intersections with
        # reference-value de-duplication on the ⟨id, t_st⟩ pairs.
        for element in ordered[1:]:
            if not candidates:
                return []
            sliced = self._sliced.get(element)
            if sliced is None:
                if traced:
                    event(f"∩ sub-lists of I[{element}] (absent)")
                return []
            candidates, scanned, touched = intersect_slices(
                candidates, sliced.slices, layout, first_slice, last_slice, q.st
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
    def size_bytes(self) -> int:
        total = CONTAINER_BYTES
        for hint in self._hints.values():
            total += hint.size_bytes()
        for sliced in self._sliced.values():
            total += sliced.n_sublists() * CONTAINER_BYTES
            total += sliced.n_physical_entries() * ENTRY_ID_START_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["num_bits"] = self._num_bits
        out["n_slices"] = self._n_slices
        return out
