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

import numpy as np

from repro.core.collection import Collection
from repro.core.interval import Timestamp
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.tif_hint import _TIFHintBase
from repro.indexes.tif_slicing import intersect_slices, regrid
from repro.intervals.hint.index import Ids
from repro.intervals.grid1d import GridLayout
from repro.obs.context import annotate, tracing_active
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


class TIFHintSlicing(_TIFHintBase):
    """Dual-copy hybrid: HINT for the first element, slices for the rest."""

    name = "tIF+HINT+Slicing"
    _intersect_label = "∩ sub-lists of I[{element}]"

    def __init__(self, num_bits: int = 5, n_slices: int = 50) -> None:
        super().__init__(num_bits)
        self._n_slices = n_slices
        self._layout: Optional[GridLayout] = None
        self._sliced: Dict[Element, _SlimSlicedList] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):
            domain = collection.domain()
            self._layout = GridLayout.spanning(domain.st, domain.end, self._n_slices)

    @property
    def n_slices(self) -> int:
        return self._n_slices

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        super()._insert_impl(obj)
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
        super()._delete_impl(obj)
        assert self._layout is not None  # the object's own insert set it
        first, last = self._layout.slice_range(obj.st, obj.end)
        for element in obj.d:
            sliced = self._sliced.get(element)
            if sliced is not None:
                for slice_index in range(first, last + 1):
                    sliced.tombstone(slice_index, obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> Ids:
        if tracing_active() and self._layout is not None:
            first, last = self._layout.slice_range(q.st, q.end)
            annotate(relevant_slices=last - first + 1)
        return super()._query_impl(q)

    def _intersect(self, element, hint, candidates, q, notes=None) -> List[int]:
        """A slice-restricted merge with reference-value de-duplication on
        the element's ``⟨id, t_st⟩`` pairs."""
        layout = self._layout
        assert layout is not None  # the element's HINT holds an object
        sliced = self._sliced.get(element)  # none once a regrid found every holder deleted
        first, last = layout.slice_range(q.st, q.end)
        candidates, scanned, touched = intersect_slices(
            candidates.tolist() if isinstance(candidates, np.ndarray) else candidates,
            {} if sliced is None else sliced.slices,
            layout, first, last, q.st,
        )
        if notes is not None:
            notes.update(rows=scanned, slices=touched)
        return candidates

    # -------------------------------------------------------------- inspection
    def size_bytes(self) -> int:
        total = super().size_bytes()
        for sliced in self._sliced.values():
            total += sliced.n_sublists() * CONTAINER_BYTES
            total += sliced.n_physical_entries() * ENTRY_ID_START_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["n_slices"] = self._n_slices
        return out
