"""tIF+HINT+Slicing — the hybrid dual-copy IR-first index (paper Section 3.2).

Algorithm 4's weakness is fragmentation: after the first element, candidate
intersections run against *every* relevant HINT division, and a HINT has far
more divisions than a slicing grid has slices.  The hybrid therefore stores
each postings list twice:

* a HINT ``H[e]`` with id-sorted divisions — used only for the **first**
  (least frequent) query element, where HINT's fast range query shines;
* a sliced copy — used for all **subsequent** intersections, where the few
  relevant sub-lists keep the merge cheap.

The paper's slice copy stores only ``⟨o.id, o.t_st⟩`` pairs: once the
initial candidate set is temporally exact, later intersections never check
the temporal predicate again, and ``t_st`` is retained solely for the
reference-value de-duplication [25] that replication requires (Section 3.2's
space-saving observation).  The size model charges that pair; the copy
itself is tIF+Slicing's (:class:`~repro.indexes.tif_slicing.SlicedLists`),
whose sorted union of the per-slice matches reports each candidate once.
Its grid grows as tIF+Slicing's does; each HINT takes its grid from its
own list.
"""

from __future__ import annotations

from repro.core.collection import Collection
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns
from repro.indexes.tif_hint import _TIFHintBase
from repro.indexes.tif_slicing import SlicedLists, cut, entries, union
from repro.intervals.hint.index import Ids
from repro.obs.context import annotate, tracing_active
from repro.utils.memory import ENTRY_ID_START_BYTES


class TIFHintSlicing(_TIFHintBase):
    """Dual-copy hybrid: HINT for the first element, slices for the rest."""

    name = "tIF+HINT+Slicing"
    _intersect_label = "∩ sub-lists of I[{element}]"

    def __init__(self, num_bits: int = 5, n_slices: int = 50) -> None:
        super().__init__(num_bits)
        self._sliced = SlicedLists(n_slices)

    def _configure_for(self, collection: Collection) -> None:
        self._sliced.span(collection)

    @property
    def n_slices(self) -> int:
        return self._sliced.n_slices

    # ---------------------------------------------------------------- updates
    def _load_columns(self, columns: BuildColumns) -> None:
        """Each element's run under its HINT, and cut into its slices."""
        super()._load_columns(columns)
        if self._sliced.layout is not None:
            runs = ((element, hint._run) for element, hint in self._hints.items())
            self._sliced.lists = cut(runs, self._sliced.layout)

    def _insert_impl(self, obj: TemporalObject) -> None:
        super()._insert_impl(obj)
        self._sliced.add(obj, self._catalog)

    def _delete_impl(self, obj: TemporalObject) -> None:
        super()._delete_impl(obj)
        self._sliced.delete(obj)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> Ids:
        if tracing_active() and self._sliced.layout is not None:
            first, last = self._sliced.layout.slice_range(q.st, q.end)
            annotate(relevant_slices=last - first + 1)
        return super()._query_impl(q)

    def _intersect(self, element, hint, candidates, q, notes=None) -> Ids:
        """The union of the candidates each relevant sub-list of the
        element holds (none once the grid grew with every holder deleted)."""
        runs = self._sliced.relevant(element, q) or []
        if notes is not None:
            notes.update(rows=entries(runs), slices=len(runs))
        return union([run.intersect_sorted(candidates) for run in runs])

    # -------------------------------------------------------------- inspection
    def size_bytes(self) -> int:
        return super().size_bytes() + self._sliced.size_bytes(ENTRY_ID_START_BYTES)

    def stats(self) -> dict:
        out = super().stats()
        out["n_slices"] = self._sliced.n_slices
        return out
