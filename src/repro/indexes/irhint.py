"""irHINT — the novel time-first composite index (paper Section 4).

HINT hierarchically indexes the time domain and inverted indexing is
injected into its divisions: a query reads, per relevant division, only the
postings of its elements, HINT's ``compfirst`` / ``complast`` flags dictate
the comparisons left to do, and its structural duplicate avoidance makes the
per-division outputs disjoint.

Two variants:

* :class:`IRHintPerformance` (Section 4.1, Algorithm 5) — element →
  ``⟨id, t_st, t_end⟩`` postings per division.  Stored flat: *one* id-ordered
  packed run per element (a :class:`~repro.indexes.tif.TIF`), and, for the
  runs long enough to pay for it, a derived
  :class:`~repro.indexes.timefirst.TimeFirstTable` holding that element's
  divisions as level-contiguous columns — the paper's own hybrid (§3.2):
  hierarchy only where a list is long.  Fastest queries; the tables
  replicate entries, so the index is larger than the tIF.
* :class:`IRHintSize` (Section 4.2, Algorithm 6) — each division decouples
  the attributes: one interval store identical to original HINT (with
  beneficial sorting — this is a real :class:`~repro.intervals.hint.Hint`)
  plus an id-only inverted index.  The time interval of each division object
  is stored exactly once; queries first run the division's range filter,
  sort the candidates by id, then merge-intersect with the division's
  id-postings per query element.

The number of bits ``m`` defaults to the HINT cost model of [19], which the
paper found effective for irHINT thanks to its HINT-first design (§5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.collection import Collection
from repro.core.errors import CorruptSnapshotError, UnknownObjectError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes import timefirst
from repro.indexes.base import TemporalIRIndex
from repro.indexes.tif import TIF
from repro.intervals.hint.cost_model import choose_num_bits
from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.index import Hint
from repro.intervals.hint.partition import SortPolicy
from repro.intervals.hint.traversal import DivisionKind, assign
from repro.ir.postings import IdPostingsList
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

#: Headroom irHINT-size leaves above the built domain for insertions.
DOMAIN_SLACK = 0.25

#: Division key: (level, partition index, is_original) — plain ints/bools
#: hash faster than enum members on this hot path.
_DivisionKey = Tuple[int, int, bool]


def _cost_model_bits(objects) -> int:
    """The cost model's ``m`` for these objects' lifespans."""
    return choose_num_bits([(obj.id, obj.st, obj.end) for obj in objects])


def _default_mapper(collection: Collection, num_bits: Optional[int]) -> DomainMapper:
    """Domain mapper for a collection, with cost-model ``m`` when unset."""
    domain = collection.domain()
    if num_bits is None:
        num_bits = _cost_model_bits(collection)
    return DomainMapper.with_slack(domain.st, domain.end, num_bits, slack=DOMAIN_SLACK)


class IRHintPerformance(TIF):
    """Algorithm 5 on flat storage: a tIF whose long lists carry a
    time-first table.

    Updates are the tIF's — one append or tombstone per description
    element.  A query scans its rarest element's list through that list's
    table when the list is long enough to want one (building it first if it
    is absent or stale) and flat otherwise, and intersects the rest as
    Algorithm 1 does.  Tables are derived state: built by queries, each
    aside and published by one assignment, never changed afterwards, never
    pickled.
    """

    name = "irHINT (performance)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._tables: Dict[Element, timefirst.TimeFirstTable] = {}

    def _configure_for(self, collection: Collection) -> None:
        if self._num_bits is None and len(collection):
            self._num_bits = _cost_model_bits(collection)

    @property
    def num_bits(self) -> int:
        """``m`` actually in use: the constructor's, else the cost model's
        over the collection built from, else — for an index that started
        empty — over the objects held when first asked."""
        if self._num_bits is None:
            if not self._catalog:
                raise UnknownObjectError("index is empty; no m chosen yet")
            self._num_bits = _cost_model_bits(self._catalog.values())
        return self._num_bits

    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        del state["_tables"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        if "_tif" not in state:
            raise CorruptSnapshotError("irHINT snapshot predates the flat layout")
        self.__dict__.update(state)
        self._tables = {}

    # ------------------------------------------------------------------ query
    def _table_for(self, element: Element, postings) -> timefirst.TimeFirstTable:
        """The element's table, built here when absent or stale."""
        table = self._tables.get(element)
        if table is None or not table.is_fresh(postings):
            table = self._tables[element] = timefirst.TimeFirstTable(postings, self.num_bits)
        return table

    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        ordered = self.order_query_elements(q)
        first = self._tif.postings(ordered[0])
        if not timefirst.wants_table(first):
            if traced:
                annotate(table="none")
                if self._num_bits is not None:
                    annotate(m=self._num_bits)
            return self._tif.query(q.st, q.end, ordered)
        found = self._tables.get(ordered[0])
        table = self._table_for(ordered[0], first)
        if not traced:
            return self._tif.intersect(table.scan_ids(first, q.st, q.end), ordered[1:])
        notes: Dict[str, object] = {}
        candidates = table.scan_ids(first, q.st, q.end, notes)
        event(
            f"{notes.pop('phase', 'scan')} I[{ordered[0]}]",
            entries_scanned=notes.pop("rows", 0),
            candidates_after=len(candidates),
            structures_touched=notes.pop("slices", 0),
        )
        # The table as the query found it; anything but fresh was (re)built here.
        annotate(
            **notes,
            table="fresh" if table is found else "none" if found is None else "stale",
            m=table.mapper.num_bits,
        )
        return self._tif.intersect(candidates, ordered[1:])

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """The tIF's bound, with the rarest list counted by its physical
        slots when a table scans it (the table, or its flat fallback, reads
        at most those); ``None`` when the query would build or rebuild that
        table first."""
        bound = super().work_bound(q)
        if bound is None:
            return None
        rarest = self.order_query_elements(q)[0]
        first = self._tif.postings(rarest)
        if not timefirst.wants_table(first):
            return bound
        table = self._tables.get(rarest)
        if table is None or not table.is_fresh(first):
            return None
        return bound + first.physical_len() - len(first)

    # -------------------------------------------------------------- inspection
    def _all_tables(self) -> List[timefirst.TimeFirstTable]:
        """Every table the index holds at rest: the ones a warm index has
        built, building here whichever are missing or stale."""
        tif = self._tif
        # Publishing a new dict drops the tables of lists that spilled or shrank.
        self._tables = {
            element: self._table_for(element, postings)
            for element in tif.elements()
            if timefirst.wants_table(postings := tif.postings(element))
        }
        return list(self._tables.values())

    def n_divisions(self) -> int:
        """Materialised (non-empty) divisions, over all tables."""
        return sum(table.n_divisions for table in self._all_tables())

    def size_bytes(self) -> int:
        """The tIF plus every table row charged as a full entry."""
        total = super().size_bytes()
        for table in self._all_tables():
            total += table.n_rows * ENTRY_FULL_BYTES + CONTAINER_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        tables = self._all_tables()
        out["num_bits"] = self._num_bits
        out["n_tables"] = len(tables)
        out["n_divisions"] = sum(table.n_divisions for table in tables)
        out["division_entries"] = sum(table.n_rows for table in tables)
        return out


class IRHintSize(TemporalIRIndex):
    """Algorithm 6: per division, one interval store + an id-only inverted index."""

    name = "irHINT (size)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._requested_bits = num_bits
        self._hint: Optional[Hint] = None
        self._inverted: Dict[_DivisionKey, Dict[Element, IdPostingsList]] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):
            mapper = _default_mapper(collection, self._requested_bits)
            self._hint = Hint(mapper, sort_policy=SortPolicy.TEMPORAL)

    def _ensure_hint(self, st, end) -> Hint:
        if self._hint is None:
            mapper = DomainMapper.with_slack(
                st, end, self._requested_bits or 10, slack=DOMAIN_SLACK
            )
            self._hint = Hint(mapper, sort_policy=SortPolicy.TEMPORAL)
        return self._hint

    @property
    def num_bits(self) -> int:
        if self._hint is None:
            raise UnknownObjectError("index is empty; no HINT configured yet")
        return self._hint.num_bits

    @property
    def interval_hint(self) -> Optional[Hint]:
        """The interval-store HINT (tests, diagnostics)."""
        return self._hint

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        hint = self._ensure_hint(obj.st, obj.end)
        hint.insert(obj.id, obj.st, obj.end)
        mapper = hint.mapper
        st_cell, end_cell = mapper.cell_range(obj.st, obj.end)
        for level, j, is_original in assign(hint.num_bits, st_cell, end_cell):
            key = (level, j, is_original)
            postings = self._inverted.get(key)
            if postings is None:
                postings = self._inverted[key] = {}
            for element in obj.d:
                id_list = postings.get(element)
                if id_list is None:
                    id_list = postings[element] = IdPostingsList()
                id_list.add(obj.id)

    def _delete_impl(self, obj: TemporalObject) -> None:
        if self._hint is None:
            raise UnknownObjectError(obj.id)
        hint = self._hint
        hint.delete(obj.id, obj.st, obj.end)
        mapper = hint.mapper
        st_cell, end_cell = mapper.cell_range(obj.st, obj.end)
        for level, j, is_original in assign(hint.num_bits, st_cell, end_cell):
            postings = self._inverted.get((level, j, is_original))
            if postings is None:
                continue
            for element in obj.d:
                id_list = postings.get(element)
                if id_list is not None and obj.id in id_list:
                    id_list.delete(obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        return self._traverse(q)

    def _pure_temporal_query(self, q: TimeTravelQuery) -> List[int]:
        if tracing_active():
            # The traversal is the range query when q.d = ∅; running it
            # keeps the trace's per-division accounting on the real path.
            return self._traverse(q)
        if self._hint is None:
            return []
        return self._hint.range_query(q.st, q.end)

    def _traverse(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        hint = self._hint
        if hint is None:
            if traced:
                event("empty index")
            return []
        out: List[int] = []
        # Global frequency order, computed once (Algorithm 1 line 2).
        ordered = self._dictionary.order_by_frequency(q.d) if q.d else []
        originals = DivisionKind.ORIGINALS
        touched = interval_candidates = 0
        for level, j, partition, kind, check in hint.iter_query_divisions(q.st, q.end):
            # Step 1 (Alg. 6): range-filter the division's interval store.
            candidates: List[int] = []
            partition.scan_division(kind, check, q.st, q.end, candidates)
            if traced:
                touched += 1
                interval_candidates += len(candidates)
            if not candidates:
                continue
            candidates.sort()  # by object id, for the merge intersections
            # Step 2: progressive merge intersections with the division's
            # id-only postings lists (QueryIF).
            postings = self._inverted.get((level, j, kind is originals))
            if postings is None:
                if ordered:
                    continue
                out.extend(candidates)
                continue
            for element in ordered:
                id_list = postings.get(element)
                if id_list is None:
                    candidates = []
                    break
                candidates = id_list.intersect_sorted(candidates)
                if not candidates:
                    break
            out.extend(candidates)
        out.sort()
        if traced:
            event(
                "interval-store range filters",
                entries_scanned=interval_candidates,
                candidates_after=interval_candidates,
                structures_touched=touched,
            )
            event(
                "per-division id-postings merges",
                entries_scanned=interval_candidates,
                candidates_after=len(out),
                structures_touched=touched,
            )
            annotate(m=hint.num_bits)
        return out

    # -------------------------------------------------------------- inspection
    def n_divisions(self) -> int:
        return len(self._inverted)

    def size_bytes(self) -> int:
        total = CONTAINER_BYTES
        if self._hint is not None:
            total += self._hint.size_bytes()
        for postings in self._inverted.values():
            total += CONTAINER_BYTES
            for id_list in postings.values():
                total += id_list.size_bytes()
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["num_bits"] = None if self._hint is None else self._hint.num_bits
        out["n_divisions"] = self.n_divisions()
        return out
