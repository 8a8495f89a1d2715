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
  runs the cost rule finds a table pays on, a derived
  :class:`~repro.intervals.hint.timefirst.TimeFirstTable` holding that element's
  divisions as level-contiguous columns — the paper's own hybrid (§3.2):
  hierarchy only where a list is long.  Fastest queries; the tables
  replicate entries, so the index is larger than the tIF.
* :class:`IRHintSize` (Section 4.2, Algorithm 6) — the attributes are
  decoupled: one interval store, a real :class:`~repro.intervals.hint.Hint`
  over every object, plus, per element, one id column: the store's rows
  whose object holds the element, in the store's (partition key, id)
  order.  The time interval of each object is stored once (in the store's
  run and rows); a query runs the store's range filter over its divisions,
  then intersects the surviving rows with each query element's column —
  one ``searchsorted`` for every division at once.

Each run's ``m`` comes from the HINT cost model of [19], which the paper
found effective for irHINT thanks to its HINT-first design (§5.4), applied
per run at each (re)build (:func:`~repro.intervals.hint.timefirst.decide`);
``num_bits`` caps it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import CorruptSnapshotError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.tif import TIF
from repro.intervals.hint import timefirst
from repro.intervals.hint.index import Hint
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES, ENTRY_ID_BYTES

#: The cap ``num_bits=None`` stands for: the ceiling of the ``m`` HINT's
#: cost model of [19] searches for irHINT.
DEFAULT_BITS = 16


def _cap(num_bits: Optional[int]) -> int:
    return DEFAULT_BITS if num_bits is None else num_bits


class IRHintPerformance(TIF):
    """Algorithm 5 on flat storage: a tIF whose long lists carry a
    time-first table.

    Updates are the tIF's — one append or tombstone per description
    element.  A query scans its rarest element's list through that list's
    table when the cost rule gives the list one (asking the rule first if
    its verdict is absent or stale) and flat otherwise, and intersects the
    rest as Algorithm 1 does.  Verdicts are derived state: made by queries,
    each aside and published by one assignment, never changed afterwards,
    never pickled.
    """

    name = "irHINT (performance)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._num_bits = _cap(num_bits)
        self._tables: Dict[Element, timefirst.Verdict] = {}

    @property
    def num_bits(self) -> int:
        """The cap on every table's ``m``; the cost rule picks each one."""
        return self._num_bits

    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        del state["_tables"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        if "_tif" not in state:
            raise CorruptSnapshotError("irHINT snapshot predates the flat layout")
        self.__dict__.update(state)
        self._num_bits = _cap(self._num_bits)  # an older build's lazy m may be unset
        self._tables = {}

    # ------------------------------------------------------------------ query
    def _table_for(self, element: Element, postings) -> Optional[timefirst.TimeFirstTable]:
        """The element's table, the cost rule asked here when its verdict
        is absent or stale; ``None`` when the list reads flat.  Only the
        verdicts of lists the rule prices are kept."""
        if not timefirst.priced(postings):
            self._tables.pop(element, None)
            return None
        held = self._tables.get(element)
        verdict = timefirst.decide(postings, held, self._num_bits)
        if verdict is not held:
            self._tables[element] = verdict
        return verdict.table

    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        ordered = self.order_query_elements(q)
        first = self._tif.postings(ordered[0])
        found = self._tables.get(ordered[0])
        table = self._table_for(ordered[0], first)
        if table is None:
            if traced:
                annotate(table="none", m=0)
            return self._tif.query(q.st, q.end, ordered)
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
        at most those); ``None`` when the query would ask the cost rule
        first, which may build a table."""
        bound = super().work_bound(q)
        if bound is None:
            return None
        rarest = self.order_query_elements(q)[0]
        first = self._tif.postings(rarest)
        verdict = self._tables.get(rarest)
        if verdict is None or not verdict.is_fresh(first):
            return None if timefirst.priced(first) else bound
        if verdict.table is None:
            return bound
        return bound + first.physical_len() - len(first)

    # -------------------------------------------------------------- inspection
    def _all_tables(self) -> List[timefirst.TimeFirstTable]:
        """Every table the index holds at rest: the rule asked here of
        every list whose verdict is missing or stale."""
        tif = self._tif
        tables = (self._table_for(element, tif.postings(element)) for element in tif.elements())
        return [table for table in tables if table is not None]

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
    """Algorithm 6: one interval store + one id column per element.

    The columns are derived from the store's verdict (its table, or, read
    flat, its slots) and the catalog, by the first query that finds them
    absent or built for another verdict, and never pickled.  An insert of
    an id the columns already cover (a revive, or a mid-run insert) drops
    them, since its description may differ; appended objects sit in the
    store's tail, whose rows are checked against the catalog instead.
    """

    name = "irHINT (size)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._hint = Hint(_cap(num_bits))
        #: (verdict, largest id it holds, element → ascending row numbers).
        self._columns: Optional[Tuple[timefirst.Verdict, int, Dict[Element, np.ndarray]]] = None

    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        state["_columns"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # An older build kept the requested m aside, made the store when
        # first configured, and froze the store's m then: the cap is the
        # request's, whatever the store was given.
        if "_requested_bits" in state:
            cap = _cap(state.pop("_requested_bits"))
            if state["_hint"] is None:
                state["_hint"] = Hint(cap)
            state["_hint"]._m = cap
        self.__dict__.update(state)

    @property
    def num_bits(self) -> int:
        """The cap on the store table's ``m``; the cost rule picks it."""
        return self._hint.num_bits

    @property
    def interval_hint(self) -> Hint:
        """The interval-store HINT (tests, diagnostics)."""
        return self._hint

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        self._hint.insert(obj.id, obj.st, obj.end)
        if self._columns is not None and obj.id <= self._columns[1]:
            self._columns = None

    def _delete_impl(self, obj: TemporalObject) -> None:
        self._hint.delete(obj.id, obj.st, obj.end)

    def _settle(self) -> None:
        verdict = self._hint.verdict()
        if verdict is not None:
            self._columns_for(verdict)

    # ---------------------------------------------------------------- columns
    def _columns_for(self, verdict: timefirst.Verdict) -> Dict[Element, np.ndarray]:
        """Per element, the rows of ``verdict``'s divisions whose object
        holds it, ascending: its id column in (partition key, id) order —
        in id order when the store reads flat — addressed by row number."""
        cached = self._columns  # one read: a concurrent reader may publish its own
        if cached is not None and cached[0] is verdict:
            return cached[2]
        codes: Dict[Element, int] = {}
        pair_codes: List[int] = []
        pair_ids: List[int] = []
        for obj in self._catalog.values():
            for element in obj.d:
                pair_codes.append(codes.setdefault(element, len(codes)))
                pair_ids.append(obj.id)
        # Every row of each (element, id) pair's slot: rows grouped by id.
        row_ids = self._hint.row_ids(verdict)
        by_id = np.argsort(row_ids, kind="stable")
        sorted_ids = row_ids[by_id]
        ids = np.array(pair_ids, dtype=np.int64)
        first = sorted_ids.searchsorted(ids, "left")
        counts = sorted_ids.searchsorted(ids, "right") - first
        pair = np.repeat(np.arange(len(ids)), counts)
        rank = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = by_id[first[pair] + rank]
        elements = np.array(pair_codes, dtype=np.int64)[pair]
        order = np.lexsort((rows, elements))
        rows, elements = rows[order], elements[order]
        starts = elements.searchsorted(np.arange(len(codes) + 1))
        columns = {
            element: rows[starts[code] : starts[code + 1]] for element, code in codes.items()
        }
        self._columns = (verdict, int(row_ids.max()), columns)
        return columns

    def _holds(self, object_id: int, elements: List[Element]) -> bool:
        """Does the catalog's object hold every one of ``elements``?"""
        d = self._catalog[object_id].d
        return all(element in d for element in elements)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        return self._traverse(q)

    def _pure_temporal_query(self, q: TimeTravelQuery) -> List[int]:
        if tracing_active():
            # The traversal is the range query when q.d = ∅; running it
            # keeps the trace's accounting on the real path.
            return self._traverse(q)
        return self._hint.range_query(q.st, q.end)

    def _traverse(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        hint = self._hint
        # Global frequency order, computed once (Algorithm 1 line 2).
        ordered = self._dictionary.order_by_frequency(q.d) if q.d else []
        notes: Optional[Dict[str, object]] = {} if traced else None
        found = hint.division_rows(q.st, q.end, notes)
        probed = 0
        if found is None:
            # An empty or spilled store: one flat pass, the descriptions
            # read from the catalog.
            flat = hint.scan_ids(q.st, q.end, notes)
            passed = len(flat)
            out = [oid for oid in flat if self._holds(oid, ordered)]
        else:
            # Step 1 (Alg. 6): the store's range filter over its divisions.
            verdict, rows, ids = found
            passed = len(rows)
            indexed = rows < verdict.n_rows
            rows, tail = rows[indexed], ids[~indexed].tolist()
            ids = ids[indexed]
            # Step 2: every division's survivors against each element's
            # column at once — both are in (partition key, id) order.
            columns = self._columns_for(verdict) if ordered else {}
            for element in ordered:
                column = columns.get(element)
                if column is None or not len(column) or not len(rows):
                    rows = ids = ids[:0]
                    break
                probed += len(rows)
                positions = column.searchsorted(rows)
                np.minimum(positions, len(column) - 1, out=positions)
                hit = column[positions] == rows
                rows, ids = rows[hit], ids[hit]
            out = ids.tolist() + [oid for oid in tail if self._holds(oid, ordered)]
        out.sort()
        if traced:
            assert notes is not None
            event(
                "interval-store range filters",
                entries_scanned=notes.get("rows", 0),
                candidates_after=passed,
                structures_touched=notes.get("slices", 0),
            )
            event(
                "per-element id-column intersections",
                entries_scanned=probed,
                candidates_after=len(out),
                structures_touched=len(ordered),
            )
            annotate(m=hint.num_bits)
        return out

    # -------------------------------------------------------------- inspection
    def n_divisions(self) -> int:
        return self._hint.n_divisions()

    def size_bytes(self) -> int:
        """The interval store, plus every column entry as a bare id and a
        container per column."""
        total = CONTAINER_BYTES + self._hint.size_bytes()  # settles the store
        verdict = self._hint.verdict()
        if verdict is not None:
            for column in self._columns_for(verdict).values():
                total += len(column) * ENTRY_ID_BYTES + CONTAINER_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["num_bits"] = self._hint.num_bits
        out["n_divisions"] = self.n_divisions()
        return out
