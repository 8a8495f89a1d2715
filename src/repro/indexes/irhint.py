"""irHINT — the novel time-first composite index (paper Section 4).

HINT hierarchically indexes the time domain and inverted indexing is
injected into its divisions: a query reads, per relevant division, only the
postings of its elements, HINT's ``compfirst`` / ``complast`` flags dictate
the comparisons left to do, and its structural duplicate avoidance makes the
per-division outputs disjoint.

Two variants:

* :class:`IRHintPerformance` (Section 4.1, Algorithm 5) — element →
  ``⟨id, t_st, t_end⟩`` postings per division.  Stored flat, on the
  HINT-first skeleton of :mod:`repro.indexes.tif_hint`: one
  :class:`~repro.intervals.hint.Hint` per element, whose id-ordered packed
  run is the element's list and, where the cost rule finds a table pays,
  whose :class:`~repro.intervals.hint.timefirst.TimeFirstTable` holds that
  element's divisions as level-contiguous columns — the paper's own hybrid
  (§3.2): hierarchy only where a list is long.  It shares tIF+HINT's store
  and query loop and differs in its intersection: Algorithm 1's id merge
  on each other element's whole run.  Fastest queries; the tables
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

from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns, TemporalIRIndex
from repro.indexes.tif_hint import _TIFHintBase
from repro.intervals.hint import timefirst
from repro.intervals.hint.index import Hint, Ids
from repro.ir.packed import PackedPostingsList
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_ID_BYTES

#: The cap ``num_bits=None`` stands for: the ceiling of the ``m`` HINT's
#: cost model of [19] searches for irHINT.
DEFAULT_BITS = 16


def _cap(num_bits: Optional[int]) -> int:
    return DEFAULT_BITS if num_bits is None else num_bits


class IRHintPerformance(_TIFHintBase):
    """Algorithm 5 on the HINT-first skeleton: one :class:`Hint` per
    element, intersected as Algorithm 1 does.

    Updates append or tombstone one slot per description element.  A query
    scans its rarest element's run through the run's table when the cost
    rule gives it one (asking the rule first if its verdict is absent or
    stale) and flat otherwise, then merges the ascending candidates with
    each other element's whole run.  Verdicts are lazy: a bulk build asks
    the rule of no run, and only a run's first read does.
    """

    name = "irHINT (performance)"
    _scan_label = "scan I[{element}]"
    _intersect_label = "∩ I[{element}]"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__(_cap(num_bits))

    def _settle(self) -> None:
        """Nothing: each run's first read asks the rule."""

    # ------------------------------------------------------------------ query
    def _scan(self, element: Element, hint: Hint, q: TimeTravelQuery, traced: bool) -> Ids:
        run, found = hint._run, hint._table
        table = hint.table()
        if not traced:
            return run.scan_ids(q.st, q.end) if table is None else table.scan_ids(run, q.st, q.end)
        notes: Dict[str, object] = {}
        if table is None:
            candidates = run.scan_ids(q.st, q.end)
            notes.update(rows=len(run), slices=1)
        else:
            candidates = table.scan_ids(run, q.st, q.end, notes)
        event(
            f"{notes.pop('phase', 'scan')} I[{element}]",
            entries_scanned=notes.pop("rows", 0),
            candidates_after=len(candidates),
            structures_touched=notes.pop("slices", 0),
        )
        # The table as the query found it; anything but fresh was (re)built here.
        annotate(
            **notes,
            table="none" if table is None or found is None else "fresh" if table is found else "stale",
            m=0 if table is None else table.mapper.num_bits,
        )
        return candidates

    def _intersect(self, element, hint, candidates, q, notes=None) -> Ids:
        run = hint._run
        if notes is not None:
            notes.update(rows=len(run), slices=1)
        return run.intersect_sorted(candidates)

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """The query elements' live run lengths, summed (the first read and
        every merge read at most that many entries), with the rarest run
        counted by its physical slots when a table scans it (the table, or
        its flat fallback, reads at most those); ``None`` when the query
        would ask the cost rule first, which may build a table, and for a
        pure-temporal query, which scans the catalog."""
        if q.is_pure_temporal:
            return None
        hints = self._hints
        bound = sum(len(hints[element]) for element in q.d if element in hints)
        hint = hints.get(self.order_query_elements(q)[0])
        if hint is None:
            return bound
        if hint.pending():
            return None
        if hint.table() is None:
            return bound
        return bound + hint._run.physical_len() - len(hint)


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

    @property
    def num_bits(self) -> int:
        """The cap on the store table's ``m``; the cost rule picks it."""
        return self._hint.num_bits

    @property
    def interval_hint(self) -> Hint:
        """The interval-store HINT (tests, diagnostics)."""
        return self._hint

    # ---------------------------------------------------------------- updates
    def _load_columns(self, columns: BuildColumns) -> None:
        """The store's run, sorted by id once."""
        ids, sts, ends, _ = columns.held()
        self._hint = Hint(self._hint.num_bits, PackedPostingsList.from_columns(ids, sts, ends))

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
        terms, pair_codes, ids = self._catalog.pairs()
        # Every row of each (element, id) pair's slot: rows grouped by id.
        row_ids = self._hint.row_ids(verdict)
        by_id = np.argsort(row_ids, kind="stable")
        sorted_ids = row_ids[by_id]
        first = sorted_ids.searchsorted(ids, "left")
        counts = sorted_ids.searchsorted(ids, "right") - first
        pair = np.repeat(np.arange(len(ids)), counts)
        rank = np.arange(len(pair)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = by_id[first[pair] + rank]
        elements = pair_codes[pair]
        order = np.lexsort((rows, elements))
        rows, elements = rows[order], elements[order]
        starts = elements.searchsorted(np.arange(len(terms) + 1)).tolist()
        columns = {
            element: rows[starts[code] : starts[code + 1]]
            for code, element in enumerate(terms)
            if starts[code] < starts[code + 1]
        }
        self._columns = (verdict, int(row_ids.max()), columns)
        return columns

    def _holds(self, object_id: int, elements: List[Element]) -> bool:
        """Does the catalog's object hold every one of ``elements``?"""
        d = self._catalog.get(object_id).d
        return all(element in d for element in elements)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> Ids:
        return self._traverse(q)

    def _pure_temporal_query(self, q: TimeTravelQuery) -> Ids:
        if tracing_active():
            # The traversal is the range query when q.d = ∅; running it
            # keeps the trace's accounting on the real path.
            return self._traverse(q)
        return self._hint.scan_ids(q.st, q.end)

    def _traverse(self, q: TimeTravelQuery) -> Ids:
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
            kept = [oid for oid in tail if self._holds(oid, ordered)]
            out = np.concatenate([ids, np.array(kept, dtype=np.int64)]) if kept else ids
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
