"""The HINT-first skeleton, and tIF+HINT on it (paper Section 3.1).

The temporal inverted file is extended by replacing every postings list
``I[e]`` with a HINT ``H[e]`` over that element's intervals.  The initial
candidate set comes from a full HINT range query on the least frequent query
element; the methods built on this skeleton differ only in how each
remaining element shrinks it (:meth:`_TIFHintBase._intersect`):

* :class:`TIFHintBinary` (Algorithm 3) — the rows of every division the
  query reads in ``H[e]`` are compared against the query interval, and
  each survivor is binary-searched into the candidates.  The temporal
  comparisons stay because they are cheaper than a binary search per
  division object.
* :class:`TIFHintMerge` (Algorithm 4) — the same divisions are swept with
  no temporal comparison and no ``compfirst``/``complast`` flags, since the
  candidates are already temporally exact; their ids are merge-intersected
  with the candidates.
* the hybrid (:class:`~repro.indexes.tif_hint_slicing.TIFHintSlicing`,
  Section 3.2) — the element's slim slice copy;
* irHINT-perf (:class:`~repro.indexes.irhint.IRHintPerformance`,
  Algorithm 5) — Algorithm 1's id merge on the element's whole run.

Each ``H[e]`` is a :class:`~repro.intervals.hint.Hint`: one id-ordered run
whose divisions are row slices of its time-first table, read for every
level at once; the cost rule decides per run whether it has a table.  One
layout serves both tIF+HINT variants: Algorithm 4's id-sorted divisions
and Algorithm 3's beneficial sorting both give way to one mask over the
gathered rows (docs/algorithms.md, DEVIATION).  Each HINT grids its own
list's span, as the paper rescales each list to ``[0, 2^m − 1]``.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns, TemporalIRIndex
from repro.intervals.hint.index import Hint, Ids
from repro.ir.packed import pack_runs, unpack_runs
from repro.obs.context import event, tracing_active
from repro.utils.memory import CONTAINER_BYTES


def _phase(label: str, notes: Dict[str, object], candidates: Ids) -> None:
    """Record one phase from a read's notes: rows read, slices cut."""
    event(
        label,
        entries_scanned=notes.get("rows", 0),
        candidates_after=len(candidates),
        structures_touched=notes.get("slices", 0),
    )


class _TIFHintBase(TemporalIRIndex):
    """The HINT-first skeleton: one :class:`Hint` per element, whose run is
    the element's postings list.  A query reads its rarest element through
    that element's HINT (:meth:`_scan`) and shrinks the candidates by each
    other element in turn (:meth:`_intersect`)."""

    #: Trace labels of the first read and of each intersection.
    _scan_label = "range query H[{element}]"
    _intersect_label = "∩ divisions of H[{element}]"

    def __init__(self, num_bits: int = 10) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._hints: Dict[Element, Hint] = {}

    @property
    def num_bits(self) -> int:
        """The cap on every run's ``m`` (Figure 9's tuning knob); the cost
        rule picks each one."""
        return self._num_bits

    def hint_for(self, element: Element) -> Optional[Hint]:
        """The postings HINT of an element (tests, diagnostics)."""
        return self._hints.get(element)

    # Every run pickles in one run set, beside the elements in dict order.
    def __getstate__(self) -> Dict[str, object]:
        state = super().__getstate__()
        state["_hints"] = (tuple(self._hints), pack_runs([h._run for h in self._hints.values()]))
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        elements, runs = state["_hints"]
        hints = (Hint(state["_num_bits"], run) for run in unpack_runs(runs))
        state["_hints"] = dict(zip(elements, hints))
        super().__setstate__(state)

    # ---------------------------------------------------------------- updates
    def _load_columns(self, columns: BuildColumns) -> None:
        """One :class:`Hint` over each element's run, the runs cut from one sort."""
        num_bits = self._num_bits
        self._hints = {element: Hint(num_bits, run) for element, run in columns.runs()}

    # Straight to the runs: one dict probe per element.  The catalog's
    # copy of the object is what reaches here, so every run holds it.
    def _insert_impl(self, obj: TemporalObject) -> None:
        hints, object_id, st, end = self._hints, obj.id, obj.st, obj.end
        for element in obj.d:
            hint = hints.get(element)
            if hint is None:
                hint = hints[element] = Hint(self._num_bits)
            hint._run.add(object_id, st, end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        hints, object_id = self._hints, obj.id
        for element in obj.d:
            hints[element]._run.delete(object_id)

    def _settle(self) -> None:
        for hint in self._hints.values():
            hint.verdict()

    # ------------------------------------------------------------------ query
    def _scan(self, element: Element, hint: Hint, q: TimeTravelQuery, traced: bool) -> Ids:
        """Lines 1-3: the rarest element's live ids overlapping ``q``,
        ascending, by a plain HINT range query."""
        notes: Optional[Dict[str, object]] = {} if traced else None
        candidates = hint.scan_ids(q.st, q.end, notes)
        if notes is not None:
            _phase(self._scan_label.format(element=element), notes, candidates)
        return candidates

    @abc.abstractmethod
    def _intersect(
        self, element: Element, hint: Hint, candidates: Ids, q: TimeTravelQuery, notes=None
    ) -> Ids:
        """Shrink the ascending, non-empty candidates to those ``element``
        holds.  ``notes``, when given, receives the ``rows`` read and the
        ``slices`` touched."""

    def _query_impl(self, q: TimeTravelQuery) -> Ids:
        traced = tracing_active()
        ordered = self.order_query_elements(q)
        hints = self._hints
        first = hints.get(ordered[0])
        if first is None:
            if traced:
                event(self._scan_label.format(element=ordered[0]) + " (absent)")
            return []
        candidates = self._scan(ordered[0], first, q, traced)
        for element in ordered[1:]:
            if not len(candidates):
                return []
            hint = hints.get(element)
            if hint is None:
                if traced:
                    event(self._intersect_label.format(element=element) + " (absent)")
                return []
            notes: Optional[Dict[str, object]] = {} if traced else None
            candidates = self._intersect(element, hint, candidates, q, notes)
            if notes is not None:
                _phase(self._intersect_label.format(element=element), notes, candidates)
        return candidates

    # -------------------------------------------------------------- inspection
    def _settled_tables(self) -> list:
        """Every run's table at rest (the rule asked of every run whose
        verdict is missing, stale or leaves a tail out)."""
        tables = (hint.settled() for hint in self._hints.values())
        return [table for table in tables if table is not None]

    def n_divisions(self) -> int:
        """Materialised (non-empty) divisions, over all tables."""
        return sum(table.n_divisions for table in self._settled_tables())

    def size_bytes(self) -> int:
        """The element directory and every HINT."""
        return CONTAINER_BYTES + sum(hint.size_bytes() for hint in self._hints.values())

    def stats(self) -> dict:
        out = super().stats()
        tables = self._settled_tables()
        out["postings_entries"] = sum(len(hint) for hint in self._hints.values())
        out["num_bits"] = self._num_bits
        out["n_tables"] = len(tables)
        out["n_divisions"] = sum(table.n_divisions for table in tables)
        out["division_entries"] = sum(table.n_rows for table in tables)
        return out


class TIFHintBinary(_TIFHintBase):
    """Algorithm 3: masked division rows binary-searched into the candidates."""

    name = "tIF+HINT (binary search)"

    def _intersect(self, element, hint, candidates, q, notes=None) -> Ids:
        return hint.probe(candidates, q.st, q.end, notes)


class TIFHintMerge(_TIFHintBase):
    """Algorithm 4: the division sweep merge-intersected with the candidates."""

    name = "tIF+HINT (merge sort)"

    def _intersect(self, element, hint, candidates, q, notes=None) -> Ids:
        return hint.sweep(candidates, q.st, q.end, notes)
