"""tIF+HINT — postings lists organised as HINTs (paper Section 3.1).

The temporal inverted file is extended by replacing every postings list
``I[e]`` with a HINT ``H[e]`` over that element's intervals.  The initial
candidate set comes from a full HINT range query on the least frequent query
element; the two variants differ in how the remaining elements shrink it:

* :class:`TIFHintBinary` (Algorithm 3) — the rows of every division the
  query reads in ``H[e]`` are compared against the query interval, and
  each survivor is binary-searched into the candidates.  The temporal
  comparisons stay because they are cheaper than a binary search per
  division object.
* :class:`TIFHintMerge` (Algorithm 4) — the same divisions are swept with
  no temporal comparison and no ``compfirst``/``complast`` flags, since the
  candidates are already temporally exact; their ids are merge-intersected
  with the candidates.

Each ``H[e]`` is a :class:`~repro.intervals.hint.Hint`: one id-ordered run
whose divisions are row slices of its time-first table, read for every
level at once.  One layout serves both variants: Algorithm 4's id-sorted
divisions and Algorithm 3's beneficial sorting both give way to one mask
over the gathered rows (docs/algorithms.md, DEVIATION).  Each HINT grids
its own list's span, as the paper rescales each list to ``[0, 2^m − 1]``.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.intervals.hint.index import Hint, Ids
from repro.obs.context import event, tracing_active
from repro.utils.memory import CONTAINER_BYTES


def _ids_list(ids: Ids) -> List[int]:
    return ids.tolist() if isinstance(ids, np.ndarray) else ids


def _traced_range_query(hint: Hint, q: TimeTravelQuery, element, traced: bool) -> Ids:
    """The first element's HINT range query (ascending ids), recorded as a
    phase when traced."""
    notes: Optional[Dict[str, object]] = {} if traced else None
    candidates = hint.scan_ids(q.st, q.end, notes)
    if notes is not None:
        _phase(f"range query H[{element}]", notes, candidates)
    return candidates


def _phase(label: str, notes: Dict[str, object], candidates: Ids) -> None:
    """Record one phase from a HINT read's notes: rows read, slices cut."""
    event(
        label,
        entries_scanned=notes.get("rows", 0),
        candidates_after=len(candidates),
        structures_touched=notes.get("slices", 0),
    )


class _TIFHintBase(TemporalIRIndex):
    """Shared machinery: one HINT per element."""

    def __init__(self, num_bits: int = 10) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._hints: Dict[Element, Hint] = {}

    @property
    def num_bits(self) -> int:
        """``m`` of the postings HINTs (Figure 9's tuning knob)."""
        return self._num_bits

    def hint_for(self, element: Element) -> Optional[Hint]:
        """The postings HINT of an element (tests, diagnostics)."""
        return self._hints.get(element)

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is None:
                hint = self._hints[element] = Hint(self._num_bits)
            hint.insert(obj.id, obj.st, obj.end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is not None:
                hint.delete(obj.id, obj.st, obj.end)

    def _settle(self) -> None:
        for hint in self._hints.values():
            hint.table()

    # ------------------------------------------------------------------ query
    @abc.abstractmethod
    def _intersect(self, hint: Hint, candidates: Ids, q: TimeTravelQuery, notes=None) -> Ids:
        """Shrink the ascending candidates by ``hint``'s divisions."""

    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        ordered = self.order_query_elements(q)
        first_hint = self._hints.get(ordered[0])
        if first_hint is None:
            if traced:
                event(f"range query H[{ordered[0]}] (absent)")
            return []
        # Lines 1-3: the initial candidates via a plain HINT range query.
        candidates = _traced_range_query(first_hint, q, ordered[0], traced)
        for element in ordered[1:]:
            if not len(candidates):
                return []
            hint = self._hints.get(element)
            if hint is None:
                if traced:
                    event(f"∩ divisions of H[{element}] (absent)")
                return []
            notes: Optional[Dict[str, object]] = {} if traced else None
            candidates = self._intersect(hint, candidates, q, notes)
            if notes is not None:
                _phase(f"∩ divisions of H[{element}]", notes, candidates)
        return _ids_list(candidates)

    # -------------------------------------------------------------- inspection
    def size_bytes(self) -> int:
        total = CONTAINER_BYTES
        for hint in self._hints.values():
            total += hint.size_bytes()
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["num_bits"] = self._num_bits
        out["replicated_entries"] = sum(
            hint.n_replicated_entries() for hint in self._hints.values()
        )
        return out


class TIFHintBinary(_TIFHintBase):
    """Algorithm 3: masked division rows binary-searched into the candidates."""

    name = "tIF+HINT (binary search)"

    def _intersect(self, hint: Hint, candidates: Ids, q: TimeTravelQuery, notes=None) -> Ids:
        return hint.probe(candidates, q.st, q.end, notes)


class TIFHintMerge(_TIFHintBase):
    """Algorithm 4: the division sweep merge-intersected with the candidates."""

    name = "tIF+HINT (merge sort)"

    def _intersect(self, hint: Hint, candidates: Ids, q: TimeTravelQuery, notes=None) -> Ids:
        return hint.sweep(candidates, q.st, q.end, notes)
