"""tIF+HINT — postings lists organised as HINTs (paper Section 3.1).

The temporal inverted file is extended by replacing every postings list
``I[e]`` with a HINT ``H[e]`` over that element's intervals.  The initial
candidate set comes from a full HINT range query on the least frequent query
element; the two variants differ in how the remaining elements shrink it:

* :class:`TIFHintBinary` (Algorithm 3) — ``H[e]`` keeps HINT's beneficial
  (temporal) sorting.  Candidates are sorted by id, and every object a
  division scan yields is probed into them by binary search.  Temporal
  comparisons are still performed during the traversal because they are
  cheaper than a binary search per division object.
* :class:`TIFHintMerge` (Algorithm 4) — ``H[e]`` divisions are sorted by
  object id instead (footnote 8: this forgoes the beneficial sorting).  The
  candidate set is merge-intersected with each relevant division directly;
  no temporal comparisons and no ``compfirst``/``complast`` flags are needed
  since the candidates are already temporally exact.  Construction is the
  cheapest of all HINT-based methods — ids arrive in increasing order, so
  the id-sorted divisions build by appends (Section 5.3).

All per-element HINTs share one domain mapper (the paper rescales each list
to ``[0, 2^m − 1]``; a shared mapper is the same arithmetic with a shared
domain, and keeps partition extents aligned across elements).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.collection import Collection
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.index import Hint
from repro.intervals.hint.partition import SortPolicy
from repro.ir.intersection import contains_sorted, intersect_merge
from repro.obs.context import event, tracing_active
from repro.utils.memory import CONTAINER_BYTES
from repro.utils.sorting import merge_sorted

#: Headroom left above the built domain for insertion workloads.
DOMAIN_SLACK = 0.25


def _traced_range_query(
    hint: Hint, q: TimeTravelQuery, element, traced: bool
) -> List[int]:
    """The first element's HINT range query, with optional phase accounting.

    Untraced, this is exactly ``hint.range_query_unsorted``; traced, the
    same traversal runs division by division so entries scanned and
    divisions touched can be recorded (``scan_division`` defaults match the
    plain range query's configuration).
    """
    if not traced:
        return hint.range_query_unsorted(q.st, q.end)
    candidates: List[int] = []
    scanned = touched = 0
    for _level, _j, partition, kind, check in hint.iter_query_divisions(q.st, q.end):
        scanned += len(partition)
        touched += 1
        partition.scan_division(kind, check, q.st, q.end, candidates)
    event(
        f"range query H[{element}]",
        entries_scanned=scanned,
        candidates_after=len(candidates),
        structures_touched=touched,
    )
    return candidates


class _TIFHintBase(TemporalIRIndex):
    """Shared machinery: one HINT per element over a common domain mapper."""

    #: Division sort policy of the per-element HINTs (set by subclasses).
    _policy: SortPolicy = SortPolicy.TEMPORAL

    def __init__(self, num_bits: int = 10) -> None:
        super().__init__()
        self._num_bits = num_bits
        self._mapper: Optional[DomainMapper] = None
        self._hints: Dict[Element, Hint] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):
            domain = collection.domain()
            self._mapper = DomainMapper.with_slack(
                domain.st, domain.end, self._num_bits, slack=DOMAIN_SLACK
            )

    def _ensure_mapper(self, st, end) -> DomainMapper:
        if self._mapper is None:
            self._mapper = DomainMapper.with_slack(st, end, self._num_bits, slack=DOMAIN_SLACK)
        return self._mapper

    @property
    def num_bits(self) -> int:
        """``m`` of the postings HINTs (Figure 9's tuning knob)."""
        return self._num_bits

    def hint_for(self, element: Element) -> Optional[Hint]:
        """The postings HINT of an element (tests, diagnostics)."""
        return self._hints.get(element)

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        mapper = self._ensure_mapper(obj.st, obj.end)
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is None:
                hint = self._hints[element] = Hint(mapper, sort_policy=self._policy)
            hint.insert(obj.id, obj.st, obj.end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        for element in obj.d:
            hint = self._hints.get(element)
            if hint is not None:
                hint.delete(obj.id, obj.st, obj.end)

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
    """Algorithm 3: temporally-sorted divisions + binary-search intersections."""

    name = "tIF+HINT (binary search)"
    _policy = SortPolicy.TEMPORAL

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
            if not candidates:
                return []
            hint = self._hints.get(element)
            if hint is None:
                if traced:
                    event(f"∩ divisions of H[{element}] (absent)")
                return []
            candidates.sort()  # line 5
            matched: List[int] = []
            scanned = touched = 0
            # Lines 7-29: traverse H[e] with the comp flags; each object that
            # passes its division's temporal checks is probed into C.
            for _level, _j, partition, kind, check in hint.iter_query_divisions(q.st, q.end):
                if traced:
                    scanned += len(partition)
                    touched += 1
                probe: List[int] = []
                partition.scan_division(kind, check, q.st, q.end, probe)
                for object_id in probe:
                    if contains_sorted(candidates, object_id):
                        matched.append(object_id)
            candidates = matched  # line 30
            if traced:
                event(
                    f"∩ divisions of H[{element}]",
                    entries_scanned=scanned,
                    candidates_after=len(candidates),
                    structures_touched=touched,
                )
        candidates.sort()
        return candidates


class TIFHintMerge(_TIFHintBase):
    """Algorithm 4: id-sorted divisions + merge-sort intersections."""

    name = "tIF+HINT (merge sort)"
    _policy = SortPolicy.BY_ID

    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        ordered = self.order_query_elements(q)
        first_hint = self._hints.get(ordered[0])
        if first_hint is None:
            if traced:
                event(f"range query H[{ordered[0]}] (absent)")
            return []
        candidates = _traced_range_query(first_hint, q, ordered[0], traced)
        candidates.sort()
        for element in ordered[1:]:
            if not candidates:
                return []
            hint = self._hints.get(element)
            if hint is None:
                if traced:
                    event(f"∩ divisions of H[{element}] (absent)")
                return []
            matched: List[int] = []
            scanned = touched = 0
            # Lines 6-11: plain partition sweep, no comp flags, no temporal
            # comparisons — candidates are already temporally exact, and
            # HINT's structure guarantees each object meets the sweep once.
            for partition, is_first in hint.iter_sweep_partitions(q.st, q.end):
                if is_first:
                    replicas = merge_sorted(
                        partition.r_in.live_ids(), partition.r_aft.live_ids()
                    )
                    matched.extend(intersect_merge(candidates, replicas))
                    if traced:
                        scanned += len(replicas)
                        touched += 2
                originals = merge_sorted(
                    partition.o_in.live_ids(), partition.o_aft.live_ids()
                )
                matched.extend(intersect_merge(candidates, originals))
                if traced:
                    scanned += len(originals)
                    touched += 2
            matched.sort()
            candidates = matched
            if traced:
                event(
                    f"∩ divisions of H[{element}]",
                    entries_scanned=scanned,
                    candidates_after=len(candidates),
                    structures_touched=touched,
                )
        return candidates
