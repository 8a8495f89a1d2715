"""irHINT — the novel time-first composite index (paper Section 4).

A *single* HINT hierarchically indexes the time domain, and every division
(originals/replicas of every partition) is injected with inverted indexing.
Queries are driven by HINT's bottom-up traversal: the ``compfirst`` /
``complast`` flags dictate which temporal comparisons each relevant division
still needs, HINT's structural duplicate avoidance makes the per-division
outputs disjoint, and the division-local inverted structures answer the IR
part.

Two variants:

* :class:`IRHintPerformance` (Section 4.1, Algorithm 5) — each division *is*
  a small temporal inverted file: element → ``⟨id, t_st, t_end⟩`` postings.
  Fastest queries; every object entry is stored once per element of its
  description, so the index is large.
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
from repro.core.errors import UnknownObjectError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.intervals.hint.cost_model import choose_num_bits
from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.index import Hint
from repro.intervals.hint.partition import SortPolicy
from repro.intervals.hint.traversal import DivisionKind, assign, iter_relevant_divisions
from repro.ir.inverted import TemporalInvertedFile
from repro.ir.postings import IdPostingsBackend, IdPostingsList
from repro.obs.registry import OBS
from repro.utils.memory import CONTAINER_BYTES

#: Headroom left above the built domain for insertion workloads.
DOMAIN_SLACK = 0.25

#: Division key: (level, partition index, is_original) — plain ints/bools
#: hash faster than enum members on this hot path.
_DivisionKey = Tuple[int, int, bool]

#: Objects with an empty description would otherwise leave no trace in a
#: division's inverted file and become invisible to pure-temporal queries;
#: they are filed under this reserved element instead (never queried by
#: containment searches, always swept by ``iter_all_entries``).
_EMPTY_DESCRIPTION = ("__repro.empty__",)


def _default_mapper(collection: Collection, num_bits: Optional[int]) -> DomainMapper:
    """Domain mapper for a collection, with cost-model ``m`` when unset."""
    domain = collection.domain()
    if num_bits is None:
        records = [(obj.id, obj.st, obj.end) for obj in collection]
        num_bits = choose_num_bits(records, domain=(domain.st, domain.end))
    return DomainMapper.with_slack(domain.st, domain.end, num_bits, slack=DOMAIN_SLACK)


class IRHintPerformance(TemporalIRIndex):
    """Algorithm 5: a temporal inverted file inside every HINT division."""

    name = "irHINT (performance)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._requested_bits = num_bits
        self._mapper: Optional[DomainMapper] = None
        self._divisions: Dict[_DivisionKey, TemporalInvertedFile] = {}

    def _configure_for(self, collection: Collection) -> None:
        if len(collection):
            self._mapper = _default_mapper(collection, self._requested_bits)

    def _ensure_mapper(self, st, end) -> DomainMapper:
        if self._mapper is None:
            self._mapper = DomainMapper.with_slack(
                st, end, self._requested_bits or 10, slack=DOMAIN_SLACK
            )
        return self._mapper

    @property
    def num_bits(self) -> int:
        """``m`` actually in use (resolved by the cost model when unset)."""
        if self._mapper is None:
            raise UnknownObjectError("index is empty; no mapper configured yet")
        return self._mapper.num_bits

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        mapper = self._ensure_mapper(obj.st, obj.end)
        st_cell, end_cell = mapper.cell_range(obj.st, obj.end)
        description = obj.d or _EMPTY_DESCRIPTION
        for level, j, is_original in assign(mapper.num_bits, st_cell, end_cell):
            key = (level, j, is_original)
            division = self._divisions.get(key)
            if division is None:
                division = self._divisions[key] = TemporalInvertedFile()
            division.add_object(obj.id, obj.st, obj.end, description)

    def _delete_impl(self, obj: TemporalObject) -> None:
        if self._mapper is None:
            raise UnknownObjectError(obj.id)
        mapper = self._mapper
        st_cell, end_cell = mapper.cell_range(obj.st, obj.end)
        description = obj.d or _EMPTY_DESCRIPTION
        found = False
        for level, j, is_original in assign(mapper.num_bits, st_cell, end_cell):
            division = self._divisions.get((level, j, is_original))
            if division is not None:
                division.delete_object(obj.id, description)
                found = True
        if not found:
            raise UnknownObjectError(obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        return self._traverse(q)

    def _pure_temporal_query(self, q: TimeTravelQuery) -> List[int]:
        # Time-first design: the HINT traversal answers q.d = ∅ natively.
        return self._traverse(q)

    def _traverse(self, q: TimeTravelQuery) -> List[int]:
        trace = OBS.trace
        mapper = self._mapper
        if mapper is None:
            if trace is not None:
                trace.phase("empty index")
            return []
        first_cell, last_cell = mapper.cell_range(q.st, q.end)
        out: List[int] = []
        divisions = self._divisions
        # Algorithm 1 line 2, hoisted: the element-frequency order comes from
        # the global dictionary, so it is computed once per query rather
        # than once per division.
        ordered = self._dictionary.order_by_frequency(q.d) if q.d else []
        originals = DivisionKind.ORIGINALS
        relevant = materialised = scanned = 0
        per_level: Dict[int, int] = {}
        for level, j, kind, check in iter_relevant_divisions(
            mapper.num_bits, first_cell, last_cell
        ):
            if trace is not None:
                relevant += 1
            division = divisions.get((level, j, kind is originals))
            if division is None:
                continue
            if trace is not None:
                materialised += 1
                scanned += division.n_entries()
                per_level[level] = per_level.get(level, 0) + 1
            # QueryTemporalIF (Alg. 5): Algorithm 1 inside the division with
            # only the comparisons the flags deem necessary.  No trace is
            # passed down: the sweep accounts for the divisions wholesale.
            out.extend(division.query(q.st, q.end, ordered, check))
        out.sort()
        if trace is not None:
            trace.phase(
                "bottom-up division sweep",
                entries_scanned=scanned,
                candidates_after=len(out),
                structures_touched=materialised,
            )
            trace.note("relevant_divisions", relevant)
            trace.note("materialised_divisions", materialised)
            trace.note("divisions_per_level", per_level)
            trace.note("m", mapper.num_bits)
        return out

    # -------------------------------------------------------------- inspection
    def n_divisions(self) -> int:
        """Materialised (non-empty) divisions."""
        return len(self._divisions)

    def size_bytes(self) -> int:
        total = CONTAINER_BYTES
        for division in self._divisions.values():
            total += division.size_bytes()
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["num_bits"] = None if self._mapper is None else self._mapper.num_bits
        out["n_divisions"] = self.n_divisions()
        out["division_entries"] = sum(
            division.n_entries() for division in self._divisions.values()
        )
        return out


class IRHintSize(TemporalIRIndex):
    """Algorithm 6: per division, one interval store + an id-only inverted index."""

    name = "irHINT (size)"

    def __init__(self, num_bits: Optional[int] = None) -> None:
        super().__init__()
        self._requested_bits = num_bits
        self._hint: Optional[Hint] = None
        self._inverted: Dict[_DivisionKey, Dict[Element, IdPostingsBackend]] = {}

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
        if self._hint is None:
            if OBS.trace is not None:
                OBS.trace.phase("empty index")
            return []
        if OBS.trace is not None:
            # The traversal is the range query when q.d = ∅; running it
            # keeps the trace's per-division accounting on the real path.
            return self._traverse(q)
        return self._hint.range_query(q.st, q.end)

    def _traverse(self, q: TimeTravelQuery) -> List[int]:
        trace = OBS.trace
        hint = self._hint
        if hint is None:
            if trace is not None:
                trace.phase("empty index")
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
            if trace is not None:
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
        if trace is not None:
            trace.phase(
                "interval-store range filters",
                entries_scanned=interval_candidates,
                candidates_after=interval_candidates,
                structures_touched=touched,
            )
            trace.phase(
                "per-division id-postings merges",
                entries_scanned=interval_candidates,
                candidates_after=len(out),
                structures_touched=touched,
            )
            trace.note("m", hint.num_bits)
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
