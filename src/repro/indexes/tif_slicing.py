"""tIF+Slicing — the temporal inverted file of Berberich et al. [7] (§2.2).

The time domain is broken into a sequence of disjoint slices (a 1D grid);
every postings list is divided into per-slice sub-lists and an entry is
replicated into every slice its interval overlaps.  A query then touches only
the sub-lists of slices overlapping the query interval.

The original work considers stabbing queries; as the paper notes
(footnote 6), the extension to interval queries only requires discarding
the duplicates replication makes.  The reference-value method [25] reports
an object from the first relevant slice that holds it; here every relevant
sub-list is read through the packed postings kernels and the hits are
joined as a sorted union, which reports each object once, as that rule
does.  The number of slices is a tuning parameter (Figure 8); 50 is the
paper's chosen default.

Each sub-list is a :class:`~repro.ir.packed.PackedPostingsList`
(:class:`SlicedLists`, which the hybrid shares).  The grid spans the
objects held plus head-room
(:meth:`~repro.intervals.grid1d.GridLayout.spanning`); an object ending
past it re-slices every held object over the grown span.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.collection import Collection
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns, TemporalIRIndex
from repro.indexes.catalog import Catalog
from repro.intervals.grid1d import GridLayout
from repro.ir.packed import PackedPostingsList, pack_runs, unpack_runs
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

#: Slice index → that slice's sub-list of one postings list.
Slices = Dict[int, PackedPostingsList]

#: Inside ``±2**52`` a grid's float arithmetic on int64 columns is Python's.
_EXACT = 1 << 52


def union(found: List["np.ndarray | List[int]"]) -> "np.ndarray | List[int]":
    """The ascending ids the relevant sub-lists' reads found, each once.  An
    object overlapping the query is live in every slice from its first to
    its last, so some relevant sub-list holds it.  Reads of short sub-lists
    answer lists, joined without numpy's set-up."""
    if not found:
        return []
    if len(found) == 1:
        return found[0]
    if all(isinstance(ids, list) for ids in found):
        return sorted(set(chain.from_iterable(found)))
    return np.unique(np.concatenate([np.asarray(ids, dtype=np.int64) for ids in found]))


def entries(runs: List[PackedPostingsList]) -> int:
    """The entries ``runs`` hold, tombstones included (what a read scans)."""
    return sum(run.physical_len() for run in runs)


def slices_of(layout: GridLayout, ts: np.ndarray) -> np.ndarray:
    """:meth:`GridLayout.slice_of` of every value of an int64 column."""
    lo, hi, last = layout.lo, layout.hi, layout.n_slices - 1
    if not (isinstance(lo, int) and -_EXACT <= lo and hi <= _EXACT):
        return np.array([layout.slice_of(t) for t in ts.tolist()], dtype=np.int64)
    clamped = np.clip(ts, lo, math.ceil(hi))
    index = ((clamped - lo) / layout.width).astype(np.int64)
    index[clamped >= hi] = last
    return np.minimum(index, last)


def cut(
    runs: Iterable[Tuple[Element, PackedPostingsList]], layout: GridLayout
) -> Dict[Element, Slices]:
    """Each element's id-ordered run cut into its sub-lists: every entry
    repeated over the slices its interval overlaps (one ``np.repeat``), the
    copies grouped by (element, slice) in id order."""
    pairs = list(runs)
    lists: Dict[Element, Slices] = {element: {} for element, _run in pairs}
    if not pairs:
        return lists
    columns = [run.columns() for _element, run in pairs]
    ids, sts, ends = (np.concatenate([c[k] for c in columns]) for k in range(3))
    owner = np.repeat(np.arange(len(pairs)), [len(c[0]) for c in columns])
    first = slices_of(layout, sts)
    span = slices_of(layout, ends) - first + 1
    rows = np.repeat(np.arange(len(ids)), span)
    slice_index = first[rows] + np.arange(len(rows)) - np.repeat(np.cumsum(span) - span, span)
    key = owner[rows] * layout.n_slices + slice_index
    order = np.argsort(key, kind="stable")  # id order within each sub-list
    rows, key = rows[order], key[order]
    cut_ids, cut_sts, cut_ends = (memoryview(c[rows]).cast("B") for c in (ids, sts, ends))
    starts = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist()]
    bounds = [8 * row for row in (*starts, len(key))]  # byte offsets
    elements = list(lists)
    for a, b, group in zip(bounds, bounds[1:], key[starts].tolist()):
        e, s = divmod(group, layout.n_slices)
        lists[elements[e]][s] = PackedPostingsList.from_columns(
            cut_ids[a:b], cut_sts[a:b], cut_ends[a:b]
        )
    return lists


class SlicedLists:
    """Every postings list cut by one grid: per element, a packed sub-list
    for each slice that holds an entry."""

    __slots__ = ("n_slices", "layout", "lists")

    def __init__(self, n_slices: int) -> None:
        self.n_slices = n_slices
        #: The slicing grid (None until the first object arrives).
        self.layout: Optional[GridLayout] = None
        self.lists: Dict[Element, Slices] = {}

    def span(self, objects: Iterable[TemporalObject]) -> None:
        """Lay the grid over ``objects``' lifespans (when there are any)."""
        held = list(objects)
        if held:
            st, end = min(o.st for o in held), max(o.end for o in held)
            self.layout = GridLayout.spanning(st, end, self.n_slices)

    # Elements, sorted slice indexes and one run set: the bytes do not
    # depend on the order in which the sub-lists appeared.
    def __getstate__(self) -> tuple:
        keys = [sorted(slices) for slices in self.lists.values()]
        runs = [slices[s] for slices, ks in zip(self.lists.values(), keys) for s in ks]
        counts, flat = array("q", map(len, keys)).tobytes(), array("q", chain(*keys)).tobytes()
        return self.n_slices, self.layout, tuple(self.lists), counts, flat, pack_runs(runs)

    def __setstate__(self, state: tuple) -> None:
        self.n_slices, self.layout, elements, counts, keys, runs = state
        slice_keys, sub_lists = iter(memoryview(keys).cast("q").tolist()), iter(unpack_runs(runs))
        self.lists = {
            element: {next(slice_keys): next(sub_lists) for _ in range(n)}
            for element, n in zip(elements, memoryview(counts).cast("q").tolist())
        }

    # ---------------------------------------------------------------- updates
    def add(self, obj: TemporalObject, held: Catalog) -> None:
        """Slice ``obj`` in; past the grid, re-cut ``held``'s objects and it
        over a grown one."""
        if self.layout is None or obj.end > self.layout.hi:
            objects = [*held.objects(), obj]
            self.span(objects)
            assert self.layout is not None
            columns = BuildColumns(objects)
            if columns.by_id is not None:
                self.lists = cut(columns.runs(), self.layout)
                return
            self.lists = {}
            for held_obj in objects[:-1]:
                self._slice_in(held_obj)
        self._slice_in(obj)

    def _slice_in(self, obj: TemporalObject) -> None:
        assert self.layout is not None
        first, last = self.layout.slice_range(obj.st, obj.end)
        lists, object_id, st, end = self.lists, obj.id, obj.st, obj.end
        for element in obj.d:
            slices = lists.get(element)
            if slices is None:
                slices = lists[element] = {}
            for s in range(first, last + 1):
                run = slices.get(s)
                if run is None:
                    run = slices[s] = PackedPostingsList()
                run.add(object_id, st, end)

    def delete(self, obj: TemporalObject) -> None:
        """Tombstone a held object's copies (compacting as the lists do)."""
        if obj.d:
            assert self.layout is not None  # the object's own insert set it
            first, last = self.layout.slice_range(obj.st, obj.end)
            for element in obj.d:
                slices = self.lists[element]
                for s in range(first, last + 1):
                    slices[s].delete(obj.id)

    # ------------------------------------------------------------------ reads
    def relevant(self, element: Element, q: TimeTravelQuery) -> Optional[List[PackedPostingsList]]:
        """``element``'s sub-lists in the slices ``q`` overlaps, in slice
        order; ``None`` when the element has no sub-list."""
        slices = self.lists.get(element)
        if slices is None:
            return None
        assert self.layout is not None
        first, last = self.layout.slice_range(q.st, q.end)
        return [run for run in map(slices.get, range(first, last + 1)) if run is not None]

    # -------------------------------------------------------------- inspection
    def n_entries(self) -> int:
        """Stored entries, replicas and tombstones included."""
        return sum(run.physical_len() for slices in self.lists.values() for run in slices.values())

    def size_bytes(self, entry_bytes: int) -> int:
        """A container per sub-list, ``entry_bytes`` per stored entry."""
        n_sublists = sum(map(len, self.lists.values()))
        return n_sublists * CONTAINER_BYTES + self.n_entries() * entry_bytes


class TIFSlicing(TemporalIRIndex):
    """Inverted file with vertically sliced postings lists."""

    name = "tIF+Slicing"

    def __init__(self, n_slices: int = 50) -> None:
        super().__init__()
        self._sliced = SlicedLists(n_slices)

    def _configure_for(self, collection: Collection) -> None:
        self._sliced.span(collection)

    @property
    def layout(self) -> Optional[GridLayout]:
        """The slicing grid (None until the first object arrives)."""
        return self._sliced.layout

    # ---------------------------------------------------------------- updates
    def _load_columns(self, columns: BuildColumns) -> None:
        """Every element's run, cut from one sort, cut into its slices."""
        if self._sliced.layout is not None:
            self._sliced.lists = cut(columns.runs(), self._sliced.layout)

    def _insert_impl(self, obj: TemporalObject) -> None:
        self._sliced.add(obj, self._catalog)

    def _delete_impl(self, obj: TemporalObject) -> None:
        self._sliced.delete(obj)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> "np.ndarray | List[int]":
        traced = tracing_active()
        layout = self._sliced.layout
        if layout is None:
            if traced:
                event("empty index")
            return []
        if traced:
            first, last = layout.slice_range(q.st, q.end)
            annotate(relevant_slices=last - first + 1)
        # Phase 1 (Algorithm 1 lines 3-6): temporally filter the least
        # frequent element's relevant sub-lists; phase 2 (lines 7-8):
        # intersect the candidates with each other element's.
        candidates: "np.ndarray | List[int] | None" = None
        for element in self.order_query_elements(q):
            scanning = candidates is None
            label = f"filter+dedup I[{element}]" if scanning else f"∩ sub-lists of I[{element}]"
            runs = self._sliced.relevant(element, q)
            if runs is None:
                if traced:
                    event(f"{label} (absent)")
                return []
            if candidates is None:
                candidates = union([run.scan_ids(q.st, q.end) for run in runs])
            else:
                candidates = union([run.intersect_sorted(candidates) for run in runs])
            if traced:
                event(
                    label,
                    entries_scanned=entries(runs),
                    candidates_after=len(candidates),
                    structures_touched=len(runs),
                )
            if not len(candidates):
                break
        return [] if candidates is None else candidates

    # -------------------------------------------------------------- inspection
    def n_replicated_entries(self) -> int:
        """Stored postings entries including replication."""
        return self._sliced.n_entries()

    def size_bytes(self) -> int:
        return CONTAINER_BYTES + self._sliced.size_bytes(ENTRY_FULL_BYTES)

    def stats(self) -> dict:
        out = super().stats()
        out["n_slices"] = self._sliced.n_slices
        out["replicated_entries"] = self.n_replicated_entries()
        return out
