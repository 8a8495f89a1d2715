"""The HINT index (Christodoulou et al. [19, 20]; paper Section 2.3).

HINT hierarchically and uniformly divides the (discretised) time domain into
``2^l`` partitions at each of its ``m + 1`` levels; each interval is assigned
to the smallest covering set of partitions (at most two per level), split
into originals and replicas.  A range query reads, per level, the originals
of the partitions the query spans and the replicas of the first one, and
meets every overlapping interval exactly once.

Stored as one id-ordered packed run (:class:`~repro.ir.packed.PackedPostingsList`)
read through its :class:`~repro.intervals.hint.timefirst.TimeFirstTable`:
the divisions are row slices of that table, every level's slices are cut
at once, and one overlap mask over the gathered rows replaces the paper's
per-division comparison flags and beneficial sorting.  :meth:`Hint.build`
sorts its records by id once into the run; inserts append to the run
(the tail); the first query that finds the table stale asks the
cost rule again (:func:`~repro.intervals.hint.timefirst.decide`), which
grids the run's own time span at the cheapest ``m`` up to ``num_bits``, or
reads the run flat.  A run spilled to non-i64 values (floats) has no table
and is scanned flat.  The HINT-first indexes (:mod:`repro.indexes.tif_hint`)
append to and tombstone ``_run`` directly, one element at a time, as
:meth:`Hint.insert` and :meth:`Hint.delete` would.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.core.interval import Timestamp
from repro.intervals.base import IntervalIndex, IntervalRecord
from repro.intervals.hint import cost_model, timefirst
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.packed import PackedPostingsList, id_sorted
from repro.utils.bitops import validate_num_bits
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

#: Ids of the divisions a query reads, or of their intersection with the
#: candidates: an int64 array on the table path, a list on a spilled run.
Ids = Union[np.ndarray, List[int]]

_NO_IDS = np.empty(0, dtype=np.int64)


class Hint(IntervalIndex):
    """Hierarchical index for intervals: a packed run and its HINT table."""

    #: ``_m``: the cap on ``m``; ``_run``: the packed run; ``_table``: the
    #: cost rule's verdict on the run (its table, or flat), never pickled.
    __slots__ = ("_m", "_run", "_table")

    def __init__(self, num_bits: int, run: Optional[PackedPostingsList] = None) -> None:
        """A HINT of at most ``num_bits + 1`` levels over ``run`` (empty
        when omitted)."""
        validate_num_bits(num_bits)
        self._m = num_bits
        self._run = PackedPostingsList() if run is None else run
        self._table: Optional[timefirst.Verdict] = None

    @classmethod
    def build(
        cls, records: Iterable[IntervalRecord], num_bits: Optional[int] = None
    ) -> "Hint":
        """Bulk-build over ``records``; ``num_bits``, the cap on ``m``, is
        required.  The records are sorted by id once into the run; a
        repeated id or an endpoint no i64 slot holds takes the insert loop
        instead, whose semantics those have (the last interval wins; a
        float spills the run)."""
        if num_bits is None:
            raise ConfigurationError("Hint.build needs num_bits")
        records = list(records)
        held = id_sorted(*zip(*records)) if records else None
        if held is not None:
            return cls(num_bits, PackedPostingsList.from_columns(held.ids, held.sts, held.ends))
        index = cls(num_bits)
        for object_id, st, end in records:
            index.insert(object_id, st, end)
        return index

    def __getstate__(self) -> Tuple[int, PackedPostingsList]:
        return self._m, self._run  # the verdict is derived; the first query makes it

    def __setstate__(self, state: Tuple[int, PackedPostingsList]) -> None:
        self._m, self._run = state
        self._table = None

    # ------------------------------------------------------------- properties
    @property
    def num_bits(self) -> int:
        """The cap on ``m``, the number of index bits (``m + 1`` levels)."""
        return self._m

    def __len__(self) -> int:
        return len(self._run)

    def verdict(self) -> Optional[timefirst.Verdict]:
        """The cost rule's verdict on the run, asked again here when absent
        or stale; ``None`` for an empty or spilled run."""
        self._table = timefirst.decide(self._run, self._table, self._m)
        return self._table

    def pending(self) -> bool:
        """Would :meth:`verdict` price the run now, the one step that may
        build a table?  True unless a fresh verdict is held, the run is
        spilled, or it is short enough for the rule's short cut."""
        run, held = self._run, self._table
        if held is not None and held.is_fresh(run):
            return False
        return bool(run.layout_epoch) and not cost_model.short_cut(run.physical_len())

    def table(self) -> Optional[timefirst.TimeFirstTable]:
        """The run's table; ``None`` when the run reads flat (empty,
        spilled, or the rule's call)."""
        verdict = self.verdict()
        return None if verdict is None else verdict.table

    def row_ids(self, verdict: timefirst.Verdict) -> np.ndarray:
        """The id of each row of ``verdict``'s divisions: its table's rows,
        or, read flat, the run's slots ``[0, n_slots)``."""
        table = verdict.table
        if table is not None:
            return table.row_ids
        return self._run.columns()[0][: verdict.n_slots].copy()

    def settled(self) -> Optional[timefirst.TimeFirstTable]:
        """:meth:`table`, decided over the tail too if it has one: every
        slot in a division, as the statistics count them."""
        verdict = self._table
        if verdict is not None and verdict.n_slots < self._run.physical_len():
            self._table = None
        return self.table()

    # ---------------------------------------------------------------- updates
    def insert(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Add the interval (re-inserting a live id replaces its interval)."""
        self._run.add(object_id, st, end)

    def delete(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Tombstone the record; raises, changing nothing, unless the id is
        live with exactly these endpoints."""
        if self._run.interval(object_id) != (st, end):
            raise UnknownObjectError(object_id)
        self._run.delete(object_id)

    # ------------------------------------------------------------------ query
    def range_query(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """All live interval ids overlapping ``[q_st, q_end]``, sorted."""
        ids = self.scan_ids(q_st, q_end)
        return ids.tolist() if isinstance(ids, np.ndarray) else ids

    def scan_ids(
        self, q_st: Timestamp, q_end: Timestamp, notes: Optional[Dict[str, object]] = None
    ) -> Ids:
        """Algorithm 2: the ascending ids of :meth:`range_query`, unboxed.
        ``notes``, when given, receives the counts the query trace reports
        (``phase``, ``rows`` read, ``slices`` touched)."""
        table = self.table()
        if table is None:
            return self._flat(notes, self._run.scan_ids(q_st, q_end))
        return table.scan_ids(self._run, q_st, q_end, notes)

    def probe(
        self,
        candidates: Ids,
        q_st: Timestamp,
        q_end: Timestamp,
        notes: Optional[Dict[str, object]] = None,
    ) -> Ids:
        """Algorithm 3's intersection: every row of the divisions
        ``[q_st, q_end]`` reads that passes the overlap test, binary-searched
        into the ascending, non-empty ``candidates``.  Ascending ids."""
        block = self._gathered(candidates, q_st, q_end, notes)
        if block is None:
            return self._flat(notes, self._run.intersect_sorted(candidates))
        sorted_ids, gathered, window = block
        ids = gathered[-3][self._hits(gathered, window)]
        positions = sorted_ids.searchsorted(ids)
        np.minimum(positions, len(sorted_ids) - 1, out=positions)
        matched = ids[sorted_ids[positions] == ids]
        matched.sort()
        return matched

    def sweep(
        self,
        candidates: Ids,
        q_st: Timestamp,
        q_end: Timestamp,
        notes: Optional[Dict[str, object]] = None,
    ) -> Ids:
        """Algorithm 4's intersection: the live ids of the divisions
        ``[q_st, q_end]`` reads, with no temporal comparison (temporally
        exact candidates meet their own interval), sorted and intersected
        with the ascending, non-empty ``candidates``.  Ascending ids."""
        block = self._gathered(candidates, q_st, q_end, notes)
        if block is None:
            return self._flat(notes, self._run.intersect_sorted(candidates))
        sorted_ids, gathered, _window = block
        live = self._live(gathered)
        ids = gathered[-3] if live is None else gathered[-3][live]
        if not len(ids):
            return ids
        ids = np.sort(ids)
        positions = ids.searchsorted(sorted_ids)
        np.minimum(positions, len(ids) - 1, out=positions)
        return sorted_ids[ids[positions] == sorted_ids]

    def division_rows(
        self, q_st: Timestamp, q_end: Timestamp, notes: Optional[Dict[str, object]] = None
    ) -> "Optional[tuple[timefirst.Verdict, np.ndarray, np.ndarray]]":
        """Algorithm 6's range filter, by row: ``(verdict, rows, ids)`` of
        the live entries of the divisions ``[q_st, q_end]`` reads that
        overlap it.  Rows number the table's rows, ascending in (partition
        key, id) order, then the tail's slots from ``verdict.n_rows`` on; a
        run read flat (``m = 0``) is one division whose rows are its slots.
        ``None`` on an empty or spilled run."""
        verdict = self.verdict()
        if verdict is None:
            return None
        window = exact_window(q_st, q_end)
        if window is None:
            return verdict, _NO_IDS, _NO_IDS
        table = verdict.table
        if table is None:
            ids, sts, ends = self._run.columns()
            hit = overlap_mask(sts, ends, *window)
            alive = self._run.alive_column()
            if alive is not None:
                hit &= alive != 0
            rows = np.flatnonzero(hit)
            return verdict, rows, self._flat(notes, ids[rows])
        bounds = table.slices(window, notes)
        gathered = table.gather(self._run, bounds, notes)
        tail = self._run.physical_len() - table.n_slots
        rows = np.concatenate(
            [np.arange(start, stop) for start, stop in bounds]
            + [np.arange(table.n_rows, table.n_rows + tail)]
        )
        hit = self._hits(gathered, window)
        return table, rows[hit], gathered[-3][hit]

    def _gathered(self, candidates: Ids, q_st, q_end, notes):
        """``(candidates as int64, gathered rows, exact window)`` for the
        table path of :meth:`probe` and :meth:`sweep`; ``None`` when the
        run's own intersection answers instead (a spilled run, an id beyond
        i64, or a window wide enough that the flat read is cheaper)."""
        table = self.table()
        window = exact_window(q_st, q_end)
        if table is None or window is None:
            return None
        try:
            sorted_ids = np.asarray(candidates, dtype=np.int64)
        except OverflowError:
            return None
        bounds = table.slices(window, notes)
        if table.reads_flat(self._run, bounds):
            return None
        return sorted_ids, table.gather(self._run, bounds, notes), window

    def _live(self, gathered: np.ndarray) -> Optional[np.ndarray]:
        """Which gathered rows name a live slot; ``None`` while all do."""
        alive = self._run.alive_column()
        return None if alive is None else alive[gathered[0]] != 0

    def _hits(self, gathered: np.ndarray, window) -> np.ndarray:
        """Which gathered rows are live and overlap the exact window."""
        hit = overlap_mask(gathered[-2], gathered[-1], *window)
        live = self._live(gathered)
        return hit if live is None else hit & live

    def _flat(self, notes: Optional[Dict[str, object]], ids: Ids) -> Ids:
        """``ids``, read from the run in one pass, noted as such."""
        if notes is not None:
            notes.update(phase="scan", rows=self._run.physical_len(), slices=1)
        return ids

    # ------------------------------------------------------------------ stats
    def n_divisions(self) -> int:
        """Non-empty divisions (originals and replicas of a partition apart)."""
        table = self.settled()
        return 0 if table is None else table.n_divisions

    def n_replicated_entries(self) -> int:
        """Stored entries across divisions, replicas included (≥ live records)."""
        table = self.settled()
        return len(self._run) if table is None else table.live_rows(self._run)

    def replication_factor(self) -> float:
        """Stored entries per live record (1.0 = no replication)."""
        return self.n_replicated_entries() / len(self) if len(self) else 0.0

    def size_bytes(self) -> int:
        """Modelled size: the run, plus, when it has a table, the table's
        rows as full entries and its directory."""
        table = self.settled()
        if table is None:
            return self._run.size_bytes()
        return self._run.size_bytes() + table.n_rows * ENTRY_FULL_BYTES + CONTAINER_BYTES
