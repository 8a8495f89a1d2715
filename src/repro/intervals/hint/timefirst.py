"""HINT as one table: a packed run re-cut along the hierarchy.

A :class:`TimeFirstTable` is *derived* from slots ``[0, n_slots)`` of one
:class:`~repro.ir.packed.PackedPostingsList` (a *run*): every slot's
interval is assigned to its HINT partitions over the run's own time span,
and the rows ``(slot, id, t_st, t_end)`` are stored ordered by (partition
key, slot).  Keys are level-contiguous — partition ``j`` of level ``l`` is
``2^l − 1 + j`` — and replica rows carry their key shifted past every
original's, so one sorted directory of the non-empty keys with their row
offsets covers both (HINT's sparse partitions merged into one table behind
an auxiliary index, arXiv 2104.10939).  A window reads, per level, the
originals of partitions ``f … l`` as one row slice and the replicas of
partition ``f`` as another: two ``searchsorted`` calls into the directory
over the ``2(m + 1)`` level bounds (:meth:`TimeFirstTable.slices`), one
``concatenate`` (:meth:`TimeFirstTable.gather`), and the caller's mask.
:meth:`TimeFirstTable.scan_ids` is the range query: one overlap mask over
the gathered rows and one sort.  Partitions HINT would report without
comparing are compared anyway: one mask is cheaper than dispatching per
slice, and it changes no answer.

The run of every :class:`~repro.intervals.hint.Hint` carries one: each
element's run in the four HINT-first indexes (irHINT-perf, both
tIF+HINT variants and the hybrid) and irHINT-size's interval store.  The
grid is the run's own ``[min t_st, max t_end]`` at each build, so a run
that grows past its first objects' lifespans is re-gridded at its next
rebuild, never clamped into its last cell.

Whether a run has a table at all, and at which ``m``, is the cost rule's
call (:mod:`repro.intervals.hint.cost_model`), made by :func:`decide` at
every (re)build: ``m = 0`` is the flat scan, recorded as a bare
:class:`Verdict` so a run the rule sent flat is not priced again until it
changes (or, for the short cut's call, until the run is no longer
short); it is one division whose rows are the run's slots.  The same
charges send one wide window flat per query.

The run stays the single source of truth.  Rows name slots, so liveness is
a gather from the run's own tombstone column; slots appended since the
build are scanned flat as the tail; and a verdict is *fresh* only while the
run's layout epoch reads what it read at the build and the tail is still
the smaller part.  The table reads the run through
``PackedPostingsList``'s columnar surface only (``layout_epoch``,
``columns``, ``alive_column``, ``physical_len``) and is never changed once
constructed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.interval import Timestamp
from repro.intervals.hint import cost_model
from repro.intervals.hint.domain import DomainMapper
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.packed import PackedPostingsList

_I64_MAX = np.iinfo(np.int64).max
_NO_IDS = np.empty(0, dtype=np.int64)


def _cells(mapper: DomainMapper, column: np.ndarray) -> np.ndarray:
    """``mapper.cell`` of every in-domain value of an int64 column."""
    span = mapper.hi - mapper.lo
    if span == 0:  # cell() sends a one-point domain's only value to cell 0
        return np.zeros_like(column)
    if span < mapper.n_cells:
        cells = column - mapper.lo
        # cell() sends the domain's top to the last cell, not to cell `span`.
        cells[column >= mapper.hi] = mapper.n_cells - 1
        return cells
    if (span + 1) * mapper.n_cells <= _I64_MAX:
        return (column - mapper.lo) * mapper.n_cells // (span + 1)
    return np.array([mapper.cell(t) for t in column.tolist()], dtype=np.int64)


class Verdict:
    """The cost rule's call on slots ``[0, n_slots)`` of a run at one
    layout epoch: read it flat (``m = 0``), or, for the subclass, through
    the table it is."""

    __slots__ = ("epoch", "n_slots")

    def __init__(self, postings: PackedPostingsList) -> None:
        self.epoch = postings.layout_epoch
        self.n_slots = postings.physical_len()

    @property
    def table(self) -> Optional["TimeFirstTable"]:
        """The table to read through; ``None`` reads the run flat."""
        return None

    @property
    def n_rows(self) -> int:
        """Rows of the verdict's divisions: read flat, the slots it covers."""
        return self.n_slots

    def is_fresh(self, postings: PackedPostingsList) -> bool:
        """Do slots ``[0, n_slots)`` still read as they did, and is the
        tail appended since still the smaller part?  A call the short cut
        made, without looking at the run, holds only while it is short."""
        n_now = postings.physical_len()
        return (
            self.epoch == postings.layout_epoch
            and n_now <= 2 * self.n_slots
            and (cost_model.short_cut(n_now) or not cost_model.short_cut(self.n_slots))
        )


def decide(postings: PackedPostingsList, held: Optional[Verdict], cap: int) -> Optional[Verdict]:
    """``held`` while it is fresh, else the rule's verdict on the run as it
    is now: a table at the rule's ``m`` (at most ``cap``) or a flat
    :class:`Verdict`.  ``None`` for an empty or spilled run."""
    if not postings.layout_epoch or not postings.physical_len():
        return None
    if held is not None and held.is_fresh(postings):
        return held
    if cost_model.short_cut(postings.physical_len()):
        return Verdict(postings)
    _ids, sts, ends = postings.columns()
    m = cost_model.choose_bits(sts, ends, cap)
    return TimeFirstTable(postings, m) if m else Verdict(postings)


class TimeFirstTable(Verdict):
    """Rows of one list's slots ``[0, n_slots)`` in (partition key, slot) order."""

    #: ``n_rows``: stored rows, replicas included; ``n_divisions``: non-empty
    #: divisions (distinct partition keys, originals and replicas apart).
    __slots__ = (
        "n_rows", "n_divisions", "mapper",
        "_keys", "_offsets", "_rows", "_shifts", "_bases",
    )

    def __init__(self, postings: PackedPostingsList, num_bits: int) -> None:
        super().__init__(postings)
        ids, sts, ends = postings.columns()
        m = min(num_bits, cost_model.MAX_BITS)
        n = self.n_slots
        self.mapper = mapper = DomainMapper.for_domain(int(sts.min()), int(ends.max()), m)
        n_keys = 1 << (m + 1)

        # HINT's assignment (traversal.assign), all slots at once: walk up
        # from level m; a right child on the start side or a left child on
        # the end side pins a partition, and a slot leaves once a > b.
        origin = a = _cells(mapper, sts)
        b = _cells(mapper, ends)
        slots = np.arange(n, dtype=np.int64)
        packed = []
        for level in range(m, -1, -1):
            shift, base = m - level, (1 << level) - 1
            right = (a & 1) == 1
            replica = ((a[right] << shift) > origin[right]) * n_keys
            packed.append((base + a[right] + replica) * n + slots[right])
            a = a + right
            left = (a <= b) & ((b & 1) == 0)
            replica = ((b[left] << shift) > origin[left]) * n_keys
            packed.append((base + b[left] + replica) * n + slots[left])
            b = b - left
            keep = a <= b
            if not keep.any():
                break
            a, b, origin, slots = a[keep] >> 1, b[keep] >> 1, origin[keep], slots[keep]
        rows = np.concatenate(packed)
        rows.sort()
        keys, slots = np.divmod(rows, n)
        self._rows = np.stack((slots, ids[slots], sts[slots], ends[slots]))
        # The directory: the non-empty keys and where each one's rows start.
        self._keys, offsets = np.unique(keys, return_index=True)
        self._offsets = np.append(offsets, len(keys))
        self.n_rows, self.n_divisions = len(keys), len(self._keys)

        # Query-side constants: per level 0 … m, originals then replicas.
        levels = np.arange(m + 1, dtype=np.int64)
        self._shifts = np.tile(m - levels, 2)
        bases = (1 << levels) - 1
        self._bases = np.concatenate((bases, bases + n_keys))

    # ------------------------------------------------------------------ reads
    @property
    def table(self) -> "TimeFirstTable":
        return self

    def slices(
        self, window: Tuple[int, int], notes: Optional[Dict[str, object]] = None
    ) -> List[Tuple[int, int]]:
        """Row ranges ``[start, stop)`` of the divisions the
        :func:`~repro.ir.blocks.exact_window` ``window`` reads: per level,
        the originals of partitions ``f … l`` as one range and the replicas
        of ``f`` alone as another, empty ranges left out.  ``notes``, when
        given, receives the partitions those ranges cover, and the
        non-empty ranges per level."""
        mapper = self.mapper
        m = mapper.num_bits
        # A window holding no integer (lo = hi + 1) still matches the
        # intervals covering both neighbours: sweep the cells of the pair.
        first = mapper.cell(min(window)) >> self._shifts
        last = mapper.cell(max(window)) >> self._shifts
        last[m + 1 :] = first[m + 1 :]  # replicas: the first partition only
        lo = self._keys.searchsorted(self._bases + first, "left")
        hi = self._keys.searchsorted(self._bases + last, "right")
        if notes is not None:
            notes["partitions_touched"] = int((last - first)[: m + 1].sum()) + m + 1
            notes["divisions_per_level"] = {
                level: int(count)
                for level, count in enumerate(np.bincount(np.flatnonzero(hi > lo) % (m + 1)))
                if count
            }
        return [
            (start, stop)
            for start, stop in zip(self._offsets[lo].tolist(), self._offsets[hi].tolist())
            if stop > start
        ]

    @property
    def row_ids(self) -> np.ndarray:
        """The id of every row, in row order."""
        return self._rows[1]

    def live_rows(self, postings: PackedPostingsList) -> int:
        """Rows whose slot is live: stored entries, replicas included."""
        alive = postings.alive_column()
        return self.n_rows if alive is None else int(np.count_nonzero(alive[self._rows[0]]))

    def reads_flat(self, postings: PackedPostingsList, bounds: List[Tuple[int, int]]) -> bool:
        """The rule's charges on one read: is a flat pass over the run no
        dearer than gathering these row ranges and the tail?"""
        n_now = postings.physical_len()
        rows = sum(stop - start for start, stop in bounds) + n_now - self.n_slots
        return cost_model.prefers_flat(len(bounds), rows, n_now)

    def gather(
        self,
        postings: PackedPostingsList,
        bounds: List[Tuple[int, int]],
        notes: Optional[Dict[str, object]] = None,
    ) -> np.ndarray:
        """The rows of ``bounds``, in order, then the tail, as one block of
        columns ``(slot, id, t_st, t_end)``.  The slot column is read only
        to look tombstones up, so it is left out while ``postings`` has
        none: index the columns from the end."""
        alive = postings.alive_column()
        rows = self._rows[1 if alive is None else 0 :]
        parts = [rows[:, start:stop] for start, stop in bounds]
        n, n_now = self.n_slots, postings.physical_len()
        if n_now > n:  # the tail: slots appended since the build
            tail = np.empty((len(rows), n_now - n), dtype=np.int64)
            tail[-3], tail[-2], tail[-1] = (column[n:] for column in postings.columns())
            if alive is not None:
                tail[0] = np.arange(n, n_now)
            parts.append(tail)
        if notes is not None:
            notes["phase"] = "time-first table"
            notes["rows"] = sum(part.shape[1] for part in parts)
            notes["slices"] = len(bounds)
        if not parts:
            return rows[:, :0]
        return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]

    def scan_ids(
        self,
        postings: PackedPostingsList,
        q_st: Timestamp,
        q_end: Timestamp,
        notes: Optional[Dict[str, object]] = None,
    ) -> "np.ndarray | list":
        """Ascending ids of ``postings``' live entries overlapping
        ``[q_st, q_end]`` — what ``postings.scan_ids`` answers — reading
        only the rows of the relevant partitions plus the tail, unless the
        window is wide enough that ``postings.scan_ids`` itself is cheaper.
        The table must be fresh.  ``notes``, when given, receives the
        counts the query trace reports."""
        window = exact_window(q_st, q_end)
        if window is None:
            return _NO_IDS
        bounds = self.slices(window, notes)
        if self.reads_flat(postings, bounds):
            if notes is not None:
                notes.update(phase="scan", rows=postings.physical_len(), slices=1)
            return postings.scan_ids(q_st, q_end)
        gathered = self.gather(postings, bounds, notes)
        hit = overlap_mask(gathered[-2], gathered[-1], *window)
        alive = postings.alive_column()
        if alive is not None:
            hit &= alive[gathered[0]] != 0
        ids = gathered[-3][hit]
        ids.sort()
        return ids
