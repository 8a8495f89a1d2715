"""irHINT's time-first table: one long postings list re-cut along HINT.

A :class:`TimeFirstTable` is *derived* from slots ``[0, n_slots)`` of one
:class:`~repro.ir.packed.PackedPostingsList`: every slot's interval is
assigned to its HINT partitions over the list's own time span, and the rows
``(slot, id, t_st, t_end)`` are stored ordered by (partition key, slot).
Keys are level-contiguous — partition ``j`` of level ``l`` is ``2^l − 1 + j``
— and replica rows carry their key shifted past every original's, so one
sorted directory of the non-empty keys with their row offsets covers both
(HINT's sparse partitions merged into one table behind an auxiliary index,
arXiv 2104.10939).  A query is two ``searchsorted`` calls into the directory
over the ``2(m + 1)`` level bounds — originals of partitions ``f … l`` as one
slice per level, replicas of partition ``f`` alone — one ``concatenate``,
one overlap mask over the gathered rows and one sort.  Partitions HINT would
report without comparing are compared anyway: one mask is cheaper than
dispatching per slice, and it changes no answer.

The list stays the single source of truth.  Rows name slots, so liveness is
a gather from the list's own tombstone column; slots appended since the
build are scanned flat as the tail; and a table is *fresh* only while the
list's layout epoch reads what it read at the build.  The table reads the
list through ``PackedPostingsList``'s columnar surface only (``layout_epoch``,
``columns``, ``alive_column``, ``physical_len``) and is never changed once
constructed.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.interval import Timestamp
from repro.intervals.hint.domain import DomainMapper
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.packed import PackedPostingsList

#: Lists with at least this many live entries get a table; shorter ones
#: are scanned flat.  Fixed by measurement (EXPERIMENTS.md, "tif vs
#: irHINT"): a table query spends ≈ 19 µs before it reads a row, a flat
#: mask reads an entry in ≈ 1.3 ns, and in the ledger's query mix the
#: table first beats the flat scan on lists of 16–32 thousand entries.
TABLE_MIN = 16_384

#: A window whose partitions hold more than this share of the table's slots
#: is scanned flat after all: the flat mask reads every slot but yields ids
#: in order, and past this share the gathered rows cost more to sort
#: (measured break-even 0.22–0.25 of the list, at 8k–95k entries).
_FLAT_SHARE = 0.25

#: Finest grid a table uses.  2^30 cells outnumber the slots of any list
#: that fits in memory, and ``key · n_slots + slot`` must pack into one
#: i64 sort key.
_MAX_BITS = 30

_I64_MAX = np.iinfo(np.int64).max
_NO_IDS = np.empty(0, dtype=np.int64)


def wants_table(postings: object) -> bool:
    """Is this a packed (unspilled) list past the crossover?"""
    return (
        isinstance(postings, PackedPostingsList)
        and len(postings) >= TABLE_MIN
        and postings.layout_epoch > 0
    )


def _cells(mapper: DomainMapper, column: np.ndarray) -> np.ndarray:
    """``mapper.cell`` of every in-domain value of an int64 column."""
    span = mapper.hi - mapper.lo
    if span < mapper.n_cells:
        cells = column - mapper.lo
        # cell() sends the domain's top to the last cell, not to cell `span`.
        cells[column >= mapper.hi] = mapper.n_cells - 1
        return cells
    if (span + 1) * mapper.n_cells <= _I64_MAX:
        return (column - mapper.lo) * mapper.n_cells // (span + 1)
    return np.array([mapper.cell(t) for t in column.tolist()], dtype=np.int64)


class TimeFirstTable:
    """Rows of one list's slots ``[0, n_slots)`` in (partition key, slot) order."""

    #: ``n_rows``: stored rows, replicas included; ``n_divisions``: non-empty
    #: divisions (distinct partition keys, originals and replicas apart).
    __slots__ = (
        "epoch", "n_slots", "n_rows", "n_divisions", "mapper",
        "_keys", "_offsets", "_rows", "_shifts", "_bases",
    )

    def __init__(self, postings: PackedPostingsList, num_bits: int) -> None:
        ids, sts, ends = postings.columns()
        m = min(num_bits, _MAX_BITS)
        self.epoch = postings.layout_epoch
        self.n_slots = n = len(sts)
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
    def is_fresh(self, postings: PackedPostingsList) -> bool:
        """Do the rows still describe slots ``[0, n_slots)``, and is the
        unindexed tail still the smaller part?"""
        return (
            self.epoch == postings.layout_epoch
            and postings.physical_len() <= 2 * self.n_slots
        )

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
        mapper = self.mapper
        m = mapper.num_bits
        # A window holding no integer (lo = hi + 1) still matches the
        # intervals covering both neighbours: sweep the cells of the pair.
        first = mapper.cell(min(window)) >> self._shifts
        last = mapper.cell(max(window)) >> self._shifts
        last[m + 1 :] = first[m + 1 :]  # replicas: the first partition only
        lo = self._keys.searchsorted(self._bases + first, "left")
        hi = self._keys.searchsorted(self._bases + last, "right")
        bounds = [
            (start, stop)
            for start, stop in zip(self._offsets[lo].tolist(), self._offsets[hi].tolist())
            if stop > start
        ]
        if notes is not None:
            notes["partitions_touched"] = int((last - first)[: m + 1].sum()) + m + 1
        if sum(stop - start for start, stop in bounds) > _FLAT_SHARE * self.n_slots:
            if notes is not None:
                notes.update(phase="scan", rows=postings.physical_len(), slices=1)
            return postings.scan_ids(q_st, q_end)
        # Rows are (slot, id, t_st, t_end); the slot row is read only to
        # look tombstones up, so a list without any leaves it behind.
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
            notes["divisions_per_level"] = {
                level: int(count)
                for level, count in enumerate(np.bincount(np.flatnonzero(hi > lo) % (m + 1)))
                if count
            }
        if not parts:
            return _NO_IDS
        gathered = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        hit = overlap_mask(gathered[-2], gathered[-1], *window)
        if alive is not None:
            hit &= alive[gathered[0]] != 0
        ids = gathered[-3][hit]
        ids.sort()
        return ids
