"""Packed columnar postings: flat ``array('q')`` columns + numpy kernels.

The list-backed :class:`~repro.ir.postings.PostingsList` stores one boxed
Python int per id/endpoint — the hot intersection and scan loops pay a
pointer chase and a refcount per element.  :class:`PackedPostingsList`
keeps the same public surface on three ``array('q')`` columns (ids, starts,
ends) plus a one-byte-per-slot tombstone column, the closest CPython
analogue of the paper's packed C++ arrays (HINT §5's cache-miss argument,
arXiv 2104.10939).

Past :data:`_VECTOR_MIN` slots the temporal scans and the sorted-id
intersection run as numpy kernels over zero-copy views of those columns;
shorter lists use the same scalar loops the list backend uses.

Values that do not fit a signed 64-bit slot (floats, or ints beyond the
i64 range — both legal :data:`~repro.core.interval.Timestamp` values)
trigger a one-way *spill*: the columns are converted to plain Python lists
and the instance keeps working with identical semantics, just without the
packed representation.  Tombstone-heavy lists compact automatically once
dead slots outnumber live ones (see :meth:`PackedPostingsList.compact`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.postings import PostingsEntry
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Below this many physical slots the scalar loops beat the numpy setup
#: cost; kernels only engage past it.
_VECTOR_MIN = 64

#: ... and below this many candidates an intersection probes one by one.
_KERNEL_MIN_CANDIDATES = 8

_NO_IDS = np.empty(0, dtype=np.int64)

#: Auto-compaction threshold: compact when dead slots exceed this fraction
#: of physical slots (and the list is big enough for it to matter).
_COMPACT_FRACTION = 0.5
_COMPACT_MIN_SLOTS = 32


def _fits_i64(value: Timestamp) -> bool:
    """True when ``value`` can live in an ``array('q')`` slot losslessly."""
    return isinstance(value, int) and _I64_MIN <= value <= _I64_MAX


class PackedPostingsList:
    """Id-ordered ``⟨id, t_st, t_end⟩`` entries in flat packed columns.

    Drop-in replacement for :class:`~repro.ir.postings.PostingsList`
    (same public surface, same semantics — tombstone deletes, revive on
    re-add, ``UnknownObjectError`` on bad deletes).

    ``_packed`` (read it as :attr:`layout_epoch`) is 0 once spilled and
    otherwise the *layout epoch*: it starts at 1 and grows whenever a
    stored slot moves or its interval is rewritten (mid-list insert,
    compaction, re-add with another interval).  Appends, tombstones and
    revives with the same interval leave it alone, so a structure derived
    from slots ``[0, n)`` at epoch ``e`` (irHINT's time-first table) is
    still exact over those slots while the epoch reads ``e``.
    """

    __slots__ = ("_ids", "_sts", "_ends", "_alive", "_n_dead", "_packed")

    def __init__(self) -> None:
        self._ids: "array | List[int]" = array("q")
        self._sts: "array | List[Timestamp]" = array("q")
        self._ends: "array | List[Timestamp]" = array("q")
        self._alive = bytearray()
        self._n_dead = 0
        self._packed = 1

    # ----------------------------------------------------------------- spill
    def _spill(self) -> None:
        """Convert packed columns to plain lists (non-i64 value arrived)."""
        if self._packed:
            self._ids = list(self._ids)
            self._sts = list(self._sts)
            self._ends = list(self._ends)
            self._packed = 0

    # --------------------------------------------------------------- updates
    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Insert an entry, preserving id order (append fast path).

        Same contract as ``PostingsList.add``: appending ids in increasing
        order is O(1); re-adding an existing id overwrites its interval and
        revives a tombstoned entry in place.
        """
        if self._packed and not (
            _fits_i64(object_id) and _fits_i64(st) and _fits_i64(end)
        ):
            self._spill()
        ids = self._ids
        if not ids or object_id > ids[-1]:
            ids.append(object_id)
            self._sts.append(st)
            self._ends.append(end)
            self._alive.append(1)
            return
        pos = bisect_left(ids, object_id)
        if pos < len(ids) and ids[pos] == object_id:
            if self._packed and (self._sts[pos] != st or self._ends[pos] != end):
                self._packed += 1
            self._sts[pos] = st
            self._ends[pos] = end
            if not self._alive[pos]:
                self._alive[pos] = 1
                self._n_dead -= 1
            return
        ids.insert(pos, object_id)
        self._sts.insert(pos, st)
        self._ends.insert(pos, end)
        self._alive.insert(pos, 1)
        if self._packed:
            self._packed += 1

    def delete(self, object_id: int) -> None:
        """Tombstone the entry for ``object_id`` (raises if absent)."""
        ids = self._ids
        pos = bisect_left(ids, object_id)
        if pos >= len(ids) or ids[pos] != object_id or not self._alive[pos]:
            raise UnknownObjectError(object_id)
        self._alive[pos] = 0
        self._n_dead += 1
        if (
            len(ids) >= _COMPACT_MIN_SLOTS
            and self._n_dead > len(ids) * _COMPACT_FRACTION
        ):
            self.compact()

    def compact(self) -> None:
        """Drop tombstoned slots, rebuilding the columns densely.

        Runs automatically once dead slots outnumber live ones; callable
        directly after a bulk delete.  A compacted id can still be re-added
        later — it simply inserts fresh, which is observationally identical
        to the revive path.
        """
        if not self._n_dead:
            return
        alive = self._alive
        keep = [i for i in range(len(alive)) if alive[i]]
        ids, sts, ends = self._ids, self._sts, self._ends
        if self._packed:
            self._ids = array("q", (ids[i] for i in keep))
            self._sts = array("q", (sts[i] for i in keep))
            self._ends = array("q", (ends[i] for i in keep))
            self._packed += 1
        else:
            self._ids = [ids[i] for i in keep]
            self._sts = [sts[i] for i in keep]
            self._ends = [ends[i] for i in keep]
        self._alive = bytearray(b"\x01" * len(keep))
        self._n_dead = 0

    # ----------------------------------------------------------------- reads
    def __len__(self) -> int:
        """Number of live entries."""
        return len(self._ids) - self._n_dead

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, object_id: int) -> bool:
        ids = self._ids
        pos = bisect_left(ids, object_id)
        return pos < len(ids) and ids[pos] == object_id and bool(self._alive[pos])

    def physical_len(self) -> int:
        """Slots including tombstones (drops back after compaction)."""
        return len(self._ids)

    def entries(self) -> Iterator[PostingsEntry]:
        """Live entries in id order."""
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        for i in range(len(ids)):
            if alive[i]:
                yield ids[i], sts[i], ends[i]

    def ids(self) -> List[int]:
        """Live object ids, sorted."""
        if not self._n_dead:
            return list(self._ids)
        alive = self._alive
        return [oid for i, oid in enumerate(self._ids) if alive[i]]

    # ------------------------------------------------------------ numpy views
    # What a structure derived from the columns (irHINT's time-first table)
    # reads: the epoch, the three columns, the tombstones, physical_len().
    @property
    def layout_epoch(self) -> int:
        """0 once spilled, else the layout epoch (see the class docstring)."""
        return self._packed

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy int64 views ``(ids, t_st, t_end)`` over the packed
        columns, one entry per physical slot (unspilled lists only)."""
        return (
            np.frombuffer(self._ids, dtype=np.int64),
            np.frombuffer(self._sts, dtype=np.int64),
            np.frombuffer(self._ends, dtype=np.int64),
        )

    def alive_column(self) -> Optional[np.ndarray]:
        """Zero-copy uint8 view of the tombstone column (0 = dead slot);
        ``None`` while every slot is live."""
        return np.frombuffer(self._alive, dtype=np.uint8) if self._n_dead else None

    def _alive_mask(self):
        return np.frombuffer(self._alive, dtype=np.uint8) != 0

    def _use_kernels(self) -> bool:
        return self._packed and len(self._ids) >= _VECTOR_MIN

    def _window_mask(self, q_st: Timestamp, q_end: Timestamp):
        """Which slots are live and overlap ``[q_st, q_end]`` (numpy path
        only); ``None`` when no i64 interval can.  The one place a column
        meets a query bound: the window is made exact i64 bounds first, so
        a float bound never rounds the column."""
        window = exact_window(q_st, q_end)
        if window is None:
            return None
        mask = overlap_mask(
            np.frombuffer(self._sts, dtype=np.int64),
            np.frombuffer(self._ends, dtype=np.int64),
            *window,
        )
        if self._n_dead:
            mask &= self._alive_mask()
        return mask

    # ----------------------------------------------------------------- scans
    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]:
        """Live entries whose interval overlaps ``[q_st, q_end]`` (Alg. 1)."""
        if self._use_kernels():
            mask = self._window_mask(q_st, q_end)
            if mask is None:
                return []
            ids, sts, ends = self.columns()
            return list(
                zip(ids[mask].tolist(), sts[mask].tolist(), ends[mask].tolist())
            )
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        return [
            (ids[i], sts[i], ends[i])
            for i in range(len(ids))
            if alive[i] and q_st <= ends[i] and sts[i] <= q_end
        ]

    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """Ids of live entries overlapping ``[q_st, q_end]``, in id order."""
        candidates = self.scan_ids(q_st, q_end)
        return candidates.tolist() if isinstance(candidates, np.ndarray) else candidates

    def scan_ids(self, q_st: Timestamp, q_end: Timestamp) -> "np.ndarray | List[int]":
        """:meth:`overlapping_ids` without the boxing: an int64 array when
        the kernels engage, a plain list otherwise.  Algorithm 1 hands the
        array on to :meth:`intersect_sorted` and boxes once, at the end."""
        if self._use_kernels():
            mask = self._window_mask(q_st, q_end)
            return _NO_IDS if mask is None else np.frombuffer(self._ids, dtype=np.int64)[mask]
        ids, sts, ends, alive = self._ids, self._sts, self._ends, self._alive
        return [
            ids[i]
            for i in range(len(ids))
            if alive[i] and q_st <= ends[i] and sts[i] <= q_end
        ]

    def _intersect_array(self, candidates: np.ndarray, strict: bool) -> np.ndarray:
        """The ``searchsorted`` kernel: every candidate binary-searched
        into the packed id column at once (a vectorised gallop).
        ``strict`` promises strictly ascending candidates."""
        ids = np.frombuffer(self._ids, dtype=np.int64)
        positions = np.searchsorted(ids, candidates)
        np.minimum(positions, len(ids) - 1, out=positions)
        hit = ids[positions] == candidates
        if self._n_dead:
            hit &= self._alive_mask()[positions]
        if not strict:  # repeated candidates report once (merge parity)
            hit[1:] &= candidates[1:] != candidates[:-1]
        return candidates[hit]

    def intersect_sorted(
        self, sorted_ids: "np.ndarray | List[int]"
    ) -> "np.ndarray | List[int]":
        """Intersection with ascending ids (live entries only).

        The numpy kernel engages when both sides are long enough to pay
        for it; the scalar fallback keeps the merge-vs-probe switch of the
        list backend.  Candidates may arrive as a *strictly* ascending
        int64 array (Algorithm 1's unboxed pipeline): the kernel then
        answers with an array and nothing is boxed in between; every other
        path answers with a list.
        """
        n_c, n_e = len(sorted_ids), len(self._ids)
        if n_c == 0 or n_e == 0:
            return []
        if isinstance(sorted_ids, np.ndarray):
            if self._packed and n_c >= _KERNEL_MIN_CANDIDATES:
                return self._intersect_array(sorted_ids, strict=True)
            sorted_ids = sorted_ids.tolist()
        elif (
            self._use_kernels()
            and n_c >= _KERNEL_MIN_CANDIDATES
            and all(type(c) is int for c in sorted_ids)
        ):
            try:
                candidates = np.asarray(sorted_ids, dtype=np.int64)
            except OverflowError:  # an id beyond i64: scalar fallback
                candidates = None
            if candidates is not None:
                return self._intersect_array(candidates, strict=False).tolist()
        ids, alive = self._ids, self._alive
        out: List[int] = []
        if n_e > 16 * n_c:
            lo = 0
            for c in sorted_ids:
                pos = bisect_left(ids, c, lo)
                if pos < n_e and ids[pos] == c:
                    if alive[pos]:
                        out.append(c)
                    lo = pos + 1
                else:
                    lo = pos
                if lo >= n_e:
                    break
            return out
        i = j = 0
        while i < n_c and j < n_e:
            c, e = sorted_ids[i], ids[j]
            if c == e:
                if alive[j]:
                    out.append(c)
                i += 1
                j += 1
            elif c < e:
                i += 1
            else:
                j += 1
        return out

    def span(self) -> Tuple[Timestamp, Timestamp]:
        """``[min t_st, max t_end]`` over live entries."""
        if not len(self):
            raise UnknownObjectError("span() of an empty postings list")
        if self._use_kernels():
            _ids, sts, ends = self.columns()
            if self._n_dead:
                alive = self._alive_mask()
                return int(sts[alive].min()), int(ends[alive].max())
            return int(sts.min()), int(ends.max())
        lo: Optional[Timestamp] = None
        hi: Optional[Timestamp] = None
        for _, st, end in self.entries():
            lo = st if lo is None or st < lo else lo
            hi = end if hi is None or end > hi else hi
        assert lo is not None and hi is not None
        return lo, hi

    # ----------------------------------------------------------------- sizes
    def size_bytes(self) -> int:
        """Modelled size: full entries + one container overhead.

        Uses the same size model as the list backend so relative index
        sizes (Table 5, Figures 8–9) stay comparable across backends; the
        actual packed footprint is ~24 bytes/slot + 1 tombstone byte.
        """
        return self.physical_len() * ENTRY_FULL_BYTES + CONTAINER_BYTES
