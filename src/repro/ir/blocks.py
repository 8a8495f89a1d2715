"""The block-postings kernel: one summary, one seal and one column-wise scan.

A block-postings list is a sequence of *sealed blocks* — id-sorted runs of
up to :data:`BLOCK_SIZE` ``⟨id, t_st, t_end⟩`` entries encoded by
:func:`repro.ir.codec.encode_block`, ascending and disjoint in id range —
each paired with an uncompressed :data:`Summary`
``(min_id, max_id, min_st, max_end, count)``.  This module is the only
place that knows that layout:

* :func:`seal` / :func:`runs` build it (the compressed backend's tail
  seal and rebuild, and the segment writer);
* :class:`BlockReader` answers the whole postings read surface over
  ``(summaries, load)``: ``summaries`` is an int64 table with one *row per
  summary field* and one column per block (:data:`MIN_ID` …
  :data:`COUNT`), ``load(i, ids_only)`` returns block ``i``'s decoded
  int64 ``(ids, sts, ends)`` columns.  Blocks are admitted by one mask
  over the summary rows, a block is decoded only when admitted — the id
  column alone where that is all a read needs — and its entries are
  matched by one mask or one ``searchsorted`` over the columns.  That is
  what lets :class:`~repro.ir.compressed.CompressedPostingsList` (``load``
  decodes bytes held in RAM) and :class:`~repro.ir.cold.ColdPostingsList`
  (``load`` CRC-checks and decodes an mmap slice; ``summaries`` are rows
  of the segment's block table) share every scan.

Reads take the caller's tombstone set (``dead``: ids stored but logically
deleted; empty for a list that has none) and, where a caller meters block
traffic, return how many blocks they decoded; the blocks not decoded were
skipped on their summary.  Answers are plain Python ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, Collection, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.ir.codec import Columns, EntryTriple, encode_block
from repro.ir.postings import PostingsEntry

#: Entries per sealed block.  128 keeps blocks around a kilobyte — small
#: enough that decoding one block for a point lookup is cheap, large
#: enough that the per-block summary overhead stays under 4%.
BLOCK_SIZE = 128

#: ``(min_id, max_id, min_st, max_end, count)`` — one block's skip metadata,
#: and the row of each field in a summary table.
Summary = Tuple[int, int, int, int, int]
MIN_ID, MAX_ID, MIN_ST, MAX_END, COUNT = range(5)

#: ``load(block_index, ids_only)``: the block's decoded columns.
Load = Callable[[int, bool], Columns]

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


# ------------------------------------------------------------------- writing
def summarize(run: Sequence[EntryTriple]) -> Summary:
    """The skip summary of one non-empty id-sorted run."""
    return (
        run[0][0],
        run[-1][0],
        min(entry[1] for entry in run),
        max(entry[2] for entry in run),
        len(run),
    )


def seal(run: List[EntryTriple]) -> Tuple[bytes, Summary]:
    """Encode one non-empty id-sorted run: ``(payload, summary)``."""
    return encode_block(run), summarize(run)


def runs(entries: List[EntryTriple]) -> Iterator[List[EntryTriple]]:
    """Cut id-sorted entries into block-sized runs (the last may be short)."""
    for start in range(0, len(entries), BLOCK_SIZE):
        yield entries[start : start + BLOCK_SIZE]


# --------------------------------------------------------------- comparisons
def exact_window(q_st: Timestamp, q_end: Timestamp) -> Optional[Tuple[int, int]]:
    """``[q_st, q_end]`` as i64 bounds ``(lo, hi)`` that order every i64
    ``t`` exactly as the window does: ``q_st <= t`` iff ``lo <= t`` and
    ``t <= q_end`` iff ``t <= hi``.  ``None`` when no i64 lies on the right
    side of one of the bounds (a NaN bound included).

    numpy would compare an int64 column with a float bound by rounding the
    *column* to float64, which misorders neighbours above 2**53; Python
    orders ints and floats exactly, and these bounds keep that.
    """
    if not (q_st <= _I64_MAX and q_end >= _I64_MIN):
        return None
    lo = _I64_MIN if q_st <= _I64_MIN else math.ceil(q_st)
    hi = _I64_MAX if q_end >= _I64_MAX else math.floor(q_end)
    return lo, hi


def overlap_mask(sts: np.ndarray, ends: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Which ``[sts[i], ends[i]]`` overlap the :func:`exact_window`
    ``(lo, hi)``; an open side costs no comparison."""
    if lo == _I64_MIN:
        return sts <= hi
    if hi == _I64_MAX:
        return ends >= lo
    return (sts <= hi) & (ends >= lo)


def _candidates(sorted_ids: Sequence[int]) -> np.ndarray:
    """An ascending candidate list as a duplicate-free int64 array."""
    candidates = np.asarray(sorted_ids)
    if candidates.dtype != np.int64:
        # Floats or ints beyond i64 among them: only an integral value in
        # range can equal a stored id.
        candidates = np.array(
            [int(c) for c in sorted_ids if _I64_MIN <= c <= _I64_MAX and c == int(c)],
            dtype=np.int64,
        )
    if len(candidates) > 1:
        fresh = np.empty(len(candidates), dtype=bool)
        fresh[0] = True
        np.not_equal(candidates[1:], candidates[:-1], out=fresh[1:])
        candidates = candidates[fresh]
    return candidates


# ------------------------------------------------------------------- reading
class BlockReader:
    """The read kernel over one list's ``summaries`` table and ``load``."""

    __slots__ = ("summaries", "load")

    def __init__(self, summaries: np.ndarray, load: Load) -> None:
        self.summaries = summaries
        self.load = load

    def contains(self, object_id: int) -> Tuple[bool, int]:
        """Is the id stored at all (tombstoned or not)?  ``(found, decoded)``;
        bisects to the single block whose id range can cover the id."""
        max_ids = self.summaries[MAX_ID]
        at = bisect_left(max_ids, object_id)
        if at == len(max_ids) or self.summaries[MIN_ID, at] > object_id:
            return False, 0
        ids = self.load(at, True)[0]
        return bool(ids[np.searchsorted(ids, object_id)] == object_id), 1

    def entries(self, dead: Collection[int] = ()) -> Iterator[EntryTriple]:
        """Live entries in id order; decodes every block, one at a time."""
        for block_index in range(self.summaries.shape[1]):
            block = zip(*(column.tolist() for column in self.load(block_index, False)))
            if dead:
                yield from (entry for entry in block if entry[0] not in dead)
            else:
                yield from block

    def _scan(
        self, q_st: Timestamp, q_end: Timestamp
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(ids, sts, ends, mask)`` per block whose summary admits the
        window, ``mask`` marking the entries that overlap it."""
        window = exact_window(q_st, q_end)
        if window is None:
            return
        admitted = overlap_mask(self.summaries[MIN_ST], self.summaries[MAX_END], *window)
        for block_index in np.flatnonzero(admitted).tolist():
            ids, sts, ends = self.load(block_index, False)
            yield ids, sts, ends, overlap_mask(sts, ends, *window)

    def overlapping(
        self, q_st: Timestamp, q_end: Timestamp, dead: Collection[int] = ()
    ) -> Tuple[List[PostingsEntry], int]:
        """Live entries overlapping ``[q_st, q_end]``: ``(entries, decoded)``."""
        out: List[PostingsEntry] = []
        decoded = 0
        for ids, sts, ends, mask in self._scan(q_st, q_end):
            decoded += 1
            out.extend(zip(ids[mask].tolist(), sts[mask].tolist(), ends[mask].tolist()))
        if dead:
            out = [entry for entry in out if entry[0] not in dead]
        return out, decoded

    def overlapping_ids(
        self, q_st: Timestamp, q_end: Timestamp, dead: Collection[int] = ()
    ) -> Tuple[List[int], int]:
        """The ids of :meth:`overlapping`, without building its entries."""
        out: List[int] = []
        decoded = 0
        for ids, _sts, _ends, mask in self._scan(q_st, q_end):
            decoded += 1
            out.extend(ids[mask].tolist())
        if dead:
            out = [object_id for object_id in out if object_id not in dead]
        return out, decoded

    def intersect_sorted(
        self, sorted_ids: Sequence[int], dead: Collection[int] = ()
    ) -> Tuple[List[int], int]:
        """Live ids among an ascending candidate list (repeats allowed,
        reported once): ``(ids, decoded)``.  Blocks whose ``[min_id,
        max_id]`` holds no candidate are never decoded, and of the others
        only the id column is — intersect without decompression."""
        candidates = _candidates(sorted_ids)
        first = np.searchsorted(candidates, self.summaries[MIN_ID], side="left")
        stop = np.searchsorted(candidates, self.summaries[MAX_ID], side="right")
        out: List[int] = []
        decoded = 0
        for block_index in np.flatnonzero(stop > first).tolist():
            decoded += 1
            ids = self.load(block_index, True)[0]
            # Every candidate here lies in [ids[0], ids[-1]]: no position
            # falls off the end.
            among = candidates[first[block_index] : stop[block_index]]
            out.extend(among[ids[np.searchsorted(ids, among)] == among].tolist())
        if dead:
            out = [object_id for object_id in out if object_id not in dead]
        return out, decoded

    def span(self, dead: Collection[int] = ()) -> Tuple[int, int]:
        """``[min t_st, max t_end]`` over live entries — from the summaries
        alone when nothing is tombstoned (they are exact then)."""
        if dead:
            live = list(self.entries(dead))
            if live:
                return min(entry[1] for entry in live), max(entry[2] for entry in live)
        elif self.summaries.shape[1]:
            return int(self.summaries[MIN_ST].min()), int(self.summaries[MAX_END].max())
        raise UnknownObjectError("span() of an empty postings list")
