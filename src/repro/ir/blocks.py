"""The block-postings kernel: one summary, one seal, one skip-scan.

A block-postings list is a sequence of *sealed blocks* — id-sorted runs of
up to :data:`BLOCK_SIZE` ``⟨id, t_st, t_end⟩`` entries encoded by
:func:`repro.ir.codec.encode_block`, ascending and disjoint in id range —
each paired with an uncompressed :data:`Summary`
``(min_id, max_id, min_st, max_end, count)``.  This module is the only
place that knows that layout:

* :func:`seal` / :func:`runs` build it (the compressed backend's tail
  seal and rebuild, and the segment writer);
* :class:`BlockReader` answers the whole postings read surface over
  ``(summaries, load)``, where ``load(i)`` returns block ``i``'s decoded
  ``(ids, sts, ends)`` columns.  A block is decoded only when its summary
  admits the query, which is what lets
  :class:`~repro.ir.compressed.CompressedPostingsList` (``load`` decodes
  bytes held in RAM) and :class:`~repro.ir.cold.ColdPostingsList`
  (``load`` CRC-checks and decodes an mmap slice) share every scan.

Reads take the caller's tombstone set (``dead``: ids stored but logically
deleted; empty for a list that has none) and, where a caller meters block
traffic, return how many blocks they decoded; the blocks not decoded were
skipped on their summary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Collection, Iterator, List, Sequence, Tuple

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.ir.codec import EntryTriple, encode_block
from repro.ir.postings import PostingsEntry

#: Entries per sealed block.  128 keeps blocks around half a kilobyte —
#: small enough that decoding one block for a point lookup is cheap, large
#: enough that the per-block summary overhead stays under 3%.
BLOCK_SIZE = 128

#: ``(min_id, max_id, min_st, max_end, count)`` — one block's skip metadata.
Summary = Tuple[int, int, int, int, int]

#: One block's decoded ``(ids, sts, ends)`` columns, and the callable that
#: produces them for block ``i``.
Columns = Tuple[Sequence[int], Sequence[int], Sequence[int]]
Load = Callable[[int], Columns]

#: Open window bounds: ``t_end >= q_st`` alone is the overlap test against
#: ``[q_st, OPEN_END]``, ``t_st <= q_end`` alone against ``[OPEN_START, q_end]``.
OPEN_START = float("-inf")
OPEN_END = float("inf")


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


# ------------------------------------------------------------------- reading
class BlockReader:
    """The read kernel over one list's ``summaries`` and ``load``."""

    __slots__ = ("summaries", "load")

    def __init__(self, summaries: Sequence[Summary], load: Load) -> None:
        self.summaries = summaries
        self.load = load

    def contains(self, object_id: int) -> Tuple[bool, int]:
        """Is the id stored at all (tombstoned or not)?  ``(found, decoded)``;
        bisects to the single block whose id range can cover the id."""
        summaries = self.summaries
        at = bisect_left(summaries, object_id, key=lambda summary: summary[1])
        if at == len(summaries) or summaries[at][0] > object_id:
            return False, 0
        return object_id in self.load(at)[0], 1

    def entries(self, dead: Collection[int] = ()) -> Iterator[EntryTriple]:
        """Live entries in id order; decodes every block, one at a time."""
        for block_index in range(len(self.summaries)):
            block = zip(*self.load(block_index))
            if dead:
                yield from (entry for entry in block if entry[0] not in dead)
            else:
                yield from block

    def overlapping(
        self, q_st: Timestamp, q_end: Timestamp, dead: Collection[int] = ()
    ) -> Tuple[List[PostingsEntry], int]:
        """Live entries overlapping ``[q_st, q_end]``: ``(entries, decoded)``.

        Pass :data:`OPEN_START` / :data:`OPEN_END` for a one-sided check.
        """
        out: List[PostingsEntry] = []
        decoded = 0
        for block_index, (_lo, _hi, min_st, max_end, _n) in enumerate(self.summaries):
            if min_st > q_end or max_end < q_st:
                continue  # the whole block misses the window: skip undecoded
            decoded += 1
            ids, sts, ends = self.load(block_index)
            for i in range(len(ids)):
                if q_st <= ends[i] and sts[i] <= q_end and ids[i] not in dead:
                    out.append((ids[i], sts[i], ends[i]))
        return out, decoded

    def intersect_sorted(
        self, sorted_ids: Sequence[int], dead: Collection[int] = ()
    ) -> Tuple[List[int], int]:
        """Merge-intersect live ids with an ascending candidate list (repeats
        allowed): ``(ids, decoded)``.  Blocks whose ``[min_id, max_id]`` holds
        no candidate are never decoded — intersect without decompression."""
        out: List[int] = []
        decoded = 0
        n_c = len(sorted_ids)
        i = 0  # cursor into sorted_ids
        for block_index, (min_id, max_id, _st, _end, _n) in enumerate(self.summaries):
            i = bisect_left(sorted_ids, min_id, i)
            if i >= n_c:
                break  # candidates exhausted: every remaining block is skipped
            if sorted_ids[i] > max_id:
                continue  # no candidate lands in this block: skip undecoded
            decoded += 1
            ids = self.load(block_index)[0]
            j, n_e = 0, len(ids)
            while i < n_c and j < n_e:
                c, e = sorted_ids[i], ids[j]
                if c == e:
                    if c not in dead:
                        out.append(c)
                    j += 1
                    while i < n_c and sorted_ids[i] == c:  # repeated candidates
                        i += 1
                elif c < e:
                    i += 1
                else:
                    j += 1
        return out, decoded

    def span(self, dead: Collection[int] = ()) -> Tuple[int, int]:
        """``[min t_st, max t_end]`` over live entries — from the summaries
        alone when nothing is tombstoned (they are exact then)."""
        if dead:
            live = list(self.entries(dead))
            sts, ends = [entry[1] for entry in live], [entry[2] for entry in live]
        else:
            sts = [summary[2] for summary in self.summaries]
            ends = [summary[3] for summary in self.summaries]
        if not sts:
            raise UnknownObjectError("span() of an empty postings list")
        return min(sts), max(ends)
