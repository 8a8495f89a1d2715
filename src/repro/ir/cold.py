"""The ``cold`` postings backend: a read-only view over mmap'd blocks.

:class:`ColdPostingsList` serves the full
:class:`~repro.ir.postings.PostingsList` read surface straight from a
segment's encoded blocks (:mod:`repro.storage.format`) without ever
materialising the whole list: it is a run of rows of the segment's block
table, every read is the :mod:`repro.ir.blocks` kernel — the one
:class:`~repro.ir.compressed.CompressedPostingsList` runs over RAM — and
only blocks a query can touch are CRC-checked and decoded on demand.
Decoded payload damage raises
:class:`~repro.core.errors.CorruptPostingsError`; mutation attempts raise
:class:`~repro.core.errors.ReadOnlySegmentError` — cold shards promote
before they accept writes (:mod:`repro.storage.tiering`).

Unlike the mutable backends this class is *constructed by* a
:class:`~repro.storage.reader.SegmentReader`, never by the
:mod:`repro.ir.backends` factory — it is registered there as a
read-only backend so the name resolves to a typed configuration error
instead of a silent KeyError.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import CorruptPostingsError, ReadOnlySegmentError
from repro.core.interval import Timestamp
from repro.ir import blocks
from repro.ir.codec import Columns, decode_block
from repro.ir.postings import PostingsEntry

#: One ``(offset, length, crc32) ‖ summary`` row of eight i64 per block —
#: a run of rows of a segment's block table
#: (:data:`repro.storage.format.BlockDescriptor`; not imported: repro.ir
#: stays a lower layer than the storage package).
Descriptors = Union[np.ndarray, Sequence[Tuple[int, int, int, int, int, int, int, int]]]

#: Metrics sink: ``count_blocks(decoded, skipped)``; the reader batches
#: these into the ``repro_storage_blocks_*`` counters once per call.
BlockSink = Callable[[int, int], None]


def _read_only(what: str) -> ReadOnlySegmentError:
    return ReadOnlySegmentError(
        f"cold postings are immutable ({what} attempted); promote the "
        f"shard back to the hot tier before mutating it"
    )


def _mmap_load(buffer, table: np.ndarray) -> blocks.Load:
    """The kernel's ``load`` over a segment body: slice, CRC-check, decode.
    ``table`` holds one row per descriptor field, one column per block."""

    def load(block_index: int, ids_only: bool) -> Columns:
        offset, length, crc, *summary = table[:, block_index].tolist()
        raw = bytes(buffer[offset : offset + length])
        if len(raw) != length:
            raise CorruptPostingsError(
                f"segment block at {offset} is truncated "
                f"({len(raw)} of {length} bytes mapped)"
            )
        if zlib.crc32(raw) != crc:
            raise CorruptPostingsError(
                f"segment block at {offset} fails its checksum"
            )
        return decode_block(raw, summary, ids_only)

    return load


class ColdPostingsList:
    """Read-only postings over one element's blocks in an open segment."""

    __slots__ = ("_table", "_reader", "_n", "_sink")

    def __init__(
        self,
        buffer,  # memoryview over the segment body (zero-copy mmap slice)
        descriptors: Descriptors,
        sink: Optional[BlockSink] = None,
    ) -> None:
        # One row per field, one column per block; for rows of a segment's
        # block table this is a view: nothing is built per descriptor.
        self._table = np.asarray(descriptors, dtype=np.int64).reshape(-1, 8).T
        summaries = self._table[3:]
        self._reader = blocks.BlockReader(summaries, _mmap_load(buffer, self._table))
        self._n = int(summaries[blocks.COUNT].sum())
        self._sink = sink

    def _count(self, decoded: int) -> None:
        """Meter one kernel read: what it did not decode, it skipped."""
        skipped = self._table.shape[1] - decoded
        if self._sink is not None and (decoded or skipped):
            self._sink(decoded, skipped)

    # ---------------------------------------------------------------- updates
    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        raise _read_only("add")

    def delete(self, object_id: int) -> None:
        raise _read_only("delete")

    def compact(self) -> None:
        """Compaction is a no-op: segments carry no tombstones by design."""

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        return self._n

    def physical_len(self) -> int:
        return self._n

    def __contains__(self, object_id: int) -> bool:
        found, decoded = self._reader.contains(object_id)
        if decoded:  # an id outside every block's range meters nothing
            self._count(decoded)
        return found

    def entries(self) -> Iterator[PostingsEntry]:
        """Every entry in id order (sequential block decode)."""
        yield from self._reader.entries()
        self._count(self._table.shape[1])

    def ids(self) -> List[int]:
        return [entry[0] for entry in self.entries()]

    def overlapping(
        self, q_st: Timestamp, q_end: Timestamp
    ) -> List[PostingsEntry]:
        """Entries overlapping ``[q_st, q_end]``; summary-skipped."""
        out, decoded = self._reader.overlapping(q_st, q_end)
        self._count(decoded)
        return out

    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        out, decoded = self._reader.overlapping_ids(q_st, q_end)
        self._count(decoded)
        return out

    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]:
        """Merge-intersect with an ascending candidate list, skipping
        every block whose id range holds no candidate."""
        if not sorted_ids or not self._n:
            return []  # nothing to scan meters nothing
        out, decoded = self._reader.intersect_sorted(sorted_ids)
        self._count(decoded)
        return out

    def span(self) -> Tuple[Timestamp, Timestamp]:
        """``[min t_st, max t_end]`` — exact from the summaries alone."""
        return self._reader.span()

    # ----------------------------------------------------------------- sizes
    def size_bytes(self) -> int:
        """Encoded bytes on disk plus this list's rows of the block table."""
        return int(self._table[1].sum()) + self._table.shape[1] * 8 * 8
