"""The ``cold`` postings backend: a read-only view over mmap'd blocks.

:class:`ColdPostingsList` serves the full
:class:`~repro.ir.postings.PostingsList` read surface straight from a
segment's encoded blocks (:mod:`repro.storage.format`) without ever
materialising the whole list: the block summaries live in the segment
directory, every read is the :mod:`repro.ir.blocks` kernel — the one
:class:`~repro.ir.compressed.CompressedPostingsList` runs over RAM — and
only blocks a query can touch are CRC-checked and decoded on demand.
Decoded payload damage raises
:class:`~repro.core.errors.CorruptPostingsError`; mutation attempts raise
:class:`~repro.core.errors.ReadOnlySegmentError` — cold shards promote
before they accept writes (:mod:`repro.storage.tiering`).

Unlike the mutable backends this class is *constructed by* a
:class:`~repro.storage.reader.SegmentReader`, never by the
:mod:`repro.ir.backends` factories — it is registered there as a
read-only backend so the name resolves to a typed configuration error
instead of a silent KeyError.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.errors import CorruptPostingsError, ReadOnlySegmentError
from repro.core.interval import Timestamp
from repro.ir import blocks
from repro.ir.codec import decode_block
from repro.ir.postings import PostingsEntry

#: One ``(offset, length, crc32) ‖ summary`` 8-tuple per block — the
#: segment directory's :data:`repro.storage.format.BlockDescriptor`
#: (not imported: repro.ir stays a lower layer than the storage package).
Descriptors = Sequence[Tuple[int, int, int, int, int, int, int, int]]

#: Metrics sink: ``count_blocks(decoded, skipped)``; the reader batches
#: these into the ``repro_storage_blocks_*`` counters once per call.
BlockSink = Callable[[int, int], None]


def _read_only(what: str) -> ReadOnlySegmentError:
    return ReadOnlySegmentError(
        f"cold postings are immutable ({what} attempted); promote the "
        f"shard back to the hot tier before mutating it"
    )


def _mmap_load(buffer, descriptors: Descriptors) -> blocks.Load:
    """The kernel's ``load`` over a segment body: slice, CRC-check, decode."""

    def load(block_index: int) -> blocks.Columns:
        offset, length, crc = descriptors[block_index][:3]
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
        return decode_block(raw)

    return load


class ColdPostingsList:
    """Read-only postings over one element's blocks in an open segment."""

    __slots__ = ("_descriptors", "_reader", "_n", "_sink")

    def __init__(
        self,
        buffer,  # memoryview over the segment body (zero-copy mmap slice)
        descriptors: Descriptors,
        sink: Optional[BlockSink] = None,
    ) -> None:
        self._descriptors = descriptors
        self._reader = blocks.BlockReader(
            [descriptor[3:] for descriptor in descriptors],
            _mmap_load(buffer, descriptors),
        )
        self._n = sum(descriptor[7] for descriptor in descriptors)
        self._sink = sink

    def _count(self, decoded: int) -> None:
        """Meter one kernel read: what it did not decode, it skipped."""
        skipped = len(self._descriptors) - decoded
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
        self._count(len(self._descriptors))

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
        return [entry[0] for entry in self.overlapping(q_st, q_end)]

    def ids_end_ge(self, q_st: Timestamp) -> List[int]:
        return self.overlapping_ids(q_st, blocks.OPEN_END)

    def ids_st_le(self, q_end: Timestamp) -> List[int]:
        return self.overlapping_ids(blocks.OPEN_START, q_end)

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
        """Encoded bytes on disk plus the in-RAM descriptor list."""
        encoded = sum(descriptor[1] for descriptor in self._descriptors)
        return encoded + len(self._descriptors) * 8 * 8
