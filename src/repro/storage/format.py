"""The immutable cold-segment file format.

One segment holds one demoted shard::

    [ postings blocks | catalog columns | descriptions blob ]   body
    [ pickled SegmentDirectory ]                                directory
    [ dir_offset u64 | dir_length u64 | dir_crc32 u32 | magic ] footer

* **Postings blocks** are the :func:`repro.ir.codec.encode_block` payload
  of :data:`~repro.ir.blocks.BLOCK_SIZE`-entry id-sorted runs, one
  run sequence per dictionary element.  Each block's directory descriptor
  carries its offset, length, CRC32 and the ``(min_id, max_id, min_st,
  max_end, count)`` skip summary, so a reader decodes only the blocks a
  query can touch.
* **Catalog columns** are three raw little-endian i64 arrays (ids, sts,
  ends; sorted by id, 8-byte aligned) accessed zero-copy through
  ``memoryview.cast('q')`` — membership probes bisect the id column and
  pure-temporal queries scan the endpoint columns, neither touching a
  single compressed block.
* The **descriptions blob** (id → frozenset of elements, pickled like the
  snapshot format — elements are arbitrary hashables, not JSON values) is
  decoded only at promotion time, never on the query path.

The footer makes the file self-locating without a seek-back during the
write (single forward pass through the fsio seam).  Damage surfaces as
one typed error: :class:`~repro.core.errors.CorruptSegmentError` for the
envelope (magic, footer bounds, directory checksum/unpickling),
:class:`~repro.core.errors.CorruptPostingsError` for a torn block —
mirroring the WAL / snapshot discipline.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.errors import CorruptSegmentError
from repro.core.model import Element

#: Segment files live under ``<cluster>/segments/<shard_id>`` + this.
SEGMENT_SUFFIX = ".seg"

#: Trailing magic: the last bytes of every well-formed segment.
MAGIC = b"RSEG\x00\x01"

#: Footer layout: ``dir_offset u64 ‖ dir_length u64 ‖ dir_crc32 u32 ‖ magic``.
FOOTER_STRUCT = struct.Struct("<QQI6s")
FOOTER_SIZE = FOOTER_STRUCT.size

#: Current directory format version (stored inside the pickled directory).
FORMAT_VERSION = 1

#: One postings block's directory entry:
#: ``(offset, length, crc32, min_id, max_id, min_st, max_end, count)``.
BlockDescriptor = Tuple[int, int, int, int, int, int, int, int]


@dataclass
class SegmentDirectory:
    """Everything a reader needs that is not raw block/column bytes.

    The directory is pickled (elements and the descriptions blob hold
    arbitrary hashables — the same reason snapshots pickle), CRC32-framed
    by the footer, and written *after* the body so a torn write can never
    produce a file whose directory points at bytes that were not yet
    durable.
    """

    shard_id: str
    index_key: str
    index_params: Dict[str, object]
    count: int
    #: element → its postings blocks, ascending id ranges.
    terms: Dict[Element, List[BlockDescriptor]]
    #: ``(ids_offset, sts_offset, ends_offset, n)`` — i64 column regions.
    catalog: Tuple[int, int, int, int]
    #: ``(offset, length, crc32)`` of the pickled id → description map.
    descriptions: Tuple[int, int, int]
    #: ``(min_st, max_end)`` over all objects; ``None`` for empty shards.
    span: "Tuple[int, int] | None"
    version: int = FORMAT_VERSION
    #: live entries per element (Algorithm 1 frequency ordering).
    term_counts: Dict[Element, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.term_counts:
            self.term_counts = {
                element: sum(descriptor[7] for descriptor in blocks)
                for element, blocks in self.terms.items()
            }


def pack_directory(directory: SegmentDirectory) -> bytes:
    """Pickle the directory (the footer carries its CRC32)."""
    return pickle.dumps(directory, protocol=pickle.HIGHEST_PROTOCOL)


def build_footer(dir_offset: int, dir_blob: bytes) -> bytes:
    """The self-locating footer for a directory written at ``dir_offset``."""
    return FOOTER_STRUCT.pack(
        dir_offset, len(dir_blob), zlib.crc32(dir_blob), MAGIC
    )


def parse_footer(buffer: bytes, path: str) -> Tuple[int, int, int]:
    """``(dir_offset, dir_length, dir_crc)`` from a segment's tail bytes.

    Raises :class:`CorruptSegmentError` when the file is too short, the
    magic is wrong, or the directory bounds fall outside the file.
    """
    if len(buffer) < FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: {len(buffer)} bytes is too short to be a segment"
        )
    dir_offset, dir_length, dir_crc, magic = FOOTER_STRUCT.unpack(
        buffer[-FOOTER_SIZE:]
    )
    if magic != MAGIC:
        raise CorruptSegmentError(f"{path}: bad segment magic {magic!r}")
    if dir_offset + dir_length > len(buffer) - FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: directory [{dir_offset}, {dir_offset + dir_length}) "
            f"runs past the body"
        )
    return dir_offset, dir_length, dir_crc


def unpack_directory(blob: bytes, expected_crc: int, path: str) -> SegmentDirectory:
    """Verify and unpickle the directory; typed error on any damage."""
    if zlib.crc32(blob) != expected_crc:
        raise CorruptSegmentError(f"{path}: segment directory checksum mismatch")
    try:
        directory = pickle.loads(blob)
    except Exception as exc:
        raise CorruptSegmentError(
            f"{path}: segment directory does not unpickle: {exc}"
        ) from exc
    if not isinstance(directory, SegmentDirectory):
        raise CorruptSegmentError(
            f"{path}: directory pickle holds {type(directory).__name__}, "
            f"not SegmentDirectory"
        )
    if directory.version != FORMAT_VERSION:
        raise CorruptSegmentError(
            f"{path}: segment format version {directory.version} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return directory


def align8(offset: int) -> int:
    """The next 8-byte-aligned offset (i64 columns want natural alignment)."""
    return (offset + 7) & ~7
