"""The immutable cold-segment file format (v2; v1 stays readable).

One segment holds one demoted shard::

    [ postings blocks | block table | catalog columns | descriptions ]   body
    [ pickled SegmentDirectory ]                                         directory
    [ dir_offset u64 | dir_length u64 | dir_crc32 u32 | magic ]          footer

* **Postings blocks** are the :func:`repro.ir.codec.encode_block` payload
  of :data:`~repro.ir.blocks.BLOCK_SIZE`-entry id-sorted runs, one run
  sequence per dictionary element, the elements' runs back to back.
* The **block table** describes them: eight little-endian i64 columns
  (8-byte aligned, one value per block each) — ``offset``, ``length``,
  ``crc32`` of the payload, then the ``(min_id, max_id, min_st, max_end,
  count)`` skip summary — with a CRC32 of their own in the directory,
  checked when the segment is opened.  A reader copies the table out of
  the mapping with one ``memcpy`` and parses nothing per block; an
  element's postings are a run of its rows, and only the blocks a query
  can touch are decoded.
* **Catalog columns** are three raw little-endian i64 arrays (ids, sts,
  ends; sorted by id, 8-byte aligned) accessed zero-copy through
  ``memoryview.cast('q')`` — membership probes bisect the id column and
  pure-temporal queries mask the endpoint columns, neither touching a
  single postings block.
* The **descriptions blob** (id → frozenset of elements, pickled like the
  snapshot format — elements are arbitrary hashables, not JSON values —
  then deflated: it is a third of a v1 segment and shrinks to a third) is
  decoded only at promotion time, never on the query path.
* The **directory** is the small pickled rest: identity, the regions
  above, and ``element → (first_row, n_rows)`` into the block table.

The footer makes the file self-locating without a seek-back during the
write (single forward pass through the fsio seam).  Damage surfaces as
one typed error: :class:`~repro.core.errors.CorruptSegmentError` for the
envelope (magic, footer bounds, directory or block-table checksum,
unpickling), :class:`~repro.core.errors.CorruptPostingsError` for a torn
block — mirroring the WAL / snapshot discipline.

**Format v1** (magic ``RSEG\\x00\\x01``) had no block table: its pickled
directory held a list of ``(offset, length, crc32) ‖ summary`` 8-tuples
per element, its blocks are varint streams and its descriptions blob is
a bare pickle.  Nothing writes it any more, but a v1 segment is the only
copy of its shard's data, so :func:`read_directory` turns a v1 directory
into the v2 shape and :func:`unpack_descriptions` reads either blob
(this module is the one place that tells the two apart;
:mod:`repro.ir.codec` does the same for block payloads) and everything
above reads both alike.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.errors import CorruptSegmentError
from repro.core.model import Element

#: Segment files live under ``<cluster>/segments/<shard_id>`` + this.
SEGMENT_SUFFIX = ".seg"

#: Current format version: the last byte of the magic, and the version
#: stored inside the pickled directory.
FORMAT_VERSION = 2

#: Trailing magic: the last bytes of every well-formed segment.
_MAGIC_PREFIX = b"RSEG\x00"
MAGIC = _MAGIC_PREFIX + bytes([FORMAT_VERSION])

#: Footer layout: ``dir_offset u64 ‖ dir_length u64 ‖ dir_crc32 u32 ‖ magic``.
FOOTER_STRUCT = struct.Struct("<QQI6s")
FOOTER_SIZE = FOOTER_STRUCT.size

#: One postings block's row of the block table:
#: ``(offset, length, crc32, min_id, max_id, min_st, max_end, count)``.
BlockDescriptor = Tuple[int, int, int, int, int, int, int, int]
_DESCRIPTOR_FIELDS = 8


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
    #: element → ``(first_row, n_rows)``: its blocks' rows of the block
    #: table, ascending id ranges.
    terms: Dict[Element, Tuple[int, int]]
    #: ``(offset, n_blocks, crc32)`` of the block table.
    block_table: Tuple[int, int, int]
    #: ``(ids_offset, sts_offset, ends_offset, n)`` — i64 column regions.
    catalog: Tuple[int, int, int, int]
    #: ``(offset, length, crc32)`` of the id → description blob.
    descriptions: Tuple[int, int, int]
    #: ``(min_st, max_end)`` over all objects; ``None`` for empty shards.
    span: Optional[Tuple[int, int]]
    version: int = FORMAT_VERSION


def pack_block_table(descriptors: List[BlockDescriptor]) -> bytes:
    """The block table's bytes: eight i64 columns, one value per block."""
    rows = np.array(descriptors, dtype="<i8").reshape(-1, _DESCRIPTOR_FIELDS)
    return rows.T.tobytes()


def pack_descriptions(descriptions: Dict[int, FrozenSet[Element]]) -> bytes:
    """The descriptions blob: the pickled map, deflated (fastest level:
    it already gets most of what the repeated element references give)."""
    return zlib.compress(pickle.dumps(descriptions, protocol=pickle.HIGHEST_PROTOCOL), 1)


def unpack_descriptions(
    directory: SegmentDirectory, blob: bytes, path: str
) -> Dict[int, FrozenSet[Element]]:
    """Verify and decode the descriptions blob of either format."""
    if zlib.crc32(blob) != directory.descriptions[2]:
        raise CorruptSegmentError(f"{path}: descriptions blob fails its checksum")
    try:
        return pickle.loads(blob if directory.version == 1 else zlib.decompress(blob))
    except Exception as exc:
        raise CorruptSegmentError(
            f"{path}: descriptions blob does not decode: {exc}"
        ) from exc


def pack_directory(directory: SegmentDirectory) -> bytes:
    """Pickle the directory (the footer carries its CRC32)."""
    return pickle.dumps(directory, protocol=pickle.HIGHEST_PROTOCOL)


def build_footer(dir_offset: int, dir_blob: bytes) -> bytes:
    """The self-locating footer for a directory written at ``dir_offset``."""
    return FOOTER_STRUCT.pack(
        dir_offset, len(dir_blob), zlib.crc32(dir_blob), MAGIC
    )


def parse_footer(buffer: bytes, path: str) -> Tuple[int, int, int, int]:
    """``(dir_offset, dir_length, dir_crc, version)`` from a segment's
    tail bytes.

    Raises :class:`CorruptSegmentError` when the file is too short, the
    magic is not one this build reads, or the directory bounds fall
    outside the file.
    """
    if len(buffer) < FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: {len(buffer)} bytes is too short to be a segment"
        )
    dir_offset, dir_length, dir_crc, magic = FOOTER_STRUCT.unpack(
        buffer[-FOOTER_SIZE:]
    )
    version = magic[-1]
    if not magic.startswith(_MAGIC_PREFIX) or not 1 <= version <= FORMAT_VERSION:
        raise CorruptSegmentError(f"{path}: bad segment magic {magic!r}")
    if dir_offset + dir_length > len(buffer) - FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: directory [{dir_offset}, {dir_offset + dir_length}) "
            f"runs past the body"
        )
    return dir_offset, dir_length, dir_crc, version


def read_directory(view: memoryview, path: str) -> Tuple[SegmentDirectory, np.ndarray]:
    """Validate an open segment's envelope: its directory, in the v2
    shape whichever format the file has, and its block table — an int64
    array of one *row per descriptor field*, one column per block, that
    owns its memory (no view of ``view`` outlives this call).

    Raises :class:`CorruptSegmentError` on any damage.
    """
    dir_offset, dir_length, dir_crc, version = parse_footer(view, path)
    blob = bytes(view[dir_offset : dir_offset + dir_length])
    if zlib.crc32(blob) != dir_crc:
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
    if directory.version != version:
        raise CorruptSegmentError(
            f"{path}: directory of format version {directory.version} "
            f"under a version-{version} magic"
        )
    if version == 1:
        return directory, _adopt_v1(directory, path)
    offset, n_blocks, crc = directory.block_table
    stop = offset + 8 * _DESCRIPTOR_FIELDS * n_blocks
    if not 0 <= offset <= stop <= dir_offset:
        raise CorruptSegmentError(
            f"{path}: block table of {n_blocks} blocks at {offset} runs past the body"
        )
    # Slices of the mapping stay unnamed: one kept alive (by a traceback,
    # say) would make closing the mapping fail.
    if zlib.crc32(view[offset:stop]) != crc:
        raise CorruptSegmentError(f"{path}: block table checksum mismatch")
    table = np.frombuffer(view[offset:stop], dtype="<i8").astype(np.int64)  # a copy
    return directory, table.reshape(_DESCRIPTOR_FIELDS, n_blocks)


def _adopt_v1(directory: SegmentDirectory, path: str) -> np.ndarray:
    """Give a v1 directory — ``terms`` mapping each element to its list of
    descriptor 8-tuples, plus a redundant ``term_counts`` — the v2 shape,
    and return the block table those descriptors make (built here, per
    block: what a v1 open always cost)."""
    terms: Dict[Element, Tuple[int, int]] = {}
    descriptors: List[BlockDescriptor] = []
    try:
        for element, blocks in directory.terms.items():
            terms[element] = (len(descriptors), len(blocks))
            descriptors += blocks
        table = np.array(descriptors, dtype=np.int64).reshape(-1, _DESCRIPTOR_FIELDS)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptSegmentError(
            f"{path}: v1 segment directory is malformed: {exc}"
        ) from exc
    directory.terms = terms
    directory.block_table = (0, len(descriptors), 0)  # no region in a v1 body
    vars(directory).pop("term_counts", None)
    return np.ascontiguousarray(table.T)


def align8(offset: int) -> int:
    """The next 8-byte-aligned offset (i64 columns want natural alignment)."""
    return (offset + 7) & ~7
