"""The immutable cold-segment file format, v3: the one this build reads.

One segment holds one demoted shard::

    [ postings blocks | block table | catalog columns | term table | descriptions ]  body
    [ JSON header ]                                                                 directory
    [ dir_offset u64 | dir_length u64 | dir_crc32 u32 | magic ]                     footer

* **Postings blocks** are the :func:`repro.ir.codec.encode_block` payload
  of :data:`~repro.ir.blocks.BLOCK_SIZE`-entry id-sorted runs, one run
  sequence per dictionary element, the elements' runs back to back in
  encoded-key order (the term table's order).
* The **block table** describes them: eight little-endian i64 columns
  (8-byte aligned, one value per block each) — ``offset``, ``length``,
  ``crc32`` of the payload, then the ``(min_id, max_id, min_st, max_end,
  count)`` skip summary.  A reader copies the table out of the mapping
  with one ``memcpy`` and parses nothing per block; an element's
  postings are a run of its rows, and only the blocks a query can touch
  are decoded.
* **Catalog columns** are three raw little-endian i64 arrays (ids, sts,
  ends; sorted by id, 8-byte aligned) accessed zero-copy through
  ``memoryview.cast('q')`` — membership probes bisect the id column and
  pure-temporal queries mask the endpoint columns, neither touching a
  single postings block.
* The **term table** is two columns: ``first_row``, ``n_terms + 1`` i64
  (term *i* owns block-table rows ``[first_row[i], first_row[i + 1])``),
  then the sorted element keys as one fixed-width ``S{key_width}``
  column in :func:`encode_key`'s typed encoding.  A reader copies both
  out of the mapping and finds an element with one ``np.searchsorted``
  (:class:`TermTable`); nothing is built per term at open.
* The **descriptions blob** (id → frozenset of elements, pickled like the
  snapshot format, then deflated) is decoded only at promotion time,
  never on the query path.
* The **header** is JSON — identity (shard id, index key and params),
  object count and span, the term table's shape, and ``(offset, length,
  crc32)`` of every region above.  Nothing on an open unpickles.

The footer makes the file self-locating without a seek-back during the
write (single forward pass through the fsio seam).  Damage surfaces as
one typed error: :class:`~repro.core.errors.CorruptSegmentError` for the
envelope (magic, footer bounds, a header that does not parse or has a
missing or wrong-typed field, a region out of bounds, and the checksums
of the header, term table, block table and catalog columns — all checked
at open), :class:`~repro.core.errors.CorruptPostingsError` for a torn
block — mirroring the WAL / snapshot discipline.

**Formats v1 and v2** (magic ``RSEG\\x00\\x01`` / ``RSEG\\x00\\x02``) kept
a pickled directory where v3 keeps its header.  Only earlier commits of
this repository wrote them, and :func:`parse_footer` refuses them by
their magic, naming their format, before anything is read or unpickled:
rebuild the shard from its source collection.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.errors import CorruptSegmentError
from repro.core.model import Element

#: Segment files live under ``<cluster>/segments/<shard_id>`` + this.
SEGMENT_SUFFIX = ".seg"

#: Current format version: the last byte of the magic, and the version
#: stored in the header.
FORMAT_VERSION = 3

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


# ---------------------------------------------------------------- term keys
def _encode(element: object) -> Optional[Tuple[bytes, bytes]]:
    """``(body, tag)``; a tuple's body is its items back to back, each
    ``decimal length ‖ ":" ‖ body ‖ tag``."""
    if isinstance(element, str):
        return element.encode("utf-8", "surrogatepass"), b"s"
    if isinstance(element, bytes):
        return bytes(element), b"b"
    if isinstance(element, int) and not isinstance(element, bool):
        return b"%d" % element, b"i"
    if isinstance(element, tuple):
        items = [_encode(item) for item in element]
        if None in items:
            return None
        return b"".join(
            b"%d:%s%s" % (len(body), body, tag) for body, tag in items  # type: ignore[misc]
        ), b"t"
    return None


def encode_key(element: object) -> Optional[bytes]:
    """An element's term-table key — its body, then a one-byte type tag —
    or ``None`` when its type has no encoding (only ``str``, ``int`` — not
    ``bool`` — ``bytes`` and tuples of those do).  The tag comes last
    because numpy strips trailing NULs from ``S`` values: a key ending in
    a non-NUL byte survives that unchanged."""
    try:
        encoded = _encode(element)
    except (RecursionError, ValueError):  # absurd nesting; int past str()'s limit
        return None
    return None if encoded is None else encoded[0] + encoded[1]


def _decode(body: bytes, tag: bytes) -> Element:
    if tag == b"s":
        return body.decode("utf-8", "surrogatepass")
    if tag == b"b":
        return body
    if tag == b"i":
        return int(body)
    if tag != b"t":
        raise ValueError(f"unknown tag {tag!r}")
    items, at = [], 0
    while at < len(body):
        colon = body.index(b":", at)
        if not body[at:colon].isdigit():
            raise ValueError("tuple item without a length")
        stop = colon + 1 + int(body[at:colon])
        if stop >= len(body):
            raise ValueError("tuple item runs past the tuple")
        items.append(_decode(body[colon + 1 : stop], body[stop : stop + 1]))
        at = stop + 1
    return tuple(items)


def decode_key(raw: bytes) -> Element:
    """The element :func:`encode_key` encoded as ``raw``."""
    try:
        return _decode(raw[:-1], raw[-1:])
    except (ValueError, RecursionError) as exc:
        raise CorruptSegmentError(f"term key {raw!r} does not decode: {exc}") from exc


class TermTable:
    """A segment's terms: ``element → (first_row, n_rows)`` of the block
    table, answering ``get`` / ``len`` / iteration.  Both columns are
    copies of the mapping (nothing here pins it), and a lookup is one
    ``np.searchsorted`` of the encoded key."""

    __slots__ = ("_keys", "_first_row")

    def __init__(self, keys: np.ndarray, first_row: np.ndarray) -> None:
        self._keys = keys
        self._first_row = first_row

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, element: Element) -> Optional[Tuple[int, int]]:
        key = encode_key(element)
        keys = self._keys
        if key is None or len(key) > keys.itemsize:
            return None
        i = keys.searchsorted(key)  # the method: half np.searchsorted's call cost
        if i == len(keys) or keys[i] != key:
            return None
        first = self._first_row.item(i)
        return first, self._first_row.item(i + 1) - first

    def __iter__(self) -> Iterator[Element]:
        return (decode_key(bytes(key)) for key in self._keys)


# ---------------------------------------------------------------- directory
@dataclass
class SegmentDirectory:
    """Everything a reader needs that is not raw block/column bytes: the
    header, parsed and checked by :func:`read_directory`."""

    shard_id: str
    index_key: str
    index_params: Dict[str, object]
    count: int
    #: element → ``(first_row, n_rows)``: its blocks' rows of the block
    #: table, ascending id ranges.
    terms: TermTable
    #: ``(offset, n_blocks, crc32)`` of the block table.
    block_table: Tuple[int, int, int]
    #: ``(ids_offset, sts_offset, ends_offset, n)`` — i64 column regions.
    catalog: Tuple[int, int, int, int]
    #: ``(offset, length, crc32)`` of the id → description blob.
    descriptions: Tuple[int, int, int]
    #: ``(min_st, max_end)`` over all objects; ``None`` for empty shards.
    span: Optional[Tuple[int, int]]


def _count(value: object) -> bool:
    return type(value) is int and value >= 0


def _region(value: object) -> bool:
    return type(value) is list and len(value) == 3 and all(map(_count, value))


#: Every v3 header field and what makes it well-typed.
_HEADER_FIELDS: Dict[str, Callable[[object], bool]] = {
    "version": lambda value: value == FORMAT_VERSION and type(value) is int,
    "shard_id": lambda value: type(value) is str,
    "index_key": lambda value: type(value) is str,
    "index_params": lambda value: type(value) is dict,
    "count": _count,
    "span": lambda value: value is None or (
        type(value) is list and len(value) == 2 and all(type(v) is int for v in value)
    ),
    "n_terms": _count,
    "key_width": lambda value: _count(value) and value > 0,
    "terms": _region,
    "block_table": _region,
    "catalog": _region,
    "descriptions": _region,
}


def pack_header(header: Dict[str, object]) -> bytes:
    """A header's bytes: canonical JSON (the footer carries its CRC32)."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


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
    """Verify and decode the descriptions blob."""
    if zlib.crc32(blob) != directory.descriptions[2]:
        raise CorruptSegmentError(f"{path}: descriptions blob fails its checksum")
    try:
        return pickle.loads(zlib.decompress(blob))
    except MemoryError:  # not damage: the bytes passed their checksum
        raise
    except Exception as exc:
        raise CorruptSegmentError(
            f"{path}: descriptions blob does not decode: {exc}"
        ) from exc


def build_footer(dir_offset: int, dir_blob: bytes) -> bytes:
    """The self-locating footer for a directory written at ``dir_offset``."""
    return FOOTER_STRUCT.pack(
        dir_offset, len(dir_blob), zlib.crc32(dir_blob), MAGIC
    )


def parse_footer(buffer: bytes, path: str) -> Tuple[int, int, int]:
    """``(dir_offset, dir_length, dir_crc)`` from a segment's tail bytes.

    Raises :class:`CorruptSegmentError` when the file is too short, the
    magic is not a segment's or names a format this build does not read,
    or the directory bounds fall outside the file.
    """
    if len(buffer) < FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: {len(buffer)} bytes is too short to be a segment"
        )
    dir_offset, dir_length, dir_crc, magic = FOOTER_STRUCT.unpack(
        buffer[-FOOTER_SIZE:]
    )
    if not magic.startswith(_MAGIC_PREFIX):
        raise CorruptSegmentError(f"{path}: bad segment magic {magic!r}")
    if magic != MAGIC:
        raise CorruptSegmentError(
            f"{path}: segment format {magic[-1]} unsupported (this build reads "
            f"{FORMAT_VERSION}); rebuild the shard from its source collection"
        )
    if dir_offset + dir_length > len(buffer) - FOOTER_SIZE:
        raise CorruptSegmentError(
            f"{path}: directory [{dir_offset}, {dir_offset + dir_length}) "
            f"runs past the body"
        )
    return dir_offset, dir_length, dir_crc


def read_directory(view: memoryview, path: str) -> Tuple[SegmentDirectory, np.ndarray]:
    """Validate an open segment's envelope: its directory, and its block
    table — an int64 array of one *row per descriptor field*, one column
    per block, that owns its memory (no view of ``view`` outlives this
    call).  Every header field is typed and every region bounded and
    CRC-checked before anything is sliced.

    Raises :class:`CorruptSegmentError` on any damage.
    """
    dir_offset, dir_length, dir_crc = parse_footer(view, path)
    blob = bytes(view[dir_offset : dir_offset + dir_length])
    if zlib.crc32(blob) != dir_crc:
        raise CorruptSegmentError(f"{path}: segment directory checksum mismatch")
    try:
        header = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise CorruptSegmentError(f"{path}: segment header is not JSON: {exc}") from exc
    if type(header) is not dict:
        raise CorruptSegmentError(f"{path}: segment header is not a JSON object")
    for name, valid in _HEADER_FIELDS.items():
        if name not in header or not valid(header[name]):
            raise CorruptSegmentError(
                f"{path}: segment header field {name!r} is missing or malformed "
                f"({header.get(name)!r})"
            )
    count, n_terms, width = header["count"], header["n_terms"], header["key_width"]
    sizes = {
        "block_table": header["block_table"][1] % (8 * _DESCRIPTOR_FIELDS) == 0,
        "catalog": header["catalog"][1] == 24 * count,
        "terms": header["terms"][1] == 8 * (n_terms + 1) + width * n_terms,
    }
    for name, fits in sizes.items():
        if not fits:
            raise CorruptSegmentError(
                f"{path}: {name} region of {header[name][1]} bytes does not fit "
                f"{count} objects, {n_terms} terms of width {width}"
            )
    offset, length, crc = header["block_table"]
    _checked(view, "block table", offset, length, crc, dir_offset, path)
    table = np.frombuffer(view[offset : offset + length], dtype="<i8").astype(np.int64)  # a copy
    table = table.reshape(_DESCRIPTOR_FIELDS, -1)
    _checked(view, "catalog columns", *header["catalog"], dir_offset, path)
    _checked(view, "term table", *header["terms"], dir_offset, path)
    offset = header["terms"][0]
    keys_offset = offset + 8 * (n_terms + 1)
    first_row = np.frombuffer(view[offset:keys_offset], dtype="<i8").astype(np.int64)
    keys = np.frombuffer(
        view[keys_offset : keys_offset + width * n_terms], dtype=f"S{width}"
    ).copy()
    n_blocks = table.shape[1]
    if first_row[0] != 0 or first_row[-1] != n_blocks or (first_row[1:] <= first_row[:-1]).any():
        raise CorruptSegmentError(
            f"{path}: term table rows do not partition the {n_blocks}-block table"
        )
    ids = header["catalog"][0]
    span = header["span"]
    directory = SegmentDirectory(
        shard_id=header["shard_id"],
        index_key=header["index_key"],
        index_params=header["index_params"],
        count=count,
        terms=TermTable(keys, first_row),
        block_table=(header["block_table"][0], n_blocks, header["block_table"][2]),
        catalog=(ids, ids + 8 * count, ids + 16 * count, count),
        descriptions=tuple(header["descriptions"]),  # type: ignore[arg-type]
        span=None if span is None else (span[0], span[1]),
    )
    return directory, table


def _checked(
    view: memoryview, name: str, offset: int, length: int, crc: int, dir_offset: int, path: str
) -> None:
    """Bounds and CRC32 of one body region."""
    if not 0 <= offset <= offset + length <= dir_offset:
        raise CorruptSegmentError(
            f"{path}: {name} [{offset}, {offset + length}) runs past the body"
        )
    # Slices of the mapping stay unnamed: one kept alive (by a traceback,
    # say) would make closing the mapping fail.
    if zlib.crc32(view[offset : offset + length]) != crc:
        raise CorruptSegmentError(f"{path}: {name} checksum mismatch")


def align8(offset: int) -> int:
    """The next 8-byte-aligned offset (i64 columns want natural alignment)."""
    return (offset + 7) & ~7
