"""The immutable cold-segment file format, v4: the one this build reads.

One segment holds one demoted shard::

    [ rows | catalog columns | term table ]                        body
    [ JSON header ]                                                directory
    [ dir_offset u64 | dir_length u64 | dir_crc32 u32 | magic ]    footer

* The **rows** column is the postings: one little-endian i32 per entry,
  the catalog row of an object that holds the term, each term's rows
  strictly ascending, the terms back to back in encoded-key order (the
  term table's order).  A term's postings are a run of this column, read
  in place: no codec, no per-read checksum.
* **Catalog columns** are three raw little-endian i64 arrays (ids, sts,
  ends; sorted by id, 8-byte aligned).  A row names an object through
  them, so a term's ``t_st``/``t_end`` are one gather, membership probes
  search the id column and pure-temporal queries mask the endpoints.
* The **term table** is two columns: ``offsets``, ``n_terms + 1`` i64
  (term *i* owns rows ``[offsets[i], offsets[i + 1])`` of the rows
  column), then the sorted element keys as one fixed-width
  ``S{key_width}`` column in :func:`encode_key`'s typed encoding.  A
  reader copies both out of the mapping and finds an element with one
  ``np.searchsorted`` (:class:`TermTable`); nothing is built per term at
  open.  An object's description is the set of terms whose runs hold its
  row, so a segment stores no descriptions of its own.
* The **header** is JSON — identity (shard id, index key and params),
  object count and span, the term table's shape, and ``(offset, length,
  crc32)`` of every region above.  Nothing in a segment is pickled.

The footer makes the file self-locating without a seek-back during the
write (single forward pass through the fsio seam).  Every check runs at
open and fails as :class:`~repro.core.errors.CorruptSegmentError`: the
magic, the footer bounds, a header that does not parse or has a missing
or wrong-typed field, a region out of bounds or failing its CRC32, and
the columns' structure — the offsets partition the rows column into
non-empty runs, every row lies in ``[0, count)`` and ascends strictly
within its term, the ids ascend strictly and every ``t_st <= t_end``.  A
segment that opens reads no row outside its catalog and no run outside
its column.

**Formats v1 to v3** (magic ``RSEG\\x00\\x01`` to ``RSEG\\x00\\x03``) kept
the postings as encoded id-ordered blocks behind a block table, and each
object's description in a pickled blob (v1 and v2 also a pickled
directory).  Only earlier commits of this repository wrote them, and
:func:`parse_footer` refuses them by their magic, naming their format,
before anything is read: rebuild the shard from its source collection.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.errors import CorruptSegmentError
from repro.core.model import Element

#: Segment files live under ``<cluster>/segments/<shard_id>`` + this.
SEGMENT_SUFFIX = ".seg"

#: Current format version: the last byte of the magic, and the version
#: stored in the header.
FORMAT_VERSION = 4

#: Trailing magic: the last bytes of every well-formed segment.
_MAGIC_PREFIX = b"RSEG\x00"
MAGIC = _MAGIC_PREFIX + bytes([FORMAT_VERSION])

#: Footer layout: ``dir_offset u64 ‖ dir_length u64 ‖ dir_crc32 u32 ‖ magic``.
FOOTER_STRUCT = struct.Struct("<QQI6s")
FOOTER_SIZE = FOOTER_STRUCT.size

#: The rows column's element type, and so the largest shard a segment holds.
ROW_DTYPE = "<i4"
MAX_ROWS = (1 << 31) - 1


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
    """A segment's terms: ``element → (start, stop)`` of the rows column,
    answering ``get`` / ``len`` / iteration.  Both columns are copies of
    the mapping (nothing here pins it), and a lookup is one
    ``np.searchsorted`` of the encoded key."""

    __slots__ = ("_keys", "_offsets")

    def __init__(self, keys: np.ndarray, offsets: np.ndarray) -> None:
        self._keys = keys
        self._offsets = offsets

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
        return self._offsets.item(i), self._offsets.item(i + 1)

    def __iter__(self) -> Iterator[Element]:
        return (decode_key(bytes(key)) for key in self._keys)

    def runs(self) -> Iterator[Tuple[Element, int, int]]:
        """``(element, start, stop)`` per term, each key decoded once."""
        return zip(self, self._offsets[:-1].tolist(), self._offsets[1:].tolist())


# ---------------------------------------------------------------- directory
@dataclass
class SegmentDirectory:
    """Everything a reader needs that is not raw column bytes: the header,
    parsed and checked by :func:`read_directory`."""

    shard_id: str
    index_key: str
    index_params: Dict[str, object]
    count: int
    #: element → ``(start, stop)`` of the rows column.
    terms: TermTable
    #: ``(offset, n_rows)`` — the i32 rows column.
    rows: Tuple[int, int]
    #: ``(ids_offset, sts_offset, ends_offset, n)`` — i64 column regions.
    catalog: Tuple[int, int, int, int]
    #: ``(min_st, max_end)`` over all objects; ``None`` for empty shards.
    span: Optional[Tuple[int, int]]


def _count(value: object) -> bool:
    return type(value) is int and value >= 0


def _region(value: object) -> bool:
    return type(value) is list and len(value) == 3 and all(map(_count, value))


#: Every v4 header field and what makes it well-typed.
_HEADER_FIELDS: Dict[str, Callable[[object], bool]] = {
    "version": lambda value: value == FORMAT_VERSION and type(value) is int,
    "shard_id": lambda value: type(value) is str,
    "index_key": lambda value: type(value) is str,
    "index_params": lambda value: type(value) is dict,
    "count": lambda value: _count(value) and value <= MAX_ROWS,
    "span": lambda value: value is None or (
        type(value) is list and len(value) == 2 and all(type(v) is int for v in value)
    ),
    "n_terms": _count,
    "key_width": lambda value: _count(value) and value > 0,
    "terms": _region,
    "rows": _region,
    "catalog": _region,
}


def pack_header(header: Dict[str, object]) -> bytes:
    """A header's bytes: canonical JSON (the footer carries its CRC32)."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


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


def read_directory(view: memoryview, path: str) -> SegmentDirectory:
    """Validate an open segment: its directory, every region's bounds and
    CRC32, and the columns' structure (the module docstring lists the
    checks).  The term table it returns owns its memory; no view of
    ``view`` outlives this call.

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
        "rows": header["rows"][1] % 4 == 0,
        "catalog": header["catalog"][1] == 24 * count,
        "terms": header["terms"][1] == 8 * (n_terms + 1) + width * n_terms,
    }
    for name, fits in sizes.items():
        if not fits:
            raise CorruptSegmentError(
                f"{path}: {name} region of {header[name][1]} bytes does not fit "
                f"{count} objects, {n_terms} terms of width {width}"
            )
    _checked(view, "rows column", *header["rows"], dir_offset, path)
    _checked(view, "catalog columns", *header["catalog"], dir_offset, path)
    _checked(view, "term table", *header["terms"], dir_offset, path)
    offset = header["terms"][0]
    keys_offset = offset + 8 * (n_terms + 1)
    offsets = np.frombuffer(view[offset:keys_offset], dtype="<i8").astype(np.int64)
    keys = np.frombuffer(
        view[keys_offset : keys_offset + width * n_terms], dtype=f"S{width}"
    ).copy()
    rows = (header["rows"][0], header["rows"][1] // 4)
    ids = header["catalog"][0]
    catalog = (ids, ids + 8 * count, ids + 16 * count, count)
    # The fault is named here, after every view the check made is gone: a
    # traceback holding one would keep the mapping from closing.
    fault = _structure_fault(view, rows, catalog, offsets)
    if fault is not None:
        raise CorruptSegmentError(f"{path}: {fault}")
    span = header["span"]
    return SegmentDirectory(
        shard_id=header["shard_id"],
        index_key=header["index_key"],
        index_params=header["index_params"],
        count=count,
        terms=TermTable(keys, offsets),
        rows=rows,
        catalog=catalog,
        span=None if span is None else (span[0], span[1]),
    )


def _structure_fault(
    view: memoryview,
    rows_at: Tuple[int, int],
    catalog: Tuple[int, int, int, int],
    offsets: np.ndarray,
) -> Optional[str]:
    """What is wrong with the checksummed columns' content, or ``None``."""
    n_rows = rows_at[1]
    if offsets[0] != 0 or offsets[-1] != n_rows or (offsets[1:] <= offsets[:-1]).any():
        return f"term offsets do not partition the {n_rows}-entry rows column"
    ids_at, sts_at, ends_at, count = catalog
    rows = np.frombuffer(view, dtype=ROW_DTYPE, count=n_rows, offset=rows_at[0])
    if n_rows and (rows.min() < 0 or rows.max() >= count):
        return f"a row lies outside the {count}-object catalog"
    descents = rows[1:] <= rows[:-1]
    descents[offsets[1:-1] - 1] = False  # a term's first row may lie below its predecessor's last
    if descents.any():
        return "a term's rows do not ascend"
    ids, sts, ends = (
        np.frombuffer(view, dtype="<i8", count=count, offset=at) for at in (ids_at, sts_at, ends_at)
    )
    if (ids[1:] <= ids[:-1]).any():
        return "catalog ids do not ascend"
    if (sts > ends).any():
        return "a catalog interval ends before it starts"
    return None


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
