"""Saving and loading built indexes.

Building an index over a large collection is the expensive step (Table 5);
archives that restart frequently want to pay it once.  This module
persists any :class:`~repro.indexes.base.TemporalIRIndex` to disk and
restores it byte-for-byte.

Format v2: a small JSON header (magic, format version, library version,
index class, payload length and CRC32) followed by a pickle of the index
object.  The header lets :func:`load_index` fail with a clear error on
foreign files or version-incompatible snapshots *before* unpickling
anything, and the checksum detects torn writes and bit rot.  Snapshots are
written through the :mod:`repro.service.fsio` seam (temp file → fsync →
rename → directory fsync) so a crash mid-save never clobbers the previous
snapshot.  Format v1 files (no
checksum) written by earlier releases still load.

Security note (the standard pickle caveat): only load snapshots you wrote.
The header check guards against accidents, not adversaries.
"""

from __future__ import annotations

import json
import pickle
import zlib
from pathlib import Path
from typing import Optional, Union

import repro
from repro.core.errors import CorruptSnapshotError, ReproError
from repro.indexes.base import TemporalIRIndex

PathLike = Union[str, Path]

_MAGIC = b"RPROIDX1"
_FORMAT_VERSION = 2
_SUPPORTED_FORMATS = (1, 2)
_LEN_BYTES = 4
#: Largest header we will ever read; anything bigger means a corrupt
#: length field, not a real header.
_MAX_HEADER_BYTES = 1 << 20


def _header_for(index: TemporalIRIndex, payload: bytes) -> dict:
    return {
        "format": _FORMAT_VERSION,
        "library": repro.__version__,
        "index_class": type(index).__name__,
        "index_name": index.name,
        "objects": len(index),
        "payload_bytes": len(payload),
        "payload_crc32": zlib.crc32(payload),
    }


def dumps_index(index: TemporalIRIndex, extra_header: Optional[dict] = None) -> bytes:
    """Serialise an index to a self-validating snapshot blob.

    ``extra_header`` lets callers stamp JSON-serialisable metadata into
    the header (the durable store records the last WAL sequence number a
    snapshot captures); reserved keys are not overridable.
    """
    if not isinstance(index, TemporalIRIndex):
        raise ReproError(f"save_index expects a TemporalIRIndex, got {type(index).__name__}")
    payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    header = dict(extra_header or {})
    header.update(_header_for(index, payload))
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        (_MAGIC, len(header_bytes).to_bytes(_LEN_BYTES, "little"), header_bytes, payload)
    )


def save_index(index: TemporalIRIndex, path: PathLike) -> None:
    """Snapshot a built index (structure, catalog and dictionary included).

    The write is atomic and durable (:meth:`FileSystem.atomic_write`):
    readers either see the old snapshot or the complete new one — never a
    torn mix — and the rename itself survives a crash.
    """
    # Imported here: the service package imports this module for snapshots.
    from repro.service.fsio import REAL_FS

    blob = dumps_index(index)  # validates the index type before touching disk
    REAL_FS.atomic_write(path, blob)


def _parse_header(blob: bytes, context: str) -> tuple[dict, int]:
    """Validate magic + header of a snapshot blob.

    Returns ``(header, payload_offset)``; raises
    :class:`CorruptSnapshotError` on any structural damage.
    """
    if len(blob) < len(_MAGIC):
        raise CorruptSnapshotError(f"{context}: truncated snapshot (no magic)")
    if not blob.startswith(_MAGIC):
        raise CorruptSnapshotError(f"{context}: not a repro index snapshot (bad magic)")
    length_end = len(_MAGIC) + _LEN_BYTES
    if len(blob) < length_end:
        raise CorruptSnapshotError(f"{context}: truncated snapshot (no header length)")
    length = int.from_bytes(blob[len(_MAGIC) : length_end], "little")
    if length > _MAX_HEADER_BYTES:
        raise CorruptSnapshotError(
            f"{context}: corrupt snapshot header: implausible length {length}"
        )
    header_end = length_end + length
    if len(blob) < header_end:
        raise CorruptSnapshotError(f"{context}: truncated snapshot header")
    try:
        header = json.loads(blob[length_end:header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(f"{context}: corrupt snapshot header: {exc}") from exc
    if not isinstance(header, dict):
        raise CorruptSnapshotError(f"{context}: corrupt snapshot header: not an object")
    return header, header_end


def read_header(path: PathLike) -> dict:
    """The snapshot's header (cheap: no unpickling, no payload read)."""
    with open(path, "rb") as handle:
        prefix = handle.read(len(_MAGIC) + _LEN_BYTES + _MAX_HEADER_BYTES)
    header, _offset = _parse_header(prefix, str(path))
    return header


def loads_index(blob: bytes, context: str = "snapshot") -> TemporalIRIndex:
    """Inverse of :func:`dumps_index`, verifying integrity end to end."""
    header, offset = _parse_header(blob, context)
    fmt = header.get("format")
    if fmt not in _SUPPORTED_FORMATS:
        raise ReproError(
            f"{context}: snapshot format {fmt} unsupported "
            f"(this library reads {', '.join(map(str, _SUPPORTED_FORMATS))})"
        )
    payload = blob[offset:]
    if fmt >= 2:
        expected_len = header.get("payload_bytes")
        if expected_len != len(payload):
            raise CorruptSnapshotError(
                f"{context}: truncated snapshot payload "
                f"({len(payload)} bytes, header says {expected_len})"
            )
        expected_crc = header.get("payload_crc32")
        if zlib.crc32(payload) != expected_crc:
            raise CorruptSnapshotError(f"{context}: snapshot payload checksum mismatch")
    try:
        index = pickle.loads(payload)
    except Exception as exc:  # bit rot in a v1 payload surfaces here
        raise CorruptSnapshotError(f"{context}: snapshot payload unreadable: {exc}") from exc
    if not isinstance(index, TemporalIRIndex):
        raise CorruptSnapshotError(f"{context}: snapshot did not contain an index")
    return index


def load_index(path: PathLike) -> TemporalIRIndex:
    """Restore a snapshot written by :func:`save_index` (v1 or v2)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return loads_index(blob, context=str(path))
