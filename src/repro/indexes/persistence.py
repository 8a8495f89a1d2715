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

Snapshots pickle postings classes: lists of the previous release's ``list``
and ``compressed`` layouts load as plain :class:`~repro.ir.packed.PackedPostingsList`,
tombstones kept, so an old store moves to packed at its next checkpoint.
An index stored on the retired per-division HINT classes (``Partition``,
``SubArray``, ``IdPostingsList``), and an irHINT-perf stored as a tIF
(``_tif``) beside its own verdicts, are rebuilt from their own catalogs,
with the parameters they were built with.

Security note (the standard pickle caveat): only load snapshots you wrote.
The header check guards against accidents, not adversaries.
"""

from __future__ import annotations

import gc
import io
import json
import pickle
import zlib
from pathlib import Path
from typing import Optional, Union

import repro
from repro.core.collection import Collection
from repro.core.errors import CorruptSnapshotError, ReproError
from repro.indexes.base import TemporalIRIndex
from repro.indexes.irhint import IRHintPerformance
from repro.ir import postings
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import PackedPostingsList

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


def _int_field(header: dict, field: str, context: str) -> int:
    """``header[field]``, which must be an int: JSON ``true`` == 1 and
    ``2.0`` == 2, so an equality check alone would let them through."""
    value = header.get(field)
    if type(value) is not int:
        raise CorruptSnapshotError(
            f"{context}: corrupt snapshot header: {field} is {value!r}, not an integer"
        )
    return value


def _packed_list(entries, dead) -> PackedPostingsList:
    packed = PackedPostingsList()
    for entry in entries:
        packed.add(*entry)
    for object_id in dead:
        packed.delete(object_id)
    return packed


class _Migrated(PackedPostingsList):
    """A list of the previous release's ``list`` or ``compressed`` layout,
    turned into a plain packed list as it unpickles."""

    __slots__ = ()

    def __setstate__(self, state) -> None:
        slots = state[1]
        if "_alive" in slots:  # the list backend's boxed columns
            ids = slots["_ids"]
            dead = [oid for oid, alive in zip(ids, slots["_alive"]) if not alive]
            packed = _packed_list(zip(ids, slots["_sts"], slots["_ends"]), dead)
        else:
            source = object.__new__(CompressedPostingsList)
            for name, value in slots.items():
                setattr(source, name, value)  # an older shape fails here, typed
            spilled = source._spilled  # a list-backend delegate, migrated already
            packed = (
                spilled
                if spilled is not None
                else _packed_list(source._reader().entries(), source._dead)
            )
        self.__class__ = PackedPostingsList
        for name in PackedPostingsList.__slots__:
            setattr(self, name, getattr(packed, name))


class _Retired:
    """Stands in for a class of the retired HINT layout while it unpickles;
    the index holding it is rebuilt (:func:`_rebuilt`)."""

    def __init__(self, *_args) -> None:  # an enum member's value
        pass

    def __setstate__(self, _state) -> None:
        pass


def _rebuilt(old: TemporalIRIndex) -> TemporalIRIndex:
    """``old``, built afresh over its catalog with its own parameters."""
    state = old.__dict__
    params = {"num_bits": getattr(old, "num_bits")}  # every HINT-based index has one
    if "_n_slices" in state:
        params["n_slices"] = state["_n_slices"]
    return type(old).build(Collection(state["_catalog"].values()), **params)


class _Unpickler(pickle.Unpickler):
    """Restores the previous release's postings layouts as packed lists,
    and notes a class of its HINT layout (``retired``).

    Delete with the v1/v2 segment readers when the catalog bumps its version.
    """

    retired = False

    def find_class(self, module: str, name: str):
        if module == "repro.intervals.hint.partition" or (module, name) == (
            "repro.ir.postings", "IdPostingsList"
        ):
            self.retired = True
            return _Retired
        if (module, name) == ("repro.ir.compressed", "CompressedPostingsList") or (
            module == "repro.ir.postings" and not hasattr(postings, name)
        ):
            return _Migrated  # the postings module has lost one class: the list layout
        return super().find_class(module, name)


def loads_index(blob: bytes, context: str = "snapshot") -> TemporalIRIndex:
    """Inverse of :func:`dumps_index`, verifying integrity end to end."""
    header, offset = _parse_header(blob, context)
    fmt = _int_field(header, "format", context)
    if fmt not in _SUPPORTED_FORMATS:
        raise ReproError(
            f"{context}: snapshot format {fmt} unsupported "
            f"(this library reads {', '.join(map(str, _SUPPORTED_FORMATS))})"
        )
    payload = blob[offset:]
    if fmt >= 2:
        expected_len = _int_field(header, "payload_bytes", context)
        if expected_len != len(payload):
            raise CorruptSnapshotError(
                f"{context}: truncated snapshot payload "
                f"({len(payload)} bytes, header says {expected_len})"
            )
        expected_crc = _int_field(header, "payload_crc32", context)
        if zlib.crc32(payload) != expected_crc:
            raise CorruptSnapshotError(f"{context}: snapshot payload checksum mismatch")
    unpickler = _Unpickler(io.BytesIO(payload))
    # A cyclic collection mid-load frees nothing: it only walks the objects
    # loaded so far (two full passes took 40 % of a 2·10⁴-object load).
    collecting = gc.isenabled()
    gc.disable()
    try:
        index = unpickler.load()
    except Exception as exc:  # bit rot in a v1 payload surfaces here
        raise CorruptSnapshotError(f"{context}: snapshot payload unreadable: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(index, TemporalIRIndex):
        raise CorruptSnapshotError(f"{context}: snapshot did not contain an index")
    return _rebuilt(index) if unpickler.retired or _tif_layout(index, context) else index


def _tif_layout(index: TemporalIRIndex, context: str) -> bool:
    """Is ``index`` an irHINT-perf stored as a tIF beside its own verdicts?
    One of an older layout still (no ``_tif`` either) is refused."""
    if not isinstance(index, IRHintPerformance) or "_hints" in vars(index):
        return False
    if "_tif" not in vars(index):
        raise CorruptSnapshotError(f"{context}: irHINT snapshot predates the flat layout")
    return True


def load_index(path: PathLike) -> TemporalIRIndex:
    """Restore a snapshot written by :func:`save_index` (v1 or v2)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return loads_index(blob, context=str(path))
