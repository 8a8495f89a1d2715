"""Append-only, CRC32-framed write-ahead log of index mutations.

Record frame::

    u32 little-endian  payload length
    u32 little-endian  CRC32 of the payload
    payload            pickle of ("insert", lsn, id, st, end, elements) |
                       ("delete", lsn, id)

Every record carries a log sequence number (LSN), strictly increasing
across the store's lifetime.  Snapshots record the last LSN they capture,
so replay applies each mutation *exactly once* even when a fallback to an
older snapshot walks segments a newer snapshot already covered — without
LSNs, re-replaying an insert whose object a later record deleted would
resurrect it.

Each :meth:`WriteAheadLog.append` writes one whole frame with a single
``write`` call, flushes, and (by default) fsyncs, so a record is either
fully durable or detectably torn.  :func:`read_wal` replays a segment and
stops at the first damaged frame — a truncated or corrupt *tail* record is
dropped while every earlier record replays, exactly the contract
disk-based interval stores assume for their append-mostly logs.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.core.model import TemporalObject
from repro.obs.instruments import wal_instruments
from repro.obs.registry import OBS
from repro.service.fsio import REAL_FS, FileSystem
from repro.utils.timing import Stopwatch

PathLike = Union[str, Path]

#: A mutation record: ("insert", lsn, id, st, end, elements) or
#: ("delete", lsn, id).
WalOp = Tuple

_LEN_BYTES = 4
_CRC_BYTES = 4
_FRAME_HEADER = _LEN_BYTES + _CRC_BYTES
#: Sanity cap — a length field beyond this is corruption, not a record.
_MAX_RECORD_BYTES = 64 * 1024 * 1024


def insert_op(obj: TemporalObject, lsn: int) -> WalOp:
    """The WAL record for inserting ``obj``."""
    return ("insert", lsn, obj.id, obj.st, obj.end, obj.d)


def delete_op(object_id: int, lsn: int) -> WalOp:
    """The WAL record for tombstoning ``object_id``."""
    return ("delete", lsn, object_id)


def op_lsn(op: WalOp) -> int:
    """The log sequence number of a record."""
    return op[1]


class WriteAheadLog:
    """One open WAL segment; records are durable once :meth:`append` returns."""

    def __init__(
        self, path: PathLike, fs: FileSystem = REAL_FS, fsync: bool = True
    ) -> None:
        self._path = Path(path)
        self._fs = fs
        self._fsync = fsync
        self._handle = fs.open(self._path, "ab")
        self._appended = 0

    @property
    def path(self) -> Path:
        return self._path

    @property
    def records_appended(self) -> int:
        """Records appended through this handle (not the segment total)."""
        return self._appended

    def append(self, op: WalOp) -> None:
        """Frame, write, flush and fsync one mutation record."""
        if self._handle is None:
            raise ReproError(f"{self._path}: WAL segment is closed")
        payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        frame = b"".join(
            (
                len(payload).to_bytes(_LEN_BYTES, "little"),
                zlib.crc32(payload).to_bytes(_CRC_BYTES, "little"),
                payload,
            )
        )
        registry = OBS.registry
        if not registry.enabled:
            self._handle.write(frame)
            if self._fsync:
                self._fs.fsync(self._handle)
            else:
                self._handle.flush()
            self._appended += 1
            return
        # Metered twin of the exact write path above.
        instruments = wal_instruments(registry)
        watch = Stopwatch()
        watch.start()
        self._handle.write(frame)
        if self._fsync:
            fsync_watch = Stopwatch()
            fsync_watch.start()
            self._fs.fsync(self._handle)
            instruments.fsync_seconds.observe(fsync_watch.stop())
        else:
            self._handle.flush()
        instruments.append_seconds.observe(watch.stop())
        instruments.appends.inc()
        instruments.bytes_written.inc(len(frame))
        self._appended += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class WalReadResult:
    """Outcome of scanning one WAL segment."""

    records: List[WalOp] = field(default_factory=list)
    #: Bytes of the longest valid record prefix; appenders must truncate
    #: the segment here before writing after a torn tail.
    valid_bytes: int = 0
    #: True when trailing bytes after the valid prefix were dropped.
    torn: bool = False
    dropped_bytes: int = 0
    error: Optional[str] = None


def read_wal(path: PathLike) -> WalReadResult:
    """Scan a WAL segment, dropping a truncated or corrupt tail.

    A missing segment reads as empty — a crash between snapshot rotation
    steps legitimately leaves no segment for the newest snapshot.
    """
    result = WalReadResult()
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        return result
    offset = 0
    total = len(blob)
    while offset < total:
        if total - offset < _FRAME_HEADER:
            result.error = "truncated frame header"
            break
        length = int.from_bytes(blob[offset : offset + _LEN_BYTES], "little")
        expected_crc = int.from_bytes(
            blob[offset + _LEN_BYTES : offset + _FRAME_HEADER], "little"
        )
        body = offset + _FRAME_HEADER
        if length > _MAX_RECORD_BYTES:
            result.error = f"implausible record length {length}"
            break
        if total - body < length:
            result.error = "truncated record payload"
            break
        payload = blob[body : body + length]
        if zlib.crc32(payload) != expected_crc:
            result.error = "record checksum mismatch"
            break
        try:
            op = pickle.loads(payload)
        except MemoryError:  # not a torn tail: truncating here would lose records
            raise
        except Exception as exc:
            result.error = f"record payload unreadable: {exc}"
            break
        offset = body + length
        result.records.append(op)
        result.valid_bytes = offset
    if result.error is not None:
        result.torn = True
        result.dropped_bytes = total - result.valid_bytes
    return result
