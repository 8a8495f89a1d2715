"""Varint / zigzag primitives and the sealed-block payload codec.

This module is the byte format of the block-postings backends.  Two
layers:

* **blocks** — :func:`encode_block` / :func:`decode_block`, the payload of
  one sealed block (:mod:`repro.ir.blocks`): up to a few hundred id-sorted
  entries as three fixed-width little-endian columns behind one header
  byte::

      0b11 id_code st_code dur_code      two-bit width codes: 1, 2, 4, 8 bytes
      id gaps      (count - 1) x id width    id[i] - id[i-1], each >= 1
      t_st offsets  count      x st width    t_st - min t_st of the block
      durations     count      x dur width   t_end - t_st

  Each column is as narrow as its largest value allows and decodes with
  one ``np.frombuffer`` and one prefix sum or add, in C.  The entry
  count, the first id and the ``t_st`` base are *not* repeated in the
  payload: a block is only ever read beside its skip summary
  ``(min_id, max_id, min_st, max_end, count)``, which holds all three.
* **LEB128 varints** — :func:`varint_encode` / :func:`varint_decode`
  (unsigned) and the zigzag-folded signed :func:`svarint_encode` /
  :func:`svarint_decode`: what format v1 blocks were made of.  Nothing
  writes v1 any more, but segments demoted before format v2 hold it, so
  :func:`decode_block` still reads it (a v1 payload starts with
  ``varint(count)``, at most ``0x80`` for the 128 entries any writer
  sealed; a v2 header byte is at least ``0xC0``).

Decoding damaged bytes raises :class:`~repro.core.errors.
CorruptPostingsError` — never ``IndexError``, a numpy ``ValueError`` or
silent garbage — mirroring the WAL's torn-tail discipline
(``repro.service.wal``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, CorruptPostingsError

#: A decoded ``⟨id, t_st, t_end⟩`` triple.
EntryTriple = Tuple[int, int, int]

#: One block's decoded int64 ``(ids, sts, ends)`` columns; the endpoint
#: columns are ``None`` when only the ids were asked for.
Columns = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]

#: Varints longer than this many continuation bytes cannot come from this
#: codec's own writers for any 64-bit quantity; treat them as corruption
#: rather than looping forever over adversarial input.  (10 × 7 = 70 bits
#: covers the zigzag-folded i64 range; the cap is generous: 19 bytes ≈
#: 133 bits, enough for durations of i64-extreme intervals.)
_MAX_VARINT_BYTES = 19


def varint_encode(value: int, out: bytearray) -> None:
    """Append the LEB128 encoding of a non-negative int."""
    if value < 0:
        raise ConfigurationError(f"varint requires non-negative values, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def varint_decode(buffer: bytes, offset: int) -> Tuple[int, int]:
    """Decode one LEB128 int; returns ``(value, next offset)``.

    Raises :class:`CorruptPostingsError` when the buffer ends mid-varint
    (a torn tail) or the encoding runs past any length this codec writes.
    """
    value = 0
    shift = 0
    n = len(buffer)
    start = offset
    while True:
        if offset >= n:
            raise CorruptPostingsError(
                f"truncated varint at byte {start} (buffer ends mid-value)"
            )
        if offset - start >= _MAX_VARINT_BYTES:
            raise CorruptPostingsError(
                f"overlong varint at byte {start} (>{_MAX_VARINT_BYTES} bytes)"
            )
        byte = buffer[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def zigzag_encode(value: int) -> int:
    """Fold a signed int onto the non-negatives (0→0, -1→1, 1→2, …).

    Works for arbitrary Python ints, not just i64 — the fold is defined
    arithmetically instead of with a fixed-width shift.
    """
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def zigzag_decode(value: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (value >> 1) ^ -(value & 1)


def svarint_encode(value: int, out: bytearray) -> None:
    """Append the zigzag+LEB128 encoding of a signed int."""
    varint_encode(zigzag_encode(value), out)


def svarint_decode(buffer: bytes, offset: int) -> Tuple[int, int]:
    """Decode one zigzag+LEB128 signed int; returns ``(value, offset)``."""
    raw, offset = varint_decode(buffer, offset)
    return zigzag_decode(raw), offset


# --------------------------------------------------------------------- blocks
#: A v2 payload's header byte is this tag plus three two-bit width codes.
#: A v1 payload starts with ``varint(count)`` and no writer ever sealed
#: more than 128 entries, so its first byte is at most ``0x80``.
_V2_TAG = 0xC0

#: Column dtypes by width code.
_COLUMN_DTYPES = (np.dtype("u1"), np.dtype("<u2"), np.dtype("<u4"), np.dtype("<u8"))


def _width_code(largest: int) -> int:
    """The narrowest column that holds every value up to ``largest``."""
    for code, dtype in enumerate(_COLUMN_DTYPES):
        if largest < 1 << 8 * dtype.itemsize:
            return code
    raise ConfigurationError(
        f"{largest} does not fit a block column: entries must be i64"
    )


def encode_block(entries: List[EntryTriple]) -> bytes:
    """Encode one non-empty id-sorted run of i64 entries as a v2 payload.

    Layout in the module docstring.  Ids must ascend strictly and
    intervals must be valid (``st <= end``); gaps, offsets and durations
    are unsigned, so the full i64 range of ids and timestamps round-trips.
    Decoding needs the run's summary (:func:`repro.ir.blocks.seal` returns
    the pair).
    """
    if not entries:
        raise ConfigurationError("a block holds at least one entry")
    ids, sts, ends = zip(*entries)
    gaps = [after - before for before, after in zip(ids, ids[1:])]
    if gaps and min(gaps) <= 0:
        raise ConfigurationError("block entries must be strictly id-sorted")
    durations = [end - st for st, end in zip(sts, ends)]
    if min(durations) < 0:
        object_id, st, end = entries[durations.index(min(durations))]
        raise ConfigurationError(f"entry {object_id}: end {end} < st {st}")
    base = min(sts)
    columns = (gaps, [st - base for st in sts], durations)
    codes = [_width_code(max(column, default=0)) for column in columns]
    out = bytearray([_V2_TAG | codes[0] << 4 | codes[1] << 2 | codes[2]])
    for code, column in zip(codes, columns):
        out += np.array(column, dtype=_COLUMN_DTYPES[code]).tobytes()
    return bytes(out)


def decode_block(
    buffer: bytes, summary: Sequence[int], ids_only: bool = False
) -> Columns:
    """Decode one block, of either format, into int64 columns.

    ``summary`` is the block's ``(min_id, max_id, min_st, max_end,
    count)``.  The ids returned are strictly ascending, ``count`` long,
    and start and end at the summary's ``min_id`` and ``max_id``; every
    ``t_st <= t_end``.  Anything else — a wrong length for the declared
    widths and count, a zero gap, a gap or duration that runs past i64,
    and for v1 every torn or overlong varint — raises
    :class:`CorruptPostingsError`.  With ``ids_only`` a v2 block's
    endpoint columns are neither decoded nor checked (``None`` comes back).
    """
    min_id, max_id, min_st, _max_end, count = summary
    if not buffer or buffer[0] < _V2_TAG:
        ids, sts, ends = _decode_v1(buffer)
    else:
        header = buffer[0]
        gap_code, st_code, duration_code = header >> 4 & 3, header >> 2 & 3, header & 3
        count = int(count)  # exact arithmetic below, whatever the summary is made of
        sts_at = 1 + (count - 1 << gap_code)
        durations_at = sts_at + (count << st_code)
        if count < 1 or len(buffer) != durations_at + (count << duration_code):
            raise CorruptPostingsError(
                f"{len(buffer)}-byte block does not hold {count} entries in columns "
                f"{1 << gap_code}, {1 << st_code} and {1 << duration_code} bytes wide"
            )
        ids = np.empty(count, dtype=np.int64)
        ids[0] = min_id
        ids[1:] = np.frombuffer(buffer, _COLUMN_DTYPES[gap_code], count - 1, 1)
        ids = np.add.accumulate(ids)
        sts = ends = None
        if not ids_only:
            sts = np.frombuffer(buffer, _COLUMN_DTYPES[st_code], count, sts_at)
            sts = sts.astype(np.int64)
            sts += min_st
            ends = np.frombuffer(buffer, _COLUMN_DTYPES[duration_code], count, durations_at)
            ends = ends.astype(np.int64)
            ends += sts
            if np.count_nonzero(ends >= sts) != count:
                raise CorruptPostingsError("a duration runs past the i64 range")
    # Pairwise, on the decoded values: catches a zero gap and a prefix sum
    # that wrapped around i64 alike.
    if np.count_nonzero(ids[1:] > ids[:-1]) != len(ids) - 1:
        raise CorruptPostingsError("block ids do not ascend strictly")
    if len(ids) != count or ids[0] != min_id or ids[-1] != max_id:  # never empty here
        raise CorruptPostingsError(
            f"block decodes to {len(ids)} ids, not the {count} in "
            f"[{min_id}, {max_id}] its summary declares"
        )
    return ids, sts, ends


def _decode_v1(buffer: bytes) -> Columns:
    """A format-v1 payload: ``varint(count)``, then per entry ``id``
    (zigzag for the first, positive gap varints after), then per entry
    ``t_st`` (zigzag first, signed zigzag deltas after), then per entry
    ``varint(end - st)`` — walked a byte at a time."""
    count, offset = varint_decode(buffer, 0)
    ids: List[int] = []
    sts: List[int] = []
    ends: List[int] = []
    previous = 0
    for position in range(count):
        if position == 0:
            previous, offset = svarint_decode(buffer, offset)
        else:
            gap, offset = varint_decode(buffer, offset)
            previous += gap
        ids.append(previous)
    for position in range(count):
        delta, offset = svarint_decode(buffer, offset)
        previous = delta if position == 0 else previous + delta
        sts.append(previous)
    for position in range(count):
        duration, offset = varint_decode(buffer, offset)
        ends.append(sts[position] + duration)
    if offset != len(buffer):
        raise CorruptPostingsError(
            f"{len(buffer) - offset} trailing byte(s) after {count} entries"
        )
    try:
        return (
            np.array(ids, dtype=np.int64),
            np.array(sts, dtype=np.int64),
            np.array(ends, dtype=np.int64),
        )
    except OverflowError as exc:
        raise CorruptPostingsError(f"block value outside i64: {exc}") from exc
