"""Varint / zigzag / block codecs for compressed postings.

This module is the compression substrate of the block-postings backends.
Two layers:

* **LEB128 varints** — :func:`varint_encode` / :func:`varint_decode` for
  unsigned ints, :func:`svarint_encode` / :func:`svarint_decode` adding a
  zigzag fold so the full signed 64-bit range (and beyond — Python ints are
  unbounded) round-trips.
* **blocks** — :func:`encode_block` / :func:`decode_block`, the payload of
  one sealed block (:mod:`repro.ir.blocks`).  A block
  packs up to a few hundred id-sorted entries as ``count ‖ id stream
  (zigzag first, positive gaps after) ‖ t_st stream (zigzag first, signed
  deltas after) ‖ per-entry varint(duration)`` so a reader can skip whole
  blocks from their summary without touching the payload.

Decoding damaged bytes raises :class:`~repro.core.errors.
CorruptPostingsError` — never ``IndexError`` and never silent garbage —
mirroring the WAL's torn-tail discipline (``repro.service.wal``).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.errors import ConfigurationError, CorruptPostingsError

#: A decoded ``⟨id, t_st, t_end⟩`` triple.
EntryTriple = Tuple[int, int, int]

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
def encode_block(entries: List[EntryTriple]) -> bytes:
    """Encode one id-sorted run of entries as a self-delimiting block.

    Layout: ``varint(count)``, then per entry ``id`` (zigzag for the first,
    positive gap varints after), then per entry ``t_st`` (zigzag for the
    first, signed zigzag *deltas* after — id-ordered entries of append-
    mostly collections carry near-sorted timestamps, so deltas are tiny),
    then per entry ``varint(end - st)``.  Signed folds mean the full i64
    range (ids and timestamps) round-trips; intervals are validated
    (``st <= end``).
    """
    out = bytearray()
    varint_encode(len(entries), out)
    previous_id = 0
    for position, (object_id, _st, _end) in enumerate(entries):
        if position == 0:
            svarint_encode(object_id, out)
        else:
            gap = object_id - previous_id
            if gap <= 0:
                raise ConfigurationError("block entries must be strictly id-sorted")
            varint_encode(gap, out)
        previous_id = object_id
    previous_st = 0
    for position, (object_id, st, end) in enumerate(entries):
        if end < st:
            raise ConfigurationError(f"entry {object_id}: end {end} < st {st}")
        svarint_encode(st if position == 0 else st - previous_st, out)
        previous_st = st
    for _object_id, st, end in entries:
        varint_encode(end - st, out)
    return bytes(out)


def decode_block(buffer: bytes) -> Tuple[List[int], List[int], List[int]]:
    """Decode one block back into ``(ids, sts, ends)`` columns.

    Raises :class:`CorruptPostingsError` on truncation, overlong varints,
    non-ascending ids, or trailing bytes after the declared entry count —
    every way a torn or spliced buffer can disagree with its header.
    """
    count, offset = varint_decode(buffer, 0)
    ids: List[int] = []
    sts: List[int] = []
    ends: List[int] = []
    previous_id = 0
    for position in range(count):
        if position == 0:
            previous_id, offset = svarint_decode(buffer, offset)
        else:
            gap, offset = varint_decode(buffer, offset)
            if gap <= 0:
                raise CorruptPostingsError(
                    f"non-ascending id gap {gap} at entry {position}"
                )
            previous_id += gap
        ids.append(previous_id)
    previous_st = 0
    for position in range(count):
        delta, offset = svarint_decode(buffer, offset)
        previous_st = delta if position == 0 else previous_st + delta
        sts.append(previous_st)
    for position in range(count):
        duration, offset = varint_decode(buffer, offset)
        ends.append(sts[position] + duration)
    if offset != len(buffer):
        raise CorruptPostingsError(
            f"{len(buffer) - offset} trailing byte(s) after {count} entries"
        )
    return ids, sts, ends
