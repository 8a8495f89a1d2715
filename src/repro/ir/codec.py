"""The sealed-block payload codec.

This module is the byte format of the block-postings backends:
:func:`encode_block` / :func:`decode_block`, the payload of one sealed
block (:mod:`repro.ir.blocks`): up to a few hundred id-sorted entries as
three fixed-width little-endian columns behind one header byte::

    0b11 id_code st_code dur_code      two-bit width codes: 1, 2, 4, 8 bytes
    id gaps      (count - 1) x id width    id[i] - id[i-1], each >= 1
    t_st offsets  count      x st width    t_st - min t_st of the block
    durations     count      x dur width   t_end - t_st

Each column is as narrow as its largest value allows and decodes with
one ``np.frombuffer`` and one prefix sum or add, in C.  The entry count,
the first id and the ``t_st`` base are *not* repeated in the payload: a
block is only ever read beside its skip summary ``(min_id, max_id,
min_st, max_end, count)``, which holds all three.  A payload whose first
byte lacks the ``0b11`` tag is not one this build reads (format v1's
varint streams had none).

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

#: A payload's header byte is this tag plus three two-bit width codes.
_TAG = 0xC0

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
    """Encode one non-empty id-sorted run of i64 entries as a payload.

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
    out = bytearray([_TAG | codes[0] << 4 | codes[1] << 2 | codes[2]])
    for code, column in zip(codes, columns):
        out += np.array(column, dtype=_COLUMN_DTYPES[code]).tobytes()
    return bytes(out)


def decode_block(
    buffer: bytes, summary: Sequence[int], ids_only: bool = False
) -> Columns:
    """Decode one block into int64 columns.

    ``summary`` is the block's ``(min_id, max_id, min_st, max_end,
    count)``.  The ids returned are strictly ascending, ``count`` long,
    and start and end at the summary's ``min_id`` and ``max_id``; every
    ``t_st <= t_end``.  Anything else — a header byte without the tag, a
    wrong length for the declared widths and count, a zero gap, a gap or
    duration that runs past i64 — raises :class:`CorruptPostingsError`.
    With ``ids_only`` the endpoint columns are neither decoded nor
    checked (``None`` comes back).
    """
    if not buffer or buffer[0] < _TAG:
        raise CorruptPostingsError(
            f"block header {buffer[:1].hex() or 'missing'} lacks the 0xc0 tag "
            f"(format v1 blocks are not read)"
        )
    min_id, max_id, min_st, _max_end, count = summary
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
    if np.count_nonzero(ids[1:] > ids[:-1]) != count - 1:
        raise CorruptPostingsError("block ids do not ascend strictly")
    if ids[-1] != max_id:  # ids[0] is the summary's min_id by construction
        raise CorruptPostingsError(
            f"block decodes to ids [{min_id}, {ids[-1]}], not the {count} in "
            f"[{min_id}, {max_id}] its summary declares"
        )
    return ids, sts, ends
