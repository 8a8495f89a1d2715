"""Fuzz and round-trip tests for the block codec (repro.ir.codec).

Two properties matter for a decoder that reads bytes off disk or the
wire:

1. **Round-trip**: anything the encoder writes, the decoder reads back
   verbatim — across the full signed-64-bit range.
2. **Typed failure**: *any* damaged input — truncated tails, random
   garbage, spliced blocks, a block read beside the wrong summary —
   raises :class:`~repro.core.errors.CorruptPostingsError`.  Never
   ``IndexError``, never a numpy ``ValueError``, never an infinite loop,
   never silently-wrong values.

Blocks have one format (fixed-width columns behind a tagged header
byte), pinned by golden bytes; format v1's varint streams, which no
segment this build reads can hold, are refused by their missing tag.

All fuzzing is seeded (``random.Random(<literal>)``) so failures replay.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, CorruptPostingsError
from repro.ir.blocks import seal, summarize
from repro.ir.codec import decode_block, encode_block

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

# ------------------------------------------------------------------- blocks
def _random_block_entries(rng: random.Random, n: int, lo=I64_MIN, hi=I64_MAX):
    ids = sorted(rng.sample(range(-(1 << 40), 1 << 40), n))
    entries = []
    for object_id in ids:
        st = rng.randint(lo, hi)
        end = st if st > hi - 1_000 else st + rng.randint(0, 1_000)
        entries.append((object_id, st, end))
    return entries


def _decoded(buffer: bytes, summary, ids_only: bool = False):
    """``decode_block`` as plain lists of Python ints."""
    return [
        None if column is None else column.tolist()
        for column in decode_block(buffer, summary, ids_only)
    ]


def _entries(buffer: bytes, summary):
    return list(zip(*_decoded(buffer, summary)))


#: The block format, pinned.  Segments on disk hold these bytes, so a
#: codec change that moves them needs a new segment format, not an edit
#: of these literals.
#:
#: The extremes: id 0 and id 2**63 - 1 in one block, i64-extreme
#: timestamps and a zero-length interval — every column eight bytes wide.
GOLDEN_RUN = [(0, I64_MIN, I64_MIN + 300), (5, -1, -1), (I64_MAX, 1_000, I64_MAX)]
GOLDEN_BYTES = bytes.fromhex(
    "ff"  # tag 0b11, width codes 3, 3, 3
    "0500000000000000" "faffffffffffff7f"  # gaps 5, 2**63 - 6
    "0000000000000000" "ffffffffffffff7f" "e803000000000080"  # t_st - I64_MIN
    "2c01000000000000" "0000000000000000" "17fcffffffffff7f"  # durations
)
GOLDEN_SUMMARY = (0, I64_MAX, I64_MIN, I64_MAX, 3)  # min_id, max_id, min_st, max_end, count

#: Mixed widths: one 2**40 duration among tiny ones forces that column
#: (alone) to eight bytes; gaps take two, the t_st offsets one.
GOLDEN_MIXED_RUN = [(10, 100, 101), (11, 100, 100 + (1 << 40)), (300, 355, 355)]
GOLDEN_MIXED_BYTES = bytes.fromhex(
    "d3"  # tag 0b11, width codes 1, 0, 3
    "0100" "2101"  # gaps 1, 289
    "00" "00" "ff"  # t_st - 100
    "0100000000000000" "0000000000010000" "0000000000000000"  # durations
)
GOLDEN_MIXED_SUMMARY = (10, 300, 100, 100 + (1 << 40), 3)

#: Format v1, as the commit that last wrote it laid out a negative first
#: id, i64-extreme timestamps and a zero-length interval.  Nothing reads
#: it any more: it is refused by its first byte.
GOLDEN_V1_BYTES = bytes.fromhex(
    "03"  # count
    "0d" "0c" "8001"  # ids: zigzag(-7), gaps 12 and 128
    "ffffffffffffffffff01" "feffffffffffffffff01" "d20f"  # t_st: zigzag first, then deltas
    "ac02" "00" "97f8ffffffffffff7f"  # durations 300, 0, I64_MAX - 1000
)
GOLDEN_V1_SUMMARY = (-7, 133, I64_MIN, I64_MAX, 3)

GOLDENS = [
    (GOLDEN_BYTES, GOLDEN_SUMMARY, GOLDEN_RUN),
    (GOLDEN_MIXED_BYTES, GOLDEN_MIXED_SUMMARY, GOLDEN_MIXED_RUN),
]


class TestBlockCodec:
    def test_golden_bytes_pin_the_block_format(self):
        for golden, summary, run in GOLDENS:
            assert encode_block(run) == golden
            assert seal(run) == (golden, summary)
            assert _entries(golden, summary) == run

    def test_v1_golden_bytes_are_refused(self):
        # Whole, beside a summary held as an int64 table column (how both
        # backends hand it over), and cut at every length: one typed error.
        column = np.array(GOLDEN_V1_SUMMARY, dtype=np.int64)
        for summary in (GOLDEN_V1_SUMMARY, column):
            for cut in range(len(GOLDEN_V1_BYTES) + 1):
                with pytest.raises(CorruptPostingsError, match="tag"):
                    decode_block(GOLDEN_V1_BYTES[:cut], summary)

    def test_decoded_columns_are_int64_arrays(self):
        for golden, summary, _run in GOLDENS:
            for column in decode_block(golden, summary):
                assert isinstance(column, np.ndarray) and column.dtype == np.int64

    def test_ids_only_skips_the_endpoint_columns(self):
        ids, sts, ends = _decoded(GOLDEN_MIXED_BYTES, GOLDEN_MIXED_SUMMARY, ids_only=True)
        assert ids == [10, 11, 300] and sts is None and ends is None
        # Damage confined to a column that is not read goes unseen; the
        # full decode of the same bytes refuses it.
        wrapped = GOLDEN_BYTES[:-1] + b"\xff"  # last duration runs past i64
        assert _decoded(wrapped, GOLDEN_SUMMARY, ids_only=True)[0] == [0, 5, I64_MAX]
        with pytest.raises(CorruptPostingsError):
            decode_block(wrapped, GOLDEN_SUMMARY)

    def test_empty_run_is_refused(self):
        # A block is read beside its summary, and an empty run has none.
        with pytest.raises(ConfigurationError):
            encode_block([])
        with pytest.raises(CorruptPostingsError):
            decode_block(b"\x00", (0, 0, 0, 0, 0))  # no tag
        with pytest.raises(CorruptPostingsError):
            decode_block(b"\xc0", (0, 0, 0, 0, 0))

    def test_random_blocks_round_trip(self):
        rng = random.Random(7919)
        for _ in range(40):
            entries = _random_block_entries(rng, rng.randint(1, 64))
            assert _entries(*seal(entries)) == entries

    def test_single_entry_blocks_round_trip(self):
        for entry in [(0, 0, 0), (I64_MIN, I64_MIN, I64_MAX), (I64_MAX, I64_MAX, I64_MAX)]:
            payload, summary = seal([entry])
            assert len(payload) == 1 + 1 + max(1, ((entry[2] - entry[1]).bit_length() + 7) // 8)
            assert _entries(payload, summary) == [entry]

    def test_i64_extreme_entries_round_trip(self):
        entries = [
            (I64_MIN, I64_MIN, I64_MAX),
            (-1, -1, -1),
            (0, 0, 0),
            (I64_MAX, I64_MAX, I64_MAX),
        ]
        assert _entries(*seal(entries)) == entries
        # The widest gap there is: 2**64 - 1 between neighbours.
        entries = [(I64_MIN, 0, 0), (I64_MAX, 0, 0)]
        assert _entries(*seal(entries)) == entries

    def test_columns_take_the_narrowest_width(self):
        def widths(run):
            header = encode_block(run)[0]
            assert header >> 6 == 0b11
            return tuple(1 << (header >> shift & 3) for shift in (4, 2, 0))

        assert widths([(0, 0, 255), (255, 255, 255)]) == (1, 1, 1)
        assert widths([(0, 0, 256), (256, 256, 256)]) == (2, 2, 2)
        assert widths([(0, 0, 65_536), (65_536, 65_536, 65_536)]) == (4, 4, 4)
        assert widths([(0, 0, 1 << 32), (1 << 32, 1 << 32, 1 << 32)]) == (8, 8, 8)

    def test_unsorted_entries_rejected_at_encode(self):
        with pytest.raises(ConfigurationError):
            encode_block([(5, 0, 1), (5, 0, 1)])
        with pytest.raises(ConfigurationError):
            encode_block([(5, 0, 1), (3, 0, 1)])

    def test_inverted_interval_rejected_at_encode(self):
        with pytest.raises(ConfigurationError):
            encode_block([(1, 10, 5)])

    def test_beyond_i64_values_rejected_at_encode(self):
        with pytest.raises(ConfigurationError):
            encode_block([(0, 0, 1 << 64)])
        with pytest.raises(ConfigurationError):
            encode_block([(0, 0, 0), (1 << 64, 0, 0)])

    def test_every_truncation_raises_typed(self):
        rng = random.Random(314159)
        entries = _random_block_entries(rng, 12)
        buffer, summary = seal(entries)
        for cut in range(len(buffer)):
            with pytest.raises(CorruptPostingsError):
                decode_block(buffer[:cut], summary)

    def test_trailing_bytes_raise_typed(self):
        for golden, summary, _run in GOLDENS:
            with pytest.raises(CorruptPostingsError):
                decode_block(golden + b"\x00", summary)

    def test_spliced_blocks_raise_typed(self):
        # Two valid blocks glued together disagree with the first one's
        # entry count — the exact-length check must catch the splice.
        a, summary = seal([(1, 2, 3), (9, 0, 4)])
        b, _ = seal([(4, 1, 1)])
        with pytest.raises(CorruptPostingsError):
            decode_block(a + b, summary)

    def test_block_beside_the_wrong_summary_raises_typed(self):
        # Same count, same widths, another block's id range: the payload
        # still parses, but its ids do not end where the summary says.
        a, summary_a = seal([(1, 2, 3), (9, 0, 4)])
        b, summary_b = seal([(1, 2, 3), (8, 0, 4)])
        assert len(a) == len(b) and a[0] == b[0]
        with pytest.raises(CorruptPostingsError):
            decode_block(a, summary_b)
        with pytest.raises(CorruptPostingsError):
            decode_block(b, summary_a, ids_only=True)

    def test_zero_gap_raises_typed(self):
        payload, summary = seal([(1, 0, 0), (2, 0, 0), (3, 0, 0)])
        assert payload[1:3] == b"\x01\x01"
        for gaps, max_id in [(b"\x00\x02", 3), (b"\x02\x00", 3), (b"\x00\x00", 1)]:
            damaged = payload[:1] + gaps + payload[3:]
            with pytest.raises(CorruptPostingsError):
                decode_block(damaged, summary[:1] + (max_id,) + summary[2:])

    def test_gap_sum_past_i64_raises_typed(self):
        # Eight-byte gaps whose prefix sum wraps around and lands back on
        # the summary's max_id: only the pairwise check sees it.
        payload, summary = seal([(0, 0, 0), (5, 0, 0), (I64_MAX, 0, 0)])
        assert payload[0] >> 4 & 3 == 3
        wrapping = (I64_MAX + 10).to_bytes(8, "little") + ((1 << 64) - 10).to_bytes(8, "little")
        with pytest.raises(CorruptPostingsError):
            decode_block(payload[:1] + wrapping + payload[17:], summary)

    def test_duration_past_i64_raises_typed(self):
        payload, summary = seal([(0, I64_MAX - 5, I64_MAX)])
        assert _entries(payload, summary) == [(0, I64_MAX - 5, I64_MAX)]
        with pytest.raises(CorruptPostingsError):
            decode_block(payload[:-1] + b"\x06", summary)

    def test_wrong_width_codes_raise_typed(self):
        # Every header byte from 0xC0 up names legal widths (1, 2, 4 or 8
        # bytes per column: there is no illegal code), so a damaged one is
        # caught by the exact-length check.  One flipped bit changes one
        # column's width and with it the length the block should have.
        assert GOLDEN_MIXED_BYTES[0] == 0xD3
        for bit in range(6):
            damaged = bytes([GOLDEN_MIXED_BYTES[0] ^ 1 << bit]) + GOLDEN_MIXED_BYTES[1:]
            with pytest.raises(CorruptPostingsError):
                decode_block(damaged, GOLDEN_MIXED_SUMMARY)

    def test_corrupt_summary_counts_raise_typed(self):
        for count in (0, -1, 2, 4, 1 << 40):
            with pytest.raises(CorruptPostingsError):
                decode_block(GOLDEN_MIXED_BYTES, GOLDEN_MIXED_SUMMARY[:4] + (count,))

    def test_random_garbage_never_raises_indexerror(self):
        rng = random.Random(161803)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 48)))
            if rng.random() < 0.5 and blob:  # tag the header half the time
                blob = bytes([blob[0] | 0xC0]) + blob[1:]
            summary = (rng.randint(-5, 5), rng.randint(-5, 300), rng.randint(-9, 9),
                       rng.randint(-9, 300), rng.randint(-1, 12))
            try:
                decode_block(blob, summary, ids_only=rng.random() < 0.3)
            except CorruptPostingsError:
                pass  # the only acceptable failure

    def test_bitflips_raise_typed_or_decode_consistently(self):
        # A single flipped bit either raises the typed error or yields a
        # block that still satisfies the format invariants (ascending ids
        # inside the summary's id range, st <= end) — it must never escape
        # as IndexError/ValueError.
        rng = random.Random(271828)
        entries = _random_block_entries(rng, 8)
        buffer, summary = seal(entries)
        buffer = bytearray(buffer)
        for _ in range(200):
            i = rng.randrange(len(buffer))
            bit = 1 << rng.randrange(8)
            buffer[i] ^= bit
            try:
                ids, sts, ends = _decoded(bytes(buffer), summary)
            except CorruptPostingsError:
                pass
            else:
                assert ids == sorted(ids) and len(set(ids)) == len(ids)
                assert (ids[0], ids[-1], len(ids)) == (summary[0], summary[1], summary[4])
                assert all(st <= end for st, end in zip(sts, ends))
            buffer[i] ^= bit  # restore

    def test_summarize_matches_what_decode_needs(self):
        rng = random.Random(5)
        entries = _random_block_entries(rng, 20)
        assert seal(entries)[1] == summarize(entries)
