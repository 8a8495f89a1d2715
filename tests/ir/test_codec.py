"""Fuzz and round-trip tests for the postings codecs (repro.ir.codec).

Two properties matter for a decoder that reads bytes off disk or the
wire:

1. **Round-trip**: anything the encoder writes, the decoder reads back
   verbatim — across the full signed-64-bit range and beyond (Python
   ints are unbounded).
2. **Typed failure**: *any* damaged input — truncated tails, random
   garbage, spliced blocks — raises
   :class:`~repro.core.errors.CorruptPostingsError`.  Never
   ``IndexError``, never an infinite loop, never silently-wrong values.

All fuzzing is seeded (``random.Random(<literal>)``) so failures replay.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ConfigurationError, CorruptPostingsError
from repro.ir.blocks import seal
from repro.ir.codec import (
    decode_block,
    encode_block,
    svarint_decode,
    svarint_encode,
    varint_decode,
    varint_encode,
    zigzag_decode,
    zigzag_encode,
)

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

BOUNDARY_VALUES = [
    0, 1, 2, 127, 128, 129, 255, 256, 16_383, 16_384,
    (1 << 32) - 1, 1 << 32, I64_MAX - 1, I64_MAX,
]


# ----------------------------------------------------------------- round-trip
class TestVarintRoundTrip:
    def test_boundary_values(self):
        for value in BOUNDARY_VALUES:
            out = bytearray()
            varint_encode(value, out)
            decoded, offset = varint_decode(bytes(out), 0)
            assert decoded == value
            assert offset == len(out)

    def test_random_u64_sequences(self):
        rng = random.Random(20250807)
        for _ in range(50):
            values = [rng.randrange(I64_MAX + 1) for _ in range(rng.randint(1, 40))]
            out = bytearray()
            for value in values:
                varint_encode(value, out)
            buffer = bytes(out)
            offset = 0
            decoded = []
            while offset < len(buffer):
                value, offset = varint_decode(buffer, offset)
                decoded.append(value)
            assert decoded == values

    def test_negative_rejected_with_typed_error(self):
        with pytest.raises(ConfigurationError):
            varint_encode(-1, bytearray())

    def test_concatenated_stream_offsets_chain(self):
        out = bytearray()
        for value in (0, 300, 7):
            varint_encode(value, out)
        buffer = bytes(out)
        a, offset = varint_decode(buffer, 0)
        b, offset = varint_decode(buffer, offset)
        c, offset = varint_decode(buffer, offset)
        assert (a, b, c) == (0, 300, 7)
        assert offset == len(buffer)


class TestZigzag:
    def test_fold_order(self):
        # The canonical interleave: 0, -1, 1, -2, 2, ...
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]

    def test_round_trip_i64_range_and_beyond(self):
        rng = random.Random(8061)
        values = [I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX,
                  -(1 << 100), 1 << 100]
        values += [rng.randint(I64_MIN, I64_MAX) for _ in range(500)]
        for value in values:
            folded = zigzag_encode(value)
            assert folded >= 0
            assert zigzag_decode(folded) == value

    def test_svarint_random_i64_sequences(self):
        rng = random.Random(2025)
        for _ in range(50):
            values = [rng.randint(I64_MIN, I64_MAX) for _ in range(rng.randint(1, 40))]
            out = bytearray()
            for value in values:
                svarint_encode(value, out)
            buffer = bytes(out)
            offset = 0
            decoded = []
            while offset < len(buffer):
                value, offset = svarint_decode(buffer, offset)
                decoded.append(value)
            assert decoded == values


# ------------------------------------------------------------- torn buffers
class TestTornBuffers:
    def test_every_truncation_of_a_varint_raises_typed(self):
        out = bytearray()
        varint_encode((1 << 63) - 1, out)  # a long, multi-byte varint
        buffer = bytes(out)
        for cut in range(len(buffer)):
            with pytest.raises(CorruptPostingsError):
                varint_decode(buffer[:cut], 0)

    def test_overlong_varint_raises_instead_of_looping(self):
        # An adversarial run of continuation bytes never terminates the
        # value; the decoder must bail with a typed error, not spin or
        # build a gigantic int.
        with pytest.raises(CorruptPostingsError):
            varint_decode(b"\x80" * 64 + b"\x01", 0)

    def test_decode_at_end_of_buffer_raises_typed(self):
        with pytest.raises(CorruptPostingsError):
            varint_decode(b"", 0)
        with pytest.raises(CorruptPostingsError):
            varint_decode(b"\x07", 1)

    def test_random_garbage_never_raises_indexerror(self):
        rng = random.Random(424242)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 24)))
            try:
                varint_decode(blob, 0)
            except CorruptPostingsError:
                pass  # the only acceptable failure


# ------------------------------------------------------------------- blocks
def _random_block_entries(rng: random.Random, n: int, lo=I64_MIN, hi=I64_MAX):
    ids = sorted(rng.sample(range(-(1 << 40), 1 << 40), n))
    entries = []
    for object_id in ids:
        st = rng.randint(lo, hi)
        end = st if st > hi - 1_000 else st + rng.randint(0, 1_000)
        entries.append((object_id, st, end))
    return entries


#: The block format, pinned: a negative first id, i64-extreme timestamps
#: and a zero-length interval.  Segments on disk hold these bytes, so a
#: codec change that moves them must version-gate
#: (``repro.storage.format.FORMAT_VERSION``), not edit this literal.
GOLDEN_RUN = [(-7, I64_MIN, I64_MIN + 300), (5, -1, -1), (133, 1_000, I64_MAX)]
GOLDEN_BYTES = bytes.fromhex(
    "03"  # count
    "0d" "0c" "8001"  # ids: zigzag(-7), gaps 12 and 128
    "ffffffffffffffffff01" "feffffffffffffffff01" "d20f"  # t_st: zigzag first, then deltas
    "ac02" "00" "97f8ffffffffffff7f"  # durations 300, 0, I64_MAX - 1000
)
GOLDEN_SUMMARY = (-7, 133, I64_MIN, I64_MAX, 3)  # min_id, max_id, min_st, max_end, count


class TestBlockCodec:
    def test_golden_bytes_pin_the_block_format(self):
        assert encode_block(GOLDEN_RUN) == GOLDEN_BYTES
        assert seal(GOLDEN_RUN) == (GOLDEN_BYTES, GOLDEN_SUMMARY)
        ids, sts, ends = decode_block(GOLDEN_BYTES)
        assert list(zip(ids, sts, ends)) == GOLDEN_RUN

    def test_empty_block_round_trips(self):
        assert decode_block(encode_block([])) == ([], [], [])

    def test_random_blocks_round_trip(self):
        rng = random.Random(7919)
        for _ in range(40):
            entries = _random_block_entries(rng, rng.randint(1, 64))
            ids, sts, ends = decode_block(encode_block(entries))
            assert list(zip(ids, sts, ends)) == entries

    def test_i64_extreme_entries_round_trip(self):
        entries = [
            (I64_MIN, I64_MIN, I64_MAX),
            (-1, -1, -1),
            (0, 0, 0),
            (I64_MAX, I64_MAX, I64_MAX),
        ]
        ids, sts, ends = decode_block(encode_block(entries))
        assert list(zip(ids, sts, ends)) == entries

    def test_unsorted_entries_rejected_at_encode(self):
        with pytest.raises(ConfigurationError):
            encode_block([(5, 0, 1), (5, 0, 1)])
        with pytest.raises(ConfigurationError):
            encode_block([(5, 0, 1), (3, 0, 1)])

    def test_inverted_interval_rejected_at_encode(self):
        with pytest.raises(ConfigurationError):
            encode_block([(1, 10, 5)])

    def test_every_truncation_raises_typed(self):
        rng = random.Random(314159)
        entries = _random_block_entries(rng, 12)
        buffer = encode_block(entries)
        for cut in range(len(buffer)):
            with pytest.raises(CorruptPostingsError):
                decode_block(buffer[:cut])

    def test_trailing_bytes_raise_typed(self):
        buffer = encode_block([(1, 2, 3)])
        with pytest.raises(CorruptPostingsError):
            decode_block(buffer + b"\x00")

    def test_spliced_blocks_raise_typed(self):
        # Two valid blocks glued together disagree with the first header's
        # entry count — trailing-byte detection must catch the splice.
        a = encode_block([(1, 2, 3), (9, 0, 4)])
        b = encode_block([(4, 1, 1)])
        with pytest.raises(CorruptPostingsError):
            decode_block(a + b)

    def test_random_garbage_never_raises_indexerror(self):
        rng = random.Random(161803)
        for _ in range(300):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 48)))
            try:
                decode_block(blob)
            except CorruptPostingsError:
                pass  # the only acceptable failure

    def test_bitflips_raise_typed_or_decode_consistently(self):
        # A single flipped bit either raises the typed error or yields a
        # block that still satisfies the format invariants (ascending ids,
        # st <= end) — it must never escape as IndexError/ValueError.
        rng = random.Random(271828)
        entries = _random_block_entries(rng, 8)
        buffer = bytearray(encode_block(entries))
        for _ in range(200):
            i = rng.randrange(len(buffer))
            bit = 1 << rng.randrange(8)
            buffer[i] ^= bit
            try:
                ids, sts, ends = decode_block(bytes(buffer))
            except CorruptPostingsError:
                pass
            else:
                assert ids == sorted(ids) and len(set(ids)) == len(ids)
                assert all(st <= end for st, end in zip(sts, ends))
            buffer[i] ^= bit  # restore
