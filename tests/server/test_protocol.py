"""Wire framing: round-trips, limits, torn-stream detection, and the id
attachment of answer-carrying responses."""

import asyncio
import json
import random
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.answer import as_answer
from repro.server import protocol
from repro.server.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_response,
    ok_response,
    read_frame,
    read_frame_sock,
    write_frame_sock,
)


def read_from_bytes(blob: bytes):
    """Drive the async reader from a closed in-memory stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(blob)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_round_trip(self):
        payload = {"id": 1, "verb": "query", "elements": ["a", "β"], "start": 0.5}
        frame = encode_frame(payload)
        got = read_from_bytes(frame)
        assert got is not None
        decoded, nbytes = got
        assert decoded == payload
        assert nbytes == len(frame)

    def test_clean_eof_is_none(self):
        assert read_from_bytes(b"") is None

    def test_mid_header_close_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="mid-header"):
            read_from_bytes(b"\x00\x00")

    def test_mid_frame_close_is_a_protocol_error(self):
        frame = encode_frame({"id": 1})
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_from_bytes(frame[:-2])

    def test_oversized_declaration_is_refused_before_reading(self):
        header = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_from_bytes(header)

    def test_oversized_payload_is_refused_at_encode_time(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_payload_is_refused(self):
        frame = struct.pack("!I", 2) + b"[]"
        with pytest.raises(ProtocolError, match="JSON object"):
            read_from_bytes(frame)

    def test_malformed_json_is_refused(self):
        frame = struct.pack("!I", 3) + b"{{{"
        with pytest.raises(ProtocolError, match="malformed"):
            read_from_bytes(frame)

    def test_decode_payload_requires_utf8(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe{}")


class TestBlockingSockets:
    def test_blocking_round_trip_matches_async_framing(self):
        a, b = socket.socketpair()
        try:
            payload = {"id": 9, "verb": "ping"}
            echoed = {}

            def server():
                got = read_frame_sock(b)
                echoed.update(got)
                write_frame_sock(b, ok_response(got["id"], {"pong": True}))

            thread = threading.Thread(target=server)
            thread.start()
            write_frame_sock(a, payload)
            response = read_frame_sock(a)
            thread.join(5)
            assert echoed == payload
            assert response == {"id": 9, "ok": True, "result": {"pong": True}}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        b.close()
        try:
            assert read_frame_sock(a) is None
        finally:
            a.close()

    def test_mid_frame_close_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"id": 1, "verb": "ping"})
            b.sendall(frame[:-3])
            b.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame_sock(a)
        finally:
            a.close()


class TestEnvelopes:
    def test_ok_envelope(self):
        assert ok_response(3, {"x": 1}) == {"id": 3, "ok": True, "result": {"x": 1}}

    def test_error_envelope_carries_structure(self):
        response = error_response(
            4, "overloaded", "busy", retry_after_ms=50, detail={"q": 16}
        )
        assert response == {
            "id": 4,
            "ok": False,
            "error": {
                "code": "overloaded",
                "message": "busy",
                "retry_after_ms": 50,
                "detail": {"q": 16},
            },
        }

    def test_error_codes_are_a_closed_set(self):
        assert "overloaded" in ERROR_CODES
        assert "deadline_exceeded" in ERROR_CODES
        with pytest.raises(AssertionError):
            error_response(1, "made-up-code", "nope")


# ------------------------------------------------------------ id attachments
I64_MAX = (1 << 63) - 1


def parent_frame(payload) -> bytes:
    """A frame as the JSON-only protocol wrote every one."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack("!I", len(body)) + body


def query_response(request_id, ids, **extra):
    answer = as_answer(ids)
    result = {"ids": answer, "count": len(answer), "complete": True,
              "shards_planned": 1, "shards_answered": 1, **extra}
    return ok_response(request_id, result)


def batch_response(request_id, answers):
    results = [query_response(0, ids)["result"] for ids in answers]
    return ok_response(request_id, {"results": results, "complete": True})


def attached(envelope, attachment: bytes, head_length=None) -> bytes:
    """A hand-built attachment frame: flag, envelope length, envelope, ids."""
    head = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    declared = len(head) if head_length is None else head_length
    body = struct.pack("!I", declared) + head + attachment
    return struct.pack("!I", (1 << 31) | len(body)) + body


def read_sock(frame: bytes):
    """Decode one frame through the blocking (client-side) reader."""
    a, b = socket.socketpair()
    try:
        b.sendall(frame)
        return protocol.read_frame_sock(a)
    finally:
        a.close()
        b.close()


class TestAttachment:
    def test_golden_request_frame(self):
        frame = encode_frame(
            {"id": 7, "verb": "query", "tenant": "docs", "start": 0, "end": 9, "elements": ["a"]}
        )
        assert frame == (
            b'\x00\x00\x00J{"id":7,"verb":"query","tenant":"docs",'
            b'"start":0,"end":9,"elements":["a"]}'
        )

    def test_golden_query_response_frame(self):
        frame = encode_frame(query_response(7, [2, 4, 7]))
        envelope = (
            b'{"id":7,"ok":true,"result":{"count":3,"complete":true,'
            b'"shards_planned":1,"shards_answered":1},"id_width":2}'
        )
        assert frame == (
            struct.pack("!I", (1 << 31) | (4 + len(envelope) + 6))
            + struct.pack("!I", len(envelope)) + envelope
            + b"\x02\x00\x04\x00\x07\x00"
        )

    def test_frames_without_arrays_are_the_json_frames_of_old(self):
        payloads = [
            {"id": 1, "verb": "query", "tenant": "docs", "start": 0, "end": 9, "elements": ["a", "β"]},
            {"id": 2, "verb": "batch", "tenant": "docs", "queries": [{"start": 0, "end": 1}]},
            {"id": 3, "verb": "insert", "tenant": "docs", "object_id": 5, "start": 0, "end": 1},
            ok_response(4, {"pong": True}),
            ok_response(5, {"ids": [1, 2], "count": 2}),  # a list stays JSON
            ok_response(6, {"results": []}),
            error_response(7, "overloaded", "busy", retry_after_ms=50),
        ]
        for payload in payloads:
            assert encode_frame(payload) == parent_frame(payload)

    def test_width_is_the_narrowest_holding_the_largest_id(self):
        for top, width in ((0, 2), (65_535, 2), (65_536, 4), (2**32 - 1, 4), (2**32, 8), (I64_MAX, 8)):
            frame = encode_frame(query_response(1, [top]))
            decoded = read_sock(frame)
            assert decoded["result"]["ids"].tolist() == [top]
            assert len(frame) == len(encode_frame(query_response(1, [0]))) - 2 + width
        # a batch is as wide as its largest id anywhere
        frame = encode_frame(batch_response(1, [[1], [], [70_000]]))
        (head_length,) = struct.unpack_from("!I", frame, 4)
        assert json.loads(frame[8 : 8 + head_length])["id_width"] == 4
        assert len(frame) == 8 + head_length + 2 * 4

    def test_decoded_answers_are_frozen_int64_arrays(self):
        for decoded in (read_from_bytes(encode_frame(batch_response(3, [[1, 2], [], [9]])))[0],
                        read_sock(encode_frame(batch_response(3, [[1, 2], [], [9]])))):
            results = decoded["result"]["results"]
            assert [r["ids"].tolist() for r in results] == [[1, 2], [], [9]]
            for result in results:
                assert type(result["ids"]) is np.ndarray and result["ids"].dtype == np.int64
                assert not result["ids"].flags.writeable

    def test_round_trip_property(self):
        """``encode_frame(decode(f)) == f`` over random answers: empty ones,
        batches mixing empty and non-empty results, every width, and the
        largest id an answer holds."""
        rng = random.Random(20250806)
        tops = (0, 9, 65_535, 65_536, 2**32 - 1, 2**32, I64_MAX)

        def random_answer():
            top = rng.choice(tops)
            size = rng.choice((0, 0, 1, 2, rng.randint(3, 400)))
            ids = sorted({rng.randint(0, top) for _ in range(size)})
            if ids and rng.random() < 0.3:
                ids[-1] = top  # the frame's largest id at its width's edge
            return ids

        for request_id in range(300):
            if rng.random() < 0.5:
                answers = [random_answer()]
                payload = query_response(request_id, answers[0])
            else:
                answers = [random_answer() for _ in range(rng.randint(1, 8))]
                payload = batch_response(request_id, answers)
            frame = encode_frame(payload)
            for decoded in (read_from_bytes(frame)[0], read_sock(frame)):
                assert encode_frame(decoded) == frame
                result = decoded["result"]
                got = [r["ids"].tolist() for r in result.get("results", [result])]
                assert got == answers

    def test_largest_id_round_trips(self):
        frame = encode_frame(query_response(1, [0, I64_MAX]))
        assert read_sock(frame)["result"]["ids"].tolist() == [0, I64_MAX]
        assert encode_frame(read_sock(frame)) == frame

    def test_oversized_answer_is_refused_at_encode_time(self):
        ids = np.arange(I64_MAX - 140_000, I64_MAX, dtype=np.int64)  # 8 bytes each
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(query_response(1, ids))


def envelope(result, width=2):
    return {"id": 1, "ok": True, "result": result, "id_width": width}


class TestHostileAttachments:
    """Attachment bytes that do not add up are a ProtocolError from both
    readers, never a wrong answer."""

    def assert_refused(self, frame, match):
        with pytest.raises(ProtocolError, match=match):
            read_from_bytes(frame)
        with pytest.raises(ProtocolError, match=match):
            read_sock(frame)

    def test_the_flag_on_a_request_frame(self):
        frame = attached({"id": 1, "verb": "query", "tenant": "docs", "result": {"count": 0}, "id_width": 2}, b"")

        async def as_daemon():
            reader = asyncio.StreamReader()
            reader.feed_data(frame)
            reader.feed_eof()
            return await read_frame(reader, attachments=False)

        with pytest.raises(ProtocolError, match="request frame carries no id attachment"):
            asyncio.run(as_daemon())

    def test_attachment_not_a_multiple_of_its_width(self):
        self.assert_refused(attached(envelope({"count": 1}, width=4), b"\x01\x00\x00\x00\x02\x00"), "multiple of width 4")

    def test_unknown_width(self):
        for width in (3, 16, 0, None, "2", True, 2.0):
            self.assert_refused(attached(envelope({"count": 1}, width=width), b"\x01\x00"), "unknown id width")
        self.assert_refused(attached({"id": 1, "ok": True, "result": {"count": 1}}, b"\x01\x00"), "unknown id width")

    def test_counts_missing(self):
        for result in ({}, None, [1], {"results": [{"count": 1}, {}]}, {"results": []}, {"results": "x"}):
            self.assert_refused(attached(envelope(result), b"\x01\x00"), "count|results")
        self.assert_refused(attached({"id": 1, "ok": True, "id_width": 2}, b"\x01\x00"), "count")

    def test_counts_negative_or_boolean(self):
        self.assert_refused(attached(envelope({"count": -1}), b""), "non-negative int count")
        self.assert_refused(attached(envelope({"count": True}), b"\x01\x00"), "non-negative int count")
        self.assert_refused(attached(envelope({"count": 1.0}), b"\x01\x00"), "non-negative int count")
        self.assert_refused(
            attached(envelope({"results": [{"count": 2}, {"count": -1}]}), b"\x01\x00"),
            "non-negative int count",
        )

    def test_counts_not_summing_to_the_attachment(self):
        self.assert_refused(attached(envelope({"count": 2}), b"\x01\x00"), "counts sum to 2")
        self.assert_refused(attached(envelope({"count": 0}), b"\x01\x00"), "counts sum to 0")
        self.assert_refused(
            attached(envelope({"results": [{"count": 1}, {"count": 1}]}), b"\x01\x00\x02\x00\x03\x00"),
            "counts sum to 2",
        )

    def test_envelope_length_past_the_body(self):
        body_envelope = envelope({"count": 1})
        head = len(json.dumps(body_envelope, separators=(",", ":")))
        self.assert_refused(attached(body_envelope, b"\x01\x00", head_length=head + 3), "runs past")
        self.assert_refused(attached(body_envelope, b"", head_length=2**31 - 1), "runs past")
        short = struct.pack("!I", (1 << 31) | 2) + b"\x00\x00"
        self.assert_refused(short, "too short")

    def test_ids_that_are_no_answer(self):
        past_i64 = struct.pack("<Q", 1 << 63)
        self.assert_refused(attached(envelope({"count": 1}, width=8), past_i64), "past 2\\*\\*63")
        self.assert_refused(attached(envelope({"count": 2}), b"\x02\x00\x01\x00"), "not strictly ascending")
        self.assert_refused(attached(envelope({"count": 2}), b"\x02\x00\x02\x00"), "not strictly ascending")
        # answers meet at a boundary in any order; within one they ascend
        frame = attached(envelope({"results": [{"count": 1}, {"count": 2}]}), b"\x05\x00\x01\x00\x02\x00")
        assert [r["ids"].tolist() for r in read_sock(frame)["result"]["results"]] == [[5], [1, 2]]
        bad = attached(envelope({"results": [{"count": 2}, {"count": 1}]}), b"\x05\x00\x01\x00\x02\x00")
        self.assert_refused(bad, "not strictly ascending")
