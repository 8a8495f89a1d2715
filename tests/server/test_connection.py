"""The connection layer: how bytes on one connection become dispatches and
responses.

Most tests drive a :class:`~repro.server.daemon._Connection` directly
through a recording transport that behaves like asyncio's (a write that
leaves bytes buffered past the high-water mark calls ``pause_writing``);
the ordering and drain tests go through a live daemon's socket.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.server import ServerConfig, start_daemon_thread
from repro.server.daemon import QueryDaemon, _Connection
from repro.server.protocol import MAX_FRAME_BYTES, encode_frame, read_frame_sock
from repro.service.faults import NET_CLOSE, NET_DELAY, NET_DROP, NetFaultPlan, NetworkFaultInjector

from tests.server.conftest import _stop_quietly

QUERY = {"verb": "query", "tenant": "docs", "start": 0, "end": 5_000, "elements": ["e0", "e3"]}


class RecordingTransport:
    """What the daemon writes, and what it asks of the socket."""

    def __init__(self, stuck: bool = False) -> None:
        self.stuck = stuck  # the peer reads nothing: every byte stays buffered
        self.written = b""
        self.closed = False
        self.aborted = False
        self.reading = True
        self.high = None
        self.protocol = None

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        self.high = high

    def get_write_buffer_size(self) -> int:
        return len(self.written) if self.stuck else 0

    def write(self, data: bytes) -> None:
        self.written += data
        if self.get_write_buffer_size() > self.high:
            self.protocol.pause_writing()

    def is_closing(self) -> bool:
        return self.closed or self.aborted

    def close(self) -> None:
        self.closed = True

    def abort(self) -> None:
        self.aborted = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def connect(daemon: QueryDaemon, transport: RecordingTransport) -> _Connection:
    conn = _Connection(daemon)
    transport.protocol = conn
    conn.connection_made(transport)
    return conn


def responses(data: bytes):
    """Decode every frame in ``data``."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        out = []
        while True:
            frame = read_frame_sock(right)
            if frame is None:
                return out
            out.append(frame)
    finally:
        right.close()


def run(daemon: QueryDaemon, go):
    async def main():
        await daemon.start()
        try:
            return await go()
        finally:
            await daemon.drain()

    return asyncio.run(main())


class TestFraming:
    def test_a_request_split_at_every_byte_answers_identically(self, registry):
        daemon = QueryDaemon(registry, ServerConfig())
        frame = encode_frame({"id": 7, **QUERY})

        async def go():
            whole = RecordingTransport()
            connect(daemon, whole).data_received(frame)
            splits = []
            for cut in range(1, len(frame)):
                transport = RecordingTransport()
                conn = connect(daemon, transport)
                conn.data_received(frame[:cut])
                assert transport.written == b""  # nothing before the frame is whole
                conn.data_received(frame[cut:])
                splits.append(transport.written)
            return whole.written, splits

        whole, splits = run(daemon, go)
        assert responses(whole)[0]["ok"] is True
        assert all(written == whole for written in splits)

    def test_three_frames_in_one_segment_answer_in_request_order(self, daemon):
        frames = [
            encode_frame({"id": 1, **QUERY, "start": 15, "end": 15}),
            encode_frame({
                "id": 2, "verb": "insert", "tenant": "docs", "object_id": 900_001,
                "start": 10, "end": 20, "elements": ["e0", "e3"],
            }),
            encode_frame({"id": 3, **QUERY, "start": 15, "end": 15}),
        ]
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
            sock.sendall(b"".join(frames))
            got = [read_frame_sock(sock) for _ in frames]
        assert [r["id"] for r in got] == [1, 2, 3]
        assert all(r["ok"] for r in got)
        # The write (a pool hop) finished before the read behind it ran.
        assert 900_001 not in got[0]["result"]["ids"]
        assert got[1]["result"] == {"inserted": 900_001}
        assert 900_001 in got[2]["result"]["ids"]

    @pytest.mark.parametrize(
        "first",
        [
            # a declared length over the limit: refused on the header alone
            struct.pack("!I", MAX_FRAME_BYTES + 1),
            # the attachment bit on a request: refused once the frame is in
            struct.pack("!I", (1 << 31) | 2) + b"{}",
        ],
        ids=["oversized", "attachment-bit"],
    )
    def test_a_framing_violation_gets_one_bad_request_and_a_hang_up(self, registry, first):
        daemon = QueryDaemon(registry, ServerConfig())

        async def go():
            transport = RecordingTransport()
            conn = connect(daemon, transport)
            conn.data_received(first)
            buffered = len(conn._buffer)
            conn.data_received(b"{}")  # nothing after it is served
            return transport, buffered

        transport, buffered = run(daemon, go)
        (refusal,) = responses(transport.written)
        assert refusal["ok"] is False and refusal["error"]["code"] == "bad_request"
        assert transport.closed and buffered == 0

    @pytest.mark.parametrize("partial", [b"\x00\x00", struct.pack("!I", 500) + b'{"id":'])
    def test_eof_mid_frame_closes_quietly(self, daemon, partial):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
            sock.sendall(partial)
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1) == b""  # hung up, nothing said
        deadline = time.monotonic() + 5
        while daemon.daemon._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon.daemon._active == 0
        assert not daemon.daemon._connections


    def test_eof_behind_a_request_that_waits_still_gets_its_answer(self, daemon):
        insert = {"verb": "insert", "tenant": "docs", "object_id": 900_002,
                  "start": 10, "end": 20, "elements": ["e0"]}
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
            sock.sendall(encode_frame({"id": 1, **insert}))
            sock.shutdown(socket.SHUT_WR)  # the pool hop is still running
            assert read_frame_sock(sock)["result"] == {"inserted": 900_002}
            assert sock.recv(1) == b""  # then the daemon hangs up


class TestInjectedFaults:
    @pytest.mark.parametrize("side", ["recv", "send"])
    def test_drop_delay_and_close(self, registry, side):
        plan = {1: (NET_DROP,), 2: (NET_DELAY, 0.05), 3: (NET_CLOSE,)}
        if side == "recv":
            injector = NetworkFaultInjector(NetFaultPlan(recv_actions=plan))
        else:
            injector = NetworkFaultInjector(NetFaultPlan(send_actions=plan))
        daemon = QueryDaemon(registry, ServerConfig(), net_faults=injector)

        def ping(request_id):
            return encode_frame({"id": request_id, "verb": "ping"})

        async def go():
            transport = RecordingTransport()
            conn = connect(daemon, transport)
            conn.data_received(ping(1))
            dropped = transport.written
            conn.data_received(ping(2))
            delayed_at_once = transport.written
            paused = conn._task is not None
            await asyncio.sleep(0.15)
            delayed = responses(transport.written)
            conn.data_received(ping(3))
            return transport, dropped, delayed_at_once, paused, delayed

        transport, dropped, delayed_at_once, paused, delayed = run(daemon, go)
        assert dropped == b""  # lost: the client retries
        assert delayed_at_once == b"" and paused  # a delay waits as the connection's task
        assert [r["id"] for r in delayed] == [2]
        # Close: a receive-side close hangs up; a send-side one aborts.
        assert transport.closed if side == "recv" else transport.aborted
        assert injector.actions_fired == 3


class TestDrain:
    def test_drain_severs_an_idle_connection(self, registry):
        handle = start_daemon_thread(registry, ServerConfig())
        try:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
                sock.sendall(encode_frame({"id": 1, "verb": "ping"}))
                assert read_frame_sock(sock)["ok"] is True
                report = handle.stop(timeout=30.0)
                assert sock.recv(1) == b""  # severed
        finally:
            _stop_quietly(handle)
        assert report == {"in_flight_at_drain": 0, "abandoned": 0, "wedged_threads": 0}
