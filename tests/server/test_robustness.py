"""Degradation under pressure: shedding, deadlines, partials, drain."""

import asyncio
import json
import socket
import struct
import threading
import time

import pytest

from repro.server import (
    DaemonClient,
    ServerConfig,
    ServerError,
    TransportError,
    start_daemon_thread,
)
from repro.server import protocol
from repro.server.daemon import QueryDaemon
from repro.server.protocol import encode_frame
from repro.service.store import DurableIndexStore
from repro.utils.locks import AsyncRWLock
from repro.utils.retry import RetryPolicy

from tests.server.conftest import NO_RETRY, Watchdog, make_client


def slow_tenant(registry, name: str, seconds: float):
    """Patch a tenant's query path to stall — the load generator's stand-in.

    A query that sleeps is one the index cannot bound, so its bound is
    ``None`` too: the daemon runs it on the pool, never on its loop.
    """
    tenant = registry.get(name)
    original = tenant.query_partial

    def delayed(q, deadline=None):
        time.sleep(seconds)
        return original(q, deadline)

    tenant.query_partial = delayed
    tenant.work_bound = lambda q: None
    return tenant


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after_hint(self, registry):
        slow_tenant(registry, "docs", 0.6)
        handle = start_daemon_thread(
            registry, ServerConfig(max_inflight=1, max_queue=0)
        )
        try:
            watchdog = Watchdog()

            def occupant():
                with make_client(handle) as c:
                    c.query("docs", 0, 100)

            watchdog.spawn(occupant)
            time.sleep(0.15)  # let the occupant take the only slot
            with make_client(
                handle, retry=NO_RETRY, idempotent_mutations=False
            ) as c:
                with pytest.raises(ServerError) as caught:
                    c.query("docs", 0, 100)
            assert caught.value.code == "overloaded"
            assert caught.value.retry_after_ms > 0
            watchdog.join_all(20)
        finally:
            handle.stop(30)

    def test_client_retry_rides_out_a_shed(self, registry):
        slow_tenant(registry, "docs", 0.4)
        handle = start_daemon_thread(
            registry, ServerConfig(max_inflight=1, max_queue=0)
        )
        try:
            watchdog = Watchdog()

            def occupant():
                with make_client(handle) as c:
                    c.query("docs", 0, 100)

            watchdog.spawn(occupant)
            time.sleep(0.15)
            # Enough attempts that one lands after the occupant finishes.
            with make_client(
                handle, retry=RetryPolicy(max_attempts=8, base_delay=0.1, jitter=0.0)
            ) as c:
                result = c.query("docs", 0, 100)
            assert result["complete"] is True
            watchdog.join_all(20)
        finally:
            handle.stop(30)

    def test_queued_requests_are_admitted_in_arrival_order(self, registry):
        daemon = QueryDaemon(registry, ServerConfig(max_inflight=1, max_queue=8))
        order = []

        async def go():
            deadline = time.monotonic() + 5.0
            assert await daemon._admit(deadline) == "ok"  # the occupant

            async def queued(name):
                assert await daemon._admit(deadline) == "ok"
                order.append(name)

            tasks = []
            for name in ("a", "b", "c"):
                tasks.append(asyncio.create_task(queued(name)))
                await asyncio.sleep(0.01)  # it parks before the next arrives
            assert order == [] and len(daemon._queue) == 3
            for admitted in (["a"], ["a", "b"], ["a", "b", "c"]):
                daemon._release_slot()  # a finishing request hands its slot on
                await asyncio.sleep(0.01)
                assert order == admitted
                assert daemon._executing == 1
            await asyncio.gather(*tasks)
            daemon._release_slot()
            assert daemon._executing == 0 and not daemon._queue

        asyncio.run(go())

    def test_expired_waiter_leaves_the_queue(self, registry):
        daemon = QueryDaemon(registry, ServerConfig(max_inflight=1, max_queue=8))

        async def go():
            assert await daemon._admit(time.monotonic() + 5.0) == "ok"
            assert await daemon._admit(time.monotonic() + 0.02) == "deadline"
            assert not daemon._queue
            daemon._release_slot()  # nobody queued: the slot is freed
            assert daemon._executing == 0

        asyncio.run(go())

    def test_retry_after_floor_applies_even_with_zero_backoff(self):
        """A shedding server's hint is honoured even by a no-delay policy."""
        responses = [
            {
                "id": 1,
                "ok": False,
                "error": {
                    "code": "overloaded",
                    "message": "shed",
                    "retry_after_ms": 40,
                },
            },
            {"id": 1, "ok": True, "result": {"complete": True}},
        ]
        sleeps = []
        client = DaemonClient(
            "127.0.0.1",
            1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            sleep=sleeps.append,
        )
        client._roundtrip = lambda payload: responses.pop(0)
        assert client.request("query", tenant="docs", start=0, end=1) == {
            "complete": True
        }
        assert sleeps == [0.04]


class TestDeadlines:
    def test_deadline_expires_during_execution(self, registry):
        slow_tenant(registry, "docs", 0.5)
        handle = start_daemon_thread(registry, ServerConfig())
        try:
            with make_client(handle, retry=NO_RETRY) as c:
                started = time.monotonic()
                with pytest.raises(ServerError) as caught:
                    c.query("docs", 0, 100, deadline_ms=100)
                elapsed = time.monotonic() - started
            assert caught.value.code == "deadline_exceeded"
            # The error must arrive near the deadline, not after the work.
            assert elapsed < 0.45
        finally:
            handle.stop(30)

    def test_deadline_expires_waiting_for_a_slot(self, registry):
        slow_tenant(registry, "docs", 0.6)
        handle = start_daemon_thread(
            registry, ServerConfig(max_inflight=1, max_queue=8)
        )
        try:
            watchdog = Watchdog()

            def occupant():
                with make_client(handle) as c:
                    c.query("docs", 0, 100)

            watchdog.spawn(occupant)
            time.sleep(0.15)
            with make_client(handle, retry=NO_RETRY) as c:
                with pytest.raises(ServerError) as caught:
                    c.query("docs", 0, 100, deadline_ms=100)
                # The expired waiter left the admission queue with its error.
                assert c.status()["waiting"] == 0
            assert caught.value.code == "deadline_exceeded"
            watchdog.join_all(20)
        finally:
            handle.stop(30)

    def test_deadline_cap_applies(self, registry):
        handle = start_daemon_thread(registry, ServerConfig(max_deadline_ms=500))
        try:
            with make_client(handle) as c:
                # A huge requested deadline is capped, not refused.
                result = c.query("docs", 0, 100, deadline_ms=10_000_000)
            assert result["complete"] is True
        finally:
            handle.stop(30)

    def test_abandoned_write_holds_the_lock_until_the_thread_finishes(
        self, registry
    ):
        """The backstop abandons the await, never the mutual exclusion.

        A mutation that blows its deadline keeps running on its pool
        thread; a later write on the same tenant must not start until
        that thread actually returns — otherwise two mutations overlap
        on a store that is not safe under concurrent mutation.
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.server.daemon import _DeadlineHit

        daemon = QueryDaemon(registry, ServerConfig())
        release = threading.Event()
        events = []

        def stalled():
            events.append("stalled-start")
            release.wait(10)
            events.append("stalled-end")

        async def go():
            daemon._pool = ThreadPoolExecutor(max_workers=2)
            try:
                with pytest.raises(_DeadlineHit):
                    await daemon._run_locked(
                        "docs", stalled, time.monotonic() + 0.05, write=True
                    )
                # The deadline error is out, but the worker thread is
                # still inside the mutation: a second write must wait.
                second = asyncio.get_running_loop().create_task(
                    daemon._run_locked(
                        "docs",
                        lambda: events.append("second"),
                        time.monotonic() + 5.0,
                        write=True,
                    )
                )
                await asyncio.sleep(0.05)
                assert "second" not in events
                release.set()
                await second
            finally:
                release.set()
                daemon._pool.shutdown(wait=True)

        asyncio.run(go())
        assert events == ["stalled-start", "stalled-end", "second"]

    def test_abandoned_query_holds_its_read_lock_until_the_thread_finishes(
        self, registry
    ):
        """The read-side companion: a deadline-abandoned query keeps its
        read hold until its pool thread returns, so a writer queued
        behind it waits for the thread, not just for the deadline."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.server.daemon import _DeadlineHit

        daemon = QueryDaemon(registry, ServerConfig())
        release = threading.Event()
        events = []

        def stalled():
            events.append("query-start")
            release.wait(10)
            events.append("query-end")

        async def go():
            daemon._pool = ThreadPoolExecutor(max_workers=2)
            try:
                with pytest.raises(_DeadlineHit):
                    await daemon._run_locked(
                        "docs", stalled, time.monotonic() + 0.05, write=False
                    )
                write = asyncio.get_running_loop().create_task(
                    daemon._run_locked(
                        "docs",
                        lambda: events.append("write"),
                        time.monotonic() + 5.0,
                        write=True,
                    )
                )
                await asyncio.sleep(0.1)  # well past the query's deadline
                assert "write" not in events
                release.set()
                await write
            finally:
                release.set()
                daemon._pool.shutdown(wait=True)

        asyncio.run(go())
        assert events == ["query-start", "query-end", "write"]


class TestPartialResults:
    def test_dead_shard_degrades_to_partial_with_detail(self, daemon, registry):
        cluster = registry.get("shards").handle
        shard_id = cluster.table.shards[0].shard_id
        cluster.kill_replica(shard_id, 0)
        cluster.kill_replica(shard_id, 1)
        with make_client(daemon, retry=NO_RETRY) as c:
            result = c.query("shards", 0, 20_000)
        assert result["complete"] is False
        assert result["shards_answered"] == result["shards_planned"] - 1
        error = result["shard_errors"][shard_id]
        assert error["code"] == "shard_unavailable"
        assert error["detail"]["shard_id"] == shard_id
        assert error["detail"]["replica_count"] == 2

    def test_deadline_inside_scatter_gather_yields_partial(
        self, daemon, registry
    ):
        cluster = registry.get("shards").handle
        first = cluster.table.shards[0].shard_id
        replica_set = cluster.router.replica_set(first)
        original = replica_set.query

        def slow_query(q):
            time.sleep(0.3)
            return original(q)

        replica_set.query = slow_query
        with make_client(daemon, retry=NO_RETRY) as c:
            result = c.query("shards", 0, 20_000, deadline_ms=150)
        replica_set.query = original
        # Either the backstop fired (deadline error) or the cooperative
        # check degraded the later shards to a partial answer.
        assert result["complete"] is False
        assert any(
            e["code"] == "deadline_exceeded" for e in result["shard_errors"].values()
        )


class TestHostileAttachments:
    """Id-attachment bytes that do not add up: the daemon answers
    ``bad_request`` and hangs up; the client raises, never returns ids."""

    @staticmethod
    def attached(envelope, attachment: bytes) -> bytes:
        head = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
        body = struct.pack("!I", len(head)) + head + attachment
        return struct.pack("!I", (1 << 31) | len(body)) + body

    def test_daemon_refuses_a_flagged_request_and_hangs_up(self, daemon):
        frame = self.attached(
            {"id": 1, "verb": "query", "tenant": "docs", "start": 0, "end": 100,
             "result": {"count": 1}, "id_width": 2},
            b"\x01\x00",
        )
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(frame)
            response = protocol.read_frame_sock(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "attachment" in response["error"]["message"]
            assert protocol.read_frame_sock(sock) is None  # then EOF

    @pytest.mark.parametrize(
        "result, width, attachment",
        [
            ({"count": 1}, 2, b"\x01\x00\x02"),  # not a multiple of the width
            ({"count": 1}, 3, b"\x01\x00\x02"),  # unknown width
            ({}, 2, b"\x01\x00"),  # count missing
            ({"count": -1}, 2, b""),  # negative count
            ({"count": True}, 2, b"\x01\x00"),  # boolean count
            ({"count": 3}, 2, b"\x01\x00\x02\x00"),  # counts do not sum
        ],
        ids=["ragged", "width", "missing", "negative", "bool", "sum"],
    )
    def test_client_raises_on_a_hostile_response(self, result, width, attachment):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        frame = self.attached({"id": 1, "ok": True, "result": result, "id_width": width}, attachment)

        def answer_one_request():  # one attempt: the client does not retry
            conn, _ = server.accept()
            with conn:
                conn.settimeout(5)
                if protocol.read_frame_sock(conn) is not None:
                    conn.sendall(frame)

        thread = threading.Thread(target=answer_one_request, daemon=True)
        thread.start()
        try:
            with DaemonClient("127.0.0.1", port, timeout=5.0, retry=NO_RETRY) as c:
                with pytest.raises(TransportError, match="ProtocolError"):
                    c.query("docs", 0, 100)
        finally:
            server.close()
            thread.join(5)


class TestGracefulDrain:
    def test_drain_answers_in_flight_and_flushes_wals(
        self, tenant_root, registry
    ):
        slow_tenant(registry, "docs", 0.25)
        handle = start_daemon_thread(registry, ServerConfig(max_inflight=4))
        results = []
        watchdog = Watchdog()
        inserted = threading.Barrier(5)

        def worker(object_id):
            with make_client(handle) as c:
                c.insert("docs", object_id, 10, 20, ["drained"])
                inserted.wait(10)
                results.append(c.query("docs", 0, 100)["complete"])

        for i in range(4):
            watchdog.spawn(worker, 700_000 + i)
        inserted.wait(10)
        time.sleep(0.15)  # let the slow queries enter execution
        report = handle.stop(30)
        watchdog.join_all(30)
        assert len(results) == 4 and all(results)
        assert report["abandoned"] == 0
        # New connections are refused after the drain.
        client = DaemonClient("127.0.0.1", handle.port, retry=NO_RETRY)
        from repro.server import TransportError

        with pytest.raises(TransportError):
            client.ping()
        # The WAL was flushed on drain: a fresh open sees every ack'd write.
        store = DurableIndexStore.open(tenant_root / "docs", wal_fsync=False)
        try:
            from repro.core.model import make_query

            ids = store.query(make_query(10, 20, {"drained"})).tolist()
            assert set(ids) == {700_000, 700_001, 700_002, 700_003}
        finally:
            store.close()

    def test_new_work_during_drain_is_refused_with_shutting_down(self, registry):
        daemon = QueryDaemon(registry, ServerConfig())
        daemon._draining = True

        async def go():
            return await daemon._handle_request(
                {"id": 1, "verb": "query", "tenant": "docs", "start": 0, "end": 1}
            )

        response = asyncio.run(go())
        assert response["ok"] is False
        assert response["error"]["code"] == "shutting_down"

    def test_control_verbs_still_answer_during_drain(self, registry):
        daemon = QueryDaemon(registry, ServerConfig())
        daemon._draining = True

        async def go():
            return await daemon._handle_request({"id": 2, "verb": "status"})

        response = asyncio.run(go())
        assert response["ok"] is True
        assert response["result"]["draining"] is True

    def test_drain_waits_for_an_abandoned_thread_before_closing_wals(
        self, registry
    ):
        from concurrent.futures import ThreadPoolExecutor

        from repro.server.daemon import _DeadlineHit

        daemon = QueryDaemon(registry, ServerConfig(drain_timeout=5.0))
        finished = threading.Event()

        def stalled():
            time.sleep(0.3)
            finished.set()

        async def go():
            daemon._pool = ThreadPoolExecutor(max_workers=1)
            daemon._drain_requested = asyncio.Event()
            with pytest.raises(_DeadlineHit):
                await daemon._run_locked(
                    "docs", stalled, time.monotonic() + 0.05, write=True
                )
            return await daemon.drain()

        report = asyncio.run(go())
        # The abandoned thread was waited out before the WAL flush, so
        # close_all ran against quiescent stores.
        assert finished.is_set()
        assert report["wedged_threads"] == 0
        assert registry.get("docs").handle.closed


class StuckTransport:
    """A socket whose kernel buffer takes nothing once ``stuck``; like
    asyncio's transports, a write that leaves bytes buffered past the
    high-water mark calls the protocol's ``pause_writing``."""

    def __init__(self, stuck: bool) -> None:
        self.stuck = stuck
        self.written = b""
        self.aborted = False
        self.reading = True
        self.high = None
        self.protocol = None

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        self.high = high

    def write(self, data: bytes) -> None:
        self.written += data
        if self.stuck and len(self.written) > self.high:
            self.protocol.pause_writing()

    def is_closing(self) -> bool:
        return self.aborted

    def abort(self) -> None:
        self.aborted = True

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


def connect_stuck(daemon: QueryDaemon, stuck: bool):
    from repro.server.daemon import _Connection

    conn = _Connection(daemon)
    transport = StuckTransport(stuck)
    transport.protocol = conn
    conn.connection_made(transport)
    return conn, transport


class TestSlowClients:
    def test_write_timeout_aborts_the_connection(self, registry):
        daemon = QueryDaemon(registry, ServerConfig(write_timeout=0.05))

        async def go():
            conn, transport = connect_stuck(daemon, stuck=True)
            conn.data_received(encode_frame({"id": 1, "verb": "ping"}))
            waiting = conn._write_timer is not None and not transport.reading
            aborted_early = transport.aborted
            await asyncio.sleep(0.2)
            return transport, waiting, aborted_early

        transport, waiting, aborted_early = asyncio.run(go())
        assert waiting  # one timed wait for the socket, reading paused
        assert aborted_early is False
        assert transport.aborted is True

    def test_response_written_in_full_never_awaits_drain(self, registry):
        daemon = QueryDaemon(registry, ServerConfig(write_timeout=0.05))
        response = {"id": 1, "ok": True, "result": {"pong": True}}

        async def go():
            conn, transport = connect_stuck(daemon, stuck=False)
            conn.data_received(encode_frame({"id": 1, "verb": "ping"}))
            return conn, transport

        conn, transport = asyncio.run(go())
        assert conn._write_timer is None and transport.reading
        assert transport.aborted is False
        assert transport.written == encode_frame(response)


class TestAsyncRWLock:
    def test_readers_share_writers_exclude(self):
        async def go():
            lock = AsyncRWLock()
            order = []

            async def reader(name):
                await lock.acquire_read()
                order.append(f"+{name}")
                await asyncio.sleep(0.05)
                order.append(f"-{name}")
                lock.release_read()

            async def writer():
                await lock.acquire_write()
                order.append("+w")
                order.append("-w")
                lock.release_write()

            await asyncio.gather(reader("a"), reader("b"), writer())
            return order

        order = asyncio.run(go())
        # Both readers overlapped (writer excluded until they finish).
        assert order.index("+w") > order.index("-a")
        assert order.index("+w") > order.index("-b")

    def test_queued_writer_blocks_new_readers(self):
        """Writer preference: continuous reads cannot starve a write."""

        async def go():
            lock = AsyncRWLock()
            order = []

            async def writer():
                await lock.acquire_write()
                order.append("w")
                lock.release_write()

            async def late_reader():
                await lock.acquire_read()
                order.append("r2")
                lock.release_read()

            await lock.acquire_read()  # a long-running query in flight
            w = asyncio.create_task(writer())
            await asyncio.sleep(0.01)  # the writer is now queued
            r2 = asyncio.create_task(late_reader())
            await asyncio.sleep(0.01)
            assert order == []  # the late reader waits behind the writer
            lock.release_read()
            await asyncio.gather(w, r2)
            return order

        assert asyncio.run(go()) == ["w", "r2"]

    def test_cancelled_writer_wakes_waiting_readers(self):
        async def go():
            lock = AsyncRWLock()
            await lock.acquire_read()
            w = asyncio.create_task(lock.acquire_write())
            await asyncio.sleep(0.01)
            r2 = asyncio.create_task(lock.acquire_read())
            await asyncio.sleep(0.01)
            w.cancel()  # deadline expired while queued
            await asyncio.gather(w, return_exceptions=True)
            await asyncio.wait_for(r2, 1.0)  # reader must not hang
            lock.release_read()
            lock.release_read()

        asyncio.run(go())
