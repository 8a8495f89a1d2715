"""The resilient asyncio query daemon.

Robustness is the architecture here, not a feature flag.  Every request
carries a deadline (defaulted and capped by the server); every queue is
bounded (admission control sheds with a structured ``overloaded`` error
and a retry-after hint instead of building an unbounded backlog); every
write to a client is timed (a slow reader gets disconnected, not a
daemon with an ever-growing outbound buffer); and shutdown is a drain
(stop accepting, let in-flight work finish or deadline out, flush every
tenant's WAL, exit) rather than a drop.

Concurrency model
-----------------
One asyncio loop owns all socket I/O and the admission state.  Index
work is synchronous CPU-bound Python, so admitted requests execute on a
bounded thread pool (``max_inflight`` workers — the pool *is* the
capacity; a full pool parks requests in a FIFO that finishing requests
hand their slots to).  Per tenant, a read/write lock lets queries
overlap while mutations get exclusivity (the WAL and the in-memory index
are not safe under concurrent mutation).  A cheap store read skips the
pool: when admission granted its slot without queueing, the tenant's
read lock is free without waiting, and the index bounds the postings the
read touches (``work_bound``) within :data:`INLINE_BUDGET`, the read runs
on the loop and releases its hold before the coroutine next yields — so
it can delay the loop no longer than a pool thread holding the GIL
would.  Mutations, cluster reads and unbounded or over-budget reads take
the pool.  Deadlines are enforced cooperatively at shard boundaries
inside the cluster scatter-gather
(:meth:`~repro.cluster.ClusterRouter.query_partial`) and by one loop
timer per wait: admission queue, lock queue, pool call; an inline read
is bounded by the budget instead of a timer.  An expired
execution backstop abandons the *result*, not the thread — a
pathological query can at worst occupy one of ``max_inflight`` slots
until it returns.  The tenant lock stays held until that thread really
finishes (the pool future's done-callback releases it), so an abandoned
mutation can never overlap a later one on the same store; drain likewise
waits for outstanding pool futures before flushing WALs.  Uncontended,
a request creates no task; an inline read never suspends, and any other
request suspends once, on the pool hop.

Fault injection
---------------
A :class:`~repro.service.faults.NetworkFaultInjector` may be installed;
the daemon consults it once per received frame and once per sent frame
and executes the planned drop/delay/close — the chaos suite's hook.

Observability plane
-------------------
Every work request gets a :class:`~repro.obs.context.RequestTrace`
(adopting the client's ``trace`` context when present) whose spans cover
ingress, admission wait, tenant-lock wait, and execution (``inline``
says whether it ran on the loop or the pool) — a pool thread re-parents the cluster router's per-shard/per-replica
spans beneath the ``execute`` span, so one stitched tree attributes a
slow request to its actual phase.  Head-based sampling keeps the cost
near zero at low rates; errors and deadline misses are force-captured
regardless.  Finished traces feed a bounded buffer, the slow-query log,
and per-tenant SLO windows, all exported by the ``introspect`` verb (see
``docs/observability.md``).
"""

from __future__ import annotations

import asyncio
import random
import signal
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster import PartialResult
from repro.core.answer import NO_IDS
from repro.core.errors import (
    DuplicateObjectError,
    InvalidObjectError,
    InvalidQueryError,
    ReproError,
    ShardUnavailableError,
    StoreClosedError,
    UnknownObjectError,
)
from repro.core.model import TimeTravelQuery, make_object, make_query
from repro.obs.context import (
    RequestTrace,
    TraceContext,
    Tracer,
    capture_active,
    span,
    under,
)
from repro.obs.events import EventLog, SlowQueryLog
from repro.obs.registry import OBS
from repro.obs.slo import SloAccountant
from repro.server import protocol
from repro.server.introspect import introspect
from repro.server.protocol import (
    E_BAD_REQUEST,
    E_CONFLICT,
    E_DEADLINE,
    E_INTERNAL,
    E_NOT_FOUND,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_UNAVAILABLE,
    E_UNKNOWN_TENANT,
)
from repro.server.tenants import TenantRegistry, UnknownTenantError
from repro.service.faults import (
    NET_CLOSE,
    NET_DELAY,
    NET_DROP,
    InjectedDisconnect,
    NetworkFaultInjector,
)
from repro.utils.locks import AsyncRWLock

#: Verbs that go through admission control and the executor pool.
WORK_VERBS = frozenset({"query", "batch", "insert", "delete"})

#: Cheap control-plane verbs answered inline on the event loop.
CONTROL_VERBS = frozenset({"status", "metrics", "ping", "shutdown", "introspect"})

ALL_VERBS = WORK_VERBS | CONTROL_VERBS

#: Postings entries a store read may touch and still run on the event loop
#: instead of the pool (see ``docs/server.md``, "Request path").  The
#: smallest power of two covering every read of the ledger's
#: ``daemon-query`` mix at 2·10⁴ objects; on packed postings, the one
#: layout every index uses, the slowest of those takes about 0.5 ms, a
#: tenth of ``sys.getswitchinterval()`` (5 ms), the longest the loop
#: already waits while a pool thread holds the GIL.
INLINE_BUDGET = 1 << 16


@dataclass
class ServerConfig:
    """Every robustness knob in one place (see ``docs/server.md``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands in QueryDaemon.port
    max_inflight: int = 8  # executor pool width = hard execution capacity
    max_queue: int = 16  # admitted-but-waiting bound; beyond this → shed
    default_deadline_ms: int = 2_000
    max_deadline_ms: int = 60_000
    write_timeout: float = 5.0  # slow-client response-write bound
    drain_timeout: float = 10.0  # in-flight grace on shutdown
    # Extra time past the deadline granted to *cluster* queries so the
    # cooperative scatter-gather can surface the partial result it was
    # building (a mid-shard probe cannot be interrupted, only awaited a
    # little longer or abandoned).  Store queries get no grace: they are
    # one atomic probe, so the backstop abandons them exactly on time.
    deadline_grace: float = 0.5
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    retry_after_ms: int = 50  # hint attached to shed responses
    # --- observability plane (tracing, slow-query log, SLO windows) ---
    trace_sample_rate: float = 0.01  # head-based sampling of work requests
    trace_buffer: int = 256  # finished traces kept for `introspect`
    trace_seed: Optional[int] = None  # deterministic sampling/ids in tests
    slow_query_ms: Optional[float] = 500.0  # None disables; 0.0 logs all
    slow_log_path: Optional[str] = None  # JSONL sink for the event log
    event_log_capacity: int = 256
    slo_window: int = 512  # per-tenant rolling sample count
    slo_horizon_s: float = 60.0
    slo_latency_ms: float = 250.0  # latency objective feeding burn rate
    slo_error_budget: float = 0.01
    slo_max_tenants: int = 64  # beyond this, windows collapse to __other__

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ReproError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.default_deadline_ms < 1 or self.max_deadline_ms < 1:
            raise ReproError("deadlines must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ReproError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if self.trace_buffer < 1:
            raise ReproError(f"trace_buffer must be >= 1, got {self.trace_buffer}")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ReproError(
                f"slow_query_ms must be >= 0 or None, got {self.slow_query_ms}"
            )


class QueryDaemon:
    """One serving daemon over a :class:`TenantRegistry`."""

    def __init__(
        self,
        tenants: TenantRegistry,
        config: Optional[ServerConfig] = None,
        *,
        net_faults: Optional[NetworkFaultInjector] = None,
    ) -> None:
        self.tenants = tenants
        self.config = config or ServerConfig()
        self.net_faults = net_faults
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_futures: Set["Future[Any]"] = set()
        self._locks: Dict[str, AsyncRWLock] = {}
        self._writers: Set[asyncio.StreamWriter] = set()
        self._executing = 0
        self._queue: Deque["asyncio.Future[bool]"] = deque()  # admission FIFO
        self._active = 0  # requests between dispatch and response-sent
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_report: Dict[str, int] = {}
        # Observability plane: tracer + event/slow-query logs + SLO windows.
        cfg = self.config
        self.tracer = Tracer(
            sample_rate=cfg.trace_sample_rate,
            capacity=cfg.trace_buffer,
            rng=random.Random(cfg.trace_seed) if cfg.trace_seed is not None else None,
        )
        self.events = EventLog(cfg.event_log_capacity, cfg.slow_log_path)
        self.slow_log = SlowQueryLog(self.events, cfg.slow_query_ms)
        self.slo = SloAccountant(
            capacity=cfg.slo_window,
            horizon_s=cfg.slo_horizon_s,
            latency_slo_ms=cfg.slo_latency_ms,
            error_budget=cfg.slo_error_budget,
            max_tenants=cfg.slo_max_tenants,
        )
        self._trace_drops_seen = 0

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the socket and start accepting (loop-owned state born here)."""
        self._drain_requested = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-server",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_drain(self) -> None:
        """Flag the daemon to drain (signal handlers and the harness call this)."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run_until_drained(
        self, *, install_signal_handlers: bool = True
    ) -> Dict[str, int]:
        """Serve until a drain is requested, then drain; the CLI main loop.

        SIGTERM and SIGINT both trigger the graceful path: stop accepting,
        answer (or deadline-out) everything in flight, flush WALs, return.
        """
        if self._server is None:
            await self.start()
        assert self._drain_requested is not None
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_drain)
        await self._drain_requested.wait()
        return await self.drain()

    async def drain(self) -> Dict[str, int]:
        """Graceful shutdown; returns ``{"in_flight_at_drain", "abandoned"}``."""
        if self._draining:
            return self._drain_report
        self._draining = True
        self._count(lambda i: i.drains.inc())
        in_flight = self._active
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let in-flight work finish: every admitted request has a deadline,
        # so this loop is bounded even without the drain_timeout backstop.
        grace_until = time.monotonic() + self.config.drain_timeout
        while self._active and time.monotonic() < grace_until:
            await asyncio.sleep(0.005)
        abandoned = self._active
        # Now sever lingering connections (idle keep-alives, slow clients).
        for writer in list(self._writers):
            try:
                writer.close()
            # analysis: allow(REP006, reason=best-effort severing of an already-dying socket during drain; any close failure means the peer is gone, which is the goal)
            except Exception:
                pass
        await asyncio.sleep(0)  # let connection tasks observe the close
        # Deadline-abandoned worker threads may still be inside a store
        # mutation; the WAL must not be flushed and closed underneath
        # them.  Wait (bounded) for every outstanding pool future — the
        # tenant-lock releases ride on their done-callbacks — before
        # touching the tenants.
        pool_grace = time.monotonic() + self.config.drain_timeout
        while self._pool_futures and time.monotonic() < pool_grace:
            await asyncio.sleep(0.005)
        wedged = len(self._pool_futures)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if not wedged:
            self.tenants.close_all()
        # else: a thread outlived the full grace period and may still be
        # mutating a store — closing now could tear the WAL tail it is
        # writing.  Every ack'd record is already flushed+fsync'd by
        # WAL.append, so skipping close loses nothing durable; the next
        # open replays the WAL.
        self.events.emit(
            "drain",
            in_flight_at_drain=in_flight,
            abandoned=abandoned,
            wedged_threads=wedged,
        )
        self.events.close()
        self._drain_report = {
            "in_flight_at_drain": in_flight,
            "abandoned": abandoned,
            "wedged_threads": wedged,
        }
        return self._drain_report

    # -------------------------------------------------------------- connection
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        self._count(lambda i: (i.connections.inc(), i.open_connections.inc()))
        try:
            await self._connection_loop(reader, writer)
        except protocol.ProtocolError as exc:
            # One best-effort structured reply, then hang up: a framing
            # violation poisons everything after it on this connection.
            await self._send(
                writer,
                protocol.error_response(None, E_BAD_REQUEST, str(exc)),
            )
        except (
            InjectedDisconnect,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass  # peer vanished; nothing sensible left to say
        finally:
            self._writers.discard(writer)
            self._count(lambda i: i.open_connections.dec())
            try:
                writer.close()
            # analysis: allow(REP006, reason=connection teardown after the request loop ended; a close failure on a dead transport has no remaining observer)
            except Exception:
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            frame = await protocol.read_frame(
                reader, self.config.max_frame_bytes, attachments=False
            )
            if frame is None:
                return
            payload, nbytes = frame
            self._count(lambda i: i.bytes_read.inc(nbytes))
            if self.net_faults is not None:
                action = self.net_faults.on_recv()
                if action is not None:
                    self._count(lambda i: i.injected_faults.labels(action[0]).inc())
                    if action[0] == NET_DROP:
                        continue  # request vanishes; the client retries
                    if action[0] == NET_DELAY:
                        await asyncio.sleep(action[1])
                    elif action[0] == NET_CLOSE:
                        raise InjectedDisconnect("injected recv-side close")
            self._active += 1
            try:
                response = await self._handle_request(payload)
                if response is not None and not await self._send(writer, response):
                    return  # slow client or injected close: abandon the conn
            finally:
                self._active -= 1
            if self._draining:
                return

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> bool:
        """Write one response frame; False means the connection is gone."""
        if self.net_faults is not None:
            action = self.net_faults.on_send()
            if action is not None:
                self._count(lambda i: i.injected_faults.labels(action[0]).inc())
                if action[0] == NET_DROP:
                    return True  # silently lost on the wire
                if action[0] == NET_DELAY:
                    await asyncio.sleep(action[1])
                elif action[0] == NET_CLOSE:
                    writer.transport.abort()
                    return False
        try:
            data = protocol.encode_frame(payload)
        except protocol.ProtocolError:
            data = protocol.encode_frame(
                protocol.error_response(
                    payload.get("id"), E_INTERNAL, "response exceeded frame limit"
                )
            )
        writer.write(data)
        transport = writer.transport
        # Drain only a socket that did not take the whole frame (or is closing).
        if transport.get_write_buffer_size() or transport.is_closing():
            try:
                await asyncio.wait_for(writer.drain(), self.config.write_timeout)
            except asyncio.TimeoutError:
                # Slow client: its kernel buffers are full and it is not
                # reading.  Keeping the connection would let one laggard
                # pin daemon memory; cut it loose instead.
                self._count(lambda i: i.slow_client_closes.inc())
                transport.abort()
                return False
            except (ConnectionError, InjectedDisconnect):
                return False
        self._count(lambda i: i.bytes_written.inc(len(data)))
        return True

    # ---------------------------------------------------------------- requests
    async def _handle_request(
        self, payload: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        started = time.monotonic()
        request_id = payload.get("id")
        verb = payload.get("verb")
        if not isinstance(verb, str) or verb not in ALL_VERBS:
            return self._error(
                request_id, E_BAD_REQUEST, f"unknown verb {verb!r}", verb="invalid"
            )
        self._count(lambda i: i.requests.labels(verb).inc())
        try:
            if verb in CONTROL_VERBS:
                response = self._control(request_id, verb, payload)
            else:
                response = await self._work(request_id, verb, payload, started)
        except Exception as exc:  # noqa: BLE001 — the daemon must answer
            response = self._error(
                request_id, E_INTERNAL, f"{type(exc).__name__}: {exc}", verb=verb
            )
        self._count(
            lambda i: i.request_seconds.labels(verb).observe(
                time.monotonic() - started
            )
        )
        return response

    def _control(
        self, request_id: Any, verb: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        if verb == "ping":
            return protocol.ok_response(request_id, {"pong": True})
        if verb == "shutdown":
            self.request_drain()
            return protocol.ok_response(request_id, {"draining": True})
        if verb == "introspect":
            return introspect(self, request_id, payload)
        if verb == "metrics":
            from repro.obs.exposition import render_prometheus

            # Fold the lazily-computed SLO gauges into the scrape.
            self.slo.publish()
            return protocol.ok_response(
                request_id,
                {
                    "format": "prometheus",
                    "enabled": OBS.registry.enabled,
                    "body": render_prometheus(OBS.registry),
                },
            )
        # status
        return protocol.ok_response(
            request_id,
            {
                "draining": self._draining,
                "tenants": self.tenants.stats(),
                "executing": self._executing,
                "waiting": len(self._queue),
                "open_connections": len(self._writers),
                "limits": {
                    "max_inflight": self.config.max_inflight,
                    "max_queue": self.config.max_queue,
                    "default_deadline_ms": self.config.default_deadline_ms,
                    "max_deadline_ms": self.config.max_deadline_ms,
                },
            },
        )

    async def _work(
        self, request_id: Any, verb: str, payload: Dict[str, Any], started: float
    ) -> Dict[str, Any]:
        if self._draining:
            message = "daemon is draining; no new work accepted"
            return self._error(request_id, E_SHUTTING_DOWN, message, verb=verb)
        try:
            deadline = started + self._deadline_seconds(payload)
            tenant = self.tenants.get(self._tenant_name(payload))
        except UnknownTenantError as exc:
            return self._error(request_id, E_UNKNOWN_TENANT, str(exc), verb=verb)
        except _BadRequest as exc:
            return self._error(request_id, E_BAD_REQUEST, str(exc), verb=verb)

        trace = self.tracer.begin(
            TraceContext.from_wire(payload.get("trace")),
            name="ingress",
            verb=verb,
            tenant=tenant.name,
        )
        waits = {"queue_ms": 0.0, "lock_ms": 0.0}
        with trace.activate():
            with span("admission") as rec:
                queue_t0 = time.monotonic()
                unqueued = self._slot_free()  # only these may run inline
                admitted = await self._admit(deadline)
                waits["queue_ms"] = (time.monotonic() - queue_t0) * 1000.0
                if rec is not None:
                    rec.attrs["admitted"] = admitted
            if admitted == "shed":
                self._count(lambda i: i.shed.inc())
                response = self._error(
                    request_id,
                    E_OVERLOADED,
                    f"admission queue at capacity "
                    f"({self.config.max_inflight} executing, "
                    f"{self.config.max_queue} queued)",
                    verb=verb,
                    retry_after_ms=self.config.retry_after_ms,
                )
            elif admitted == "deadline":
                response = self._deadline_error(
                    request_id, verb, "waiting for an execution slot"
                )
            else:
                try:
                    response = await self._execute(
                        request_id, verb, payload, tenant, deadline, waits,
                        inline=unqueued,
                    )
                finally:
                    self._release_slot()
        self._finish_work(trace, tenant.name, verb, response, started, waits)
        return response

    def _finish_work(
        self,
        trace: RequestTrace,
        tenant_name: str,
        verb: str,
        response: Dict[str, Any],
        started: float,
        waits: Dict[str, float],
    ) -> None:
        """Post-response accounting: trace deposit, SLO window, slow log."""
        duration = time.monotonic() - started
        outcome, error_code = _classify(response)
        if error_code is not None:
            trace.annotate(error_code=error_code)
        doc = trace.finish(outcome)
        self.slo.record(tenant_name, duration, outcome)
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import tenant_instruments, trace_instruments

            tenants = tenant_instruments(registry)
            tenants.requests.labels(tenant_name, outcome).inc()
            tenants.request_seconds.labels(tenant_name).observe(duration)
            traces = trace_instruments(registry)
            if doc is not None:
                (traces.forced if doc.get("forced") else traces.sampled).inc()
            traces.buffer_traces.set(len(self.tracer.buffer))
            dropped = self.tracer.buffer.dropped
            if dropped > self._trace_drops_seen:
                traces.buffer_dropped.inc(dropped - self._trace_drops_seen)
                self._trace_drops_seen = dropped
        entry = self.slow_log.observe(
            duration,
            tenant=tenant_name,
            verb=verb,
            trace_id=trace.trace_id,
            queue_wait_ms=waits["queue_ms"],
            lock_wait_ms=waits["lock_ms"],
            status=outcome,
            error_code=error_code,
            trace=doc,
        )
        if entry is not None and registry.enabled:
            from repro.obs.instruments import trace_instruments

            trace_instruments(registry).slow_queries.inc()

    # ---------------------------------------------------------------- admission
    async def _admit(self, deadline: float) -> str:
        """Reserve an execution slot: ``ok``, ``shed`` or ``deadline``.

        A full pool parks the request in :attr:`_queue` until
        :meth:`_release_slot` hands it a slot or its deadline unqueues it.
        """
        queue = self._queue
        if self._slot_free():
            self._executing += 1
            self._count(lambda i: i.inflight.set(self._executing))
            return "ok"
        if len(queue) >= self.config.max_queue:
            return "shed"
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[bool]" = loop.create_future()
        queue.append(waiter)
        self._count(lambda i: i.queued.set(len(queue)))
        timer = loop.call_later(deadline - time.monotonic(), self._unqueue, waiter)
        try:
            return "ok" if await waiter else "deadline"
        except asyncio.CancelledError:
            if waiter.cancelled():
                self._unqueue(waiter)
            elif waiter.result():
                self._release_slot()  # handed a slot it will never use
            raise
        finally:
            timer.cancel()

    def _slot_free(self) -> bool:
        """Would :meth:`_admit` grant a slot without queueing?"""
        return self._executing < self.config.max_inflight and not self._queue

    def _unqueue(self, waiter: "asyncio.Future[bool]") -> None:
        """Take a waiter out of the admission queue (deadline or cancel)."""
        if waiter in self._queue:
            self._queue.remove(waiter)
            self._count(lambda i: i.queued.set(len(self._queue)))
        _settle(waiter, False)

    def _release_slot(self) -> None:
        """A request left execution: its slot goes to the queue head, if any."""
        queue = self._queue
        while queue:
            waiter = queue.popleft()
            if not waiter.done():
                waiter.set_result(True)
                self._count(lambda i: i.queued.set(len(queue)))
                return
        self._executing -= 1
        self._count(lambda i: i.inflight.set(self._executing))

    # ---------------------------------------------------------------- execution
    async def _execute(
        self,
        request_id: Any,
        verb: str,
        payload: Dict[str, Any],
        tenant,
        deadline: float,
        waits: Optional[Dict[str, float]] = None,
        *,
        inline: bool = False,
    ) -> Dict[str, Any]:
        try:
            grace = self.config.deadline_grace if tenant.kind == "cluster" else 0.0
            if verb == "query":
                q = _query_from(payload)
                work = lambda: tenant.query_partial(q, deadline)  # noqa: E731
                fits = (lambda: _within_budget(tenant, [q])) if inline else None
                partial = await self._run_locked(
                    tenant.name, work, deadline, write=False, grace=grace, waits=waits,
                    fits=fits,
                )
                if not partial.complete:
                    self._count(lambda i: i.partial_results.inc())
                return protocol.ok_response(request_id, self._partial_dict(partial))
            if verb == "batch":
                queries = self._parse_batch(payload)

                def run_batch() -> List[PartialResult]:
                    out: List[PartialResult] = []
                    for q in queries:
                        if time.monotonic() < deadline:
                            out.append(tenant.query_partial(q, deadline))
                            continue
                        expired = {"code": E_DEADLINE, "message": "batch deadline expired"}
                        out.append(
                            PartialResult(ids=NO_IDS, complete=False, shard_errors={"*": expired})
                        )
                    return out

                fits = (lambda: _within_budget(tenant, queries)) if inline else None
                partials = await self._run_locked(
                    tenant.name, run_batch, deadline, write=False, grace=grace,
                    waits=waits, fits=fits,
                )
                results = [self._partial_dict(p) for p in partials]
                complete = all(p.complete for p in partials)
                if not complete:
                    self._count(lambda i: i.partial_results.inc())
                return protocol.ok_response(
                    request_id, {"results": results, "complete": complete}
                )
            if verb == "insert":
                obj = self._parse_object(payload)
                await self._run_locked(
                    tenant.name, lambda: tenant.insert(obj), deadline, write=True,
                    waits=waits,
                )
                return protocol.ok_response(request_id, {"inserted": obj.id})
            # delete
            object_id = self._parse_id(payload)
            await self._run_locked(
                tenant.name, lambda: tenant.delete(object_id), deadline, write=True,
                waits=waits,
            )
            return protocol.ok_response(request_id, {"deleted": object_id})
        except _BadRequest as exc:
            return self._error(request_id, E_BAD_REQUEST, str(exc), verb=verb)
        except _DeadlineHit as exc:
            return self._deadline_error(request_id, verb, str(exc))
        except DuplicateObjectError as exc:
            return self._error(request_id, E_CONFLICT, str(exc), verb=verb)
        except UnknownObjectError as exc:
            return self._error(request_id, E_NOT_FOUND, str(exc), verb=verb)
        except ShardUnavailableError as exc:
            return self._error(
                request_id, E_UNAVAILABLE, str(exc), verb=verb, detail=exc.detail()
            )
        except StoreClosedError as exc:
            return self._error(request_id, E_UNAVAILABLE, str(exc), verb=verb)
        except (InvalidObjectError, InvalidQueryError) as exc:
            return self._error(request_id, E_BAD_REQUEST, str(exc), verb=verb)

    async def _run_locked(
        self,
        tenant_name: str,
        fn: Callable[[], Any],
        deadline: float,
        *,
        write: bool,
        grace: float = 0.0,
        waits: Optional[Dict[str, float]] = None,
        fits: Optional[Callable[[], bool]] = None,
    ) -> Any:
        """Run ``fn`` under the tenant's read/write lock, on the loop or
        on the pool.

        ``fits`` (reads only) is asked, under a read hold taken without
        waiting, whether the work fits :data:`INLINE_BUDGET`.  If it does,
        ``fn`` runs right here and the hold is released before this
        coroutine next yields.  Every other request goes to the pool, and
        there the lock is held until the worker thread actually finishes —
        never merely until the awaiter gives up.  A running pool thread
        cannot be cancelled, so when the deadline backstop (one loop
        timer) fires the caller gets its deadline error immediately, but
        the release rides on the pool future's done-callback: no later
        writer can acquire the lock and mutate the same store while the
        abandoned thread is still inside it.
        """
        lock = self._locks.get(tenant_name)
        if lock is None:
            lock = self._locks[tenant_name] = AsyncRWLock(f"tenant:{tenant_name}")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise _DeadlineHit("deadline expired before execution began")
        with span("tenant_lock", write=write):
            lock_t0 = time.monotonic()
            if fits is not None and lock.try_acquire_read():
                acquired = True
            else:
                fits = None  # a read that had to wait takes the pool
                acquire = lock.acquire_write if write else lock.acquire_read
                acquired = await acquire(remaining)
            if waits is not None:
                waits["lock_ms"] = (time.monotonic() - lock_t0) * 1000.0
            if not acquired:
                raise _DeadlineHit("deadline expired waiting for the tenant lock")
        release = lock.release_write if write else lock.release_read
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            release()
            raise _DeadlineHit("deadline expired before execution began")
        try:
            inline = fits is not None and fits()
        except BaseException:
            release()
            raise
        if inline:
            with span("execute", inline=True):
                try:
                    return fn()
                finally:
                    release()
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        outcome: "asyncio.Future[Optional[Tuple[str, Any]]]" = loop.create_future()

        def on_done(job: "Future[Tuple[str, Any]]") -> None:
            # Runs on the loop once the worker thread has really returned.
            self._pool_futures.discard(job)
            release()
            _settle(outcome, job.result())

        def from_thread(job: "Future[Tuple[str, Any]]") -> None:
            try:
                loop.call_soon_threadsafe(on_done, job)
            except RuntimeError:
                pass  # loop already torn down; the lock is moot

        with span("execute", inline=False) as exec_rec:
            # The worker re-parents its spans (router plan, per-shard
            # probes) under this one: ContextVars do not follow a pool
            # submission on their own.
            try:
                job = self._pool.submit(_capture(fn, capture_active()))
            except BaseException:
                release()  # the job never started
                raise
            # The done-callback now owns the release and the drain-visible
            # tracking; the backstop timer only settles `outcome`.
            self._pool_futures.add(job)
            job.add_done_callback(from_thread)
            timer = loop.call_later(remaining + grace, _settle, outcome, None)
            try:
                result = await outcome
            finally:
                timer.cancel()
            if result is None:
                if exec_rec is not None:
                    exec_rec.status = "deadline_abandoned"
                raise _DeadlineHit("deadline expired during execution")
            kind, value = result
            if kind == "err":
                raise value
            return value

    # ------------------------------------------------------------ result shapes
    def _partial_dict(self, partial: PartialResult) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ids": partial.ids,
            "count": len(partial.ids),
            "complete": partial.complete,
            "shards_planned": partial.shards_planned,
            "shards_answered": partial.shards_answered,
        }
        if partial.shard_errors:
            out["shard_errors"] = partial.shard_errors
        return out

    # ---------------------------------------------------------------- parsing
    def _deadline_seconds(self, payload: Dict[str, Any]) -> float:
        raw = payload.get("deadline_ms", self.config.default_deadline_ms)
        # `not raw > 0` also refuses NaN, which json.loads accepts.
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not raw > 0:
            raise _BadRequest(f"deadline_ms must be a positive number, got {raw!r}")
        return min(float(raw), float(self.config.max_deadline_ms)) / 1000.0

    def _tenant_name(self, payload: Dict[str, Any]) -> str:
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise _BadRequest("missing required field 'tenant'")
        return tenant

    def _parse_batch(self, payload: Dict[str, Any]) -> List[TimeTravelQuery]:
        raw = payload.get("queries")
        if not isinstance(raw, list) or not raw:
            raise _BadRequest("'batch' needs a non-empty 'queries' list")
        return [_query_from(item) for item in raw]

    def _parse_object(self, payload: Dict[str, Any]):
        object_id = self._parse_id(payload)
        start, end = _bounds_from(payload)
        elements = _elements_from(payload)
        try:
            return make_object(object_id, start, end, elements)
        except ReproError as exc:
            raise _BadRequest(str(exc)) from exc

    def _parse_id(self, payload: Dict[str, Any]) -> int:
        raw = payload.get("object_id", payload.get("id_to_delete"))
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise _BadRequest(f"object_id must be an integer, got {raw!r}")
        return raw

    # ----------------------------------------------------------------- metrics
    def _count(self, apply) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import server_instruments

            apply(server_instruments(registry))

    def _error(
        self,
        request_id: Any,
        code: str,
        message: str,
        *,
        verb: str,
        retry_after_ms: Optional[int] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        self._count(lambda i: i.errors.labels(code).inc())
        return protocol.error_response(
            request_id, code, message, retry_after_ms=retry_after_ms, detail=detail
        )

    def _deadline_error(
        self, request_id: Any, verb: str, where: str
    ) -> Dict[str, Any]:
        self._count(lambda i: i.deadline_exceeded.inc())
        return self._error(
            request_id, E_DEADLINE, f"deadline exceeded: {where}", verb=verb
        )


# ----------------------------------------------------------------- internals
class _BadRequest(Exception):
    """Request-shape violation (mapped to the bad_request error code)."""


class _DeadlineHit(Exception):
    """The deadline fired somewhere on the execution path."""


def _capture(
    fn: Callable[[], Any], active: Optional[object] = None
) -> Callable[[], Tuple[str, Any]]:
    def run() -> Tuple[str, Any]:
        try:
            with under(active):
                return ("ok", fn())
        except BaseException as exc:  # noqa: BLE001 — ferried to the loop
            return ("err", exc)

    return run


def _within_budget(tenant, queries: List[TimeTravelQuery]) -> bool:
    """Do ``queries`` on ``tenant`` read at most :data:`INLINE_BUDGET`
    postings entries between them, as far as the index can bound it?"""
    total = 0
    for q in queries:
        bound = tenant.work_bound(q)
        if bound is None:
            return False
        total += bound
        if total > INLINE_BUDGET:
            return False
    return True


def _settle(fut: "asyncio.Future[Any]", value: Any) -> None:
    """Resolve ``fut`` unless a timer or a finishing job already has."""
    if not fut.done():
        fut.set_result(value)


def _classify(response: Dict[str, Any]) -> Tuple[str, Optional[str]]:
    """Map a response envelope to an SLO outcome + optional error code."""
    if response.get("ok"):
        result = response.get("result") or {}
        complete = result.get("complete", True)
        return ("partial" if complete is False else "ok", None)
    code = (response.get("error") or {}).get("code", E_INTERNAL)
    if code == E_OVERLOADED:
        return ("shed", code)
    if code == E_DEADLINE:
        return ("deadline", code)
    return ("error", code)


def _query_from(payload: Dict[str, Any]) -> TimeTravelQuery:
    start, end = _bounds_from(payload)
    try:
        return make_query(start, end, _elements_from(payload))
    except ReproError as exc:
        raise _BadRequest(str(exc)) from exc


def _bounds_from(payload: Dict[str, Any]) -> Tuple[float, float]:
    out = []
    for key in ("start", "end"):
        raw = payload.get(key)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise _BadRequest(f"{key} must be a number, got {raw!r}")
        out.append(raw)
    return out[0], out[1]


def _elements_from(payload: Dict[str, Any]) -> List[str]:
    raw = payload.get("elements", [])
    if isinstance(raw, str):
        raw = [e for e in raw.split(",") if e]
    if not isinstance(raw, list) or not all(isinstance(e, str) for e in raw):
        raise _BadRequest("elements must be a list of strings")
    return raw
