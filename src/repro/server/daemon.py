"""The resilient asyncio query daemon.

Robustness is the architecture here, not a feature flag.  Every request
carries a deadline (defaulted and capped by the server); every queue is
bounded (admission control sheds with a structured ``overloaded`` error
and a retry-after hint instead of building an unbounded backlog); every
write to a client is timed (a slow reader gets disconnected, not a
daemon with an ever-growing outbound buffer); and shutdown is a drain
(stop accepting, let in-flight work finish or deadline out, flush every
tenant's WAL, exit) rather than a drop.

Request path
------------
Each connection is one :class:`_Connection`, an ``asyncio.Protocol``
that cuts whole frames off its buffer (a declared length over the limit,
or the attachment bit on a request, is one ``bad_request`` and a
hang-up) and hands each to one synchronous :meth:`QueryDaemon._dispatch`:
validation, trace, admission and — when nothing has to wait — execution
and accounting, returning the response for ``transport.write``.  A store
read runs there when admission has a free slot, the tenant's read lock
is free without waiting, and the index bounds the postings it touches
(``work_bound``) within :data:`INLINE_BUDGET`.

Concurrency model
-----------------
One asyncio loop owns all socket I/O and the admission state.  A request
that has to wait — in the admission queue, in the tenant lock's queue,
on the pool call and its backstop timer, or on an injected network delay
(a :class:`~repro.service.faults.NetworkFaultInjector` is consulted once
per frame each way) — gets a coroutine from the dispatch that finishes
it; the connection pauses reading, runs it as its one task, writes the
response and resumes, so one connection's requests stay strictly
sequential.  Mutations, cluster reads and unbounded or over-budget reads
run on a bounded thread pool (``max_inflight`` workers; a full pool
parks requests in a FIFO).  Per tenant, a read/write lock lets reads
overlap while mutations get exclusivity.  An expired pool call abandons
the *result*, not the thread: the tenant lock stays held until that
thread finishes (the pool future's done-callback releases it), and drain
waits for it before flushing WALs.

Every work request gets a :class:`~repro.obs.context.RequestTrace` whose
spans cover ingress, admission, tenant-lock wait and execution
(``inline`` says loop or pool); errors and deadline misses are
force-captured regardless of sampling (see ``docs/observability.md``).
"""

from __future__ import annotations

import asyncio
import random
import signal
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Coroutine, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.cluster import PartialResult
from repro.core.answer import NO_IDS
from repro.core.errors import (
    DuplicateObjectError, InvalidObjectError, InvalidQueryError, ReproError,
    ShardUnavailableError, StoreClosedError, UnknownObjectError,
)
from repro.core.model import TimeTravelQuery, make_object, make_query
from repro.obs.context import RequestTrace, TraceContext, Tracer, capture_active, span, under
from repro.obs.events import EventLog, SlowQueryLog
from repro.obs.instruments import ServerInstruments, server_instruments
from repro.obs.instruments import tenant_instruments, trace_instruments
from repro.obs.registry import OBS
from repro.obs.slo import SloAccountant
from repro.server import protocol
from repro.server.introspect import introspect
from repro.server.protocol import (
    E_BAD_REQUEST, E_CONFLICT, E_DEADLINE, E_INTERNAL, E_NOT_FOUND, E_OVERLOADED,
    E_SHUTTING_DOWN, E_UNAVAILABLE, E_UNKNOWN_TENANT,
)
from repro.server.tenants import Tenant, TenantRegistry, UnknownTenantError
from repro.service.faults import NET_CLOSE, NET_DELAY, NetAction, NetworkFaultInjector
from repro.utils.locks import AsyncRWLock

#: Verbs that go through admission control (and may take the pool).
WORK_VERBS = frozenset({"query", "batch", "insert", "delete"})

#: Cheap control-plane verbs answered inline on the event loop.
CONTROL_VERBS = frozenset({"status", "metrics", "ping", "shutdown", "introspect"})

ALL_VERBS = WORK_VERBS | CONTROL_VERBS

#: Postings entries a store read may touch and still run on the event loop
#: (``docs/server.md``, "Request path"): the smallest power of two covering
#: every read of the ledger's ``daemon-query`` mix at 2·10⁴ objects, the
#: slowest of which takes about 0.5 ms, a tenth of the 5 ms GIL switch
#: interval the loop already waits out behind a pool thread.
INLINE_BUDGET = 1 << 16

#: Extra time past the deadline for *cluster* queries, so the
#: scatter-gather can surface the partial result it was building; a store
#: query is one atomic probe and is abandoned exactly on time.
DEADLINE_GRACE_S = 0.5

#: Events the in-memory event log keeps for ``introspect``.
EVENT_LOG_CAPACITY = 256

#: SLO accounting (``docs/observability.md``): per-tenant rolling sample
#: count, window horizon, the latency objective feeding the burn rate, the
#: error budget, and the tenant count beyond which windows collapse to
#: ``__other__``.
SLO_WINDOW = 512
SLO_HORIZON_S = 60.0
SLO_LATENCY_MS = 250.0
SLO_ERROR_BUDGET = 0.01
SLO_MAX_TENANTS = 64

#: What a dispatch returns: the response, or a coroutine that returns it.
Answer = Union[Dict[str, Any], Coroutine[Any, Any, Dict[str, Any]]]


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
    retry_after_ms: int = 50  # hint attached to shed responses
    # --- observability plane (tracing, slow-query log, SLO windows) ---
    trace_sample_rate: float = 0.01  # head-based sampling of work requests
    trace_buffer: int = 256  # finished traces kept for `introspect`
    trace_seed: Optional[int] = None  # deterministic sampling/ids in tests
    slow_query_ms: Optional[float] = 500.0  # None disables; 0.0 logs all
    slow_log_path: Optional[str] = None  # JSONL sink for the event log

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ReproError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_queue < 0:
            raise ReproError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.default_deadline_ms < 1 or self.max_deadline_ms < 1:
            raise ReproError("deadlines must be positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ReproError(f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}")
        if self.trace_buffer < 1:
            raise ReproError(f"trace_buffer must be >= 1, got {self.trace_buffer}")
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ReproError(f"slow_query_ms must be >= 0 or None, got {self.slow_query_ms}")


class QueryDaemon:
    """One serving daemon over a :class:`TenantRegistry`."""

    def __init__(
        self, tenants: TenantRegistry, config: Optional[ServerConfig] = None, *,
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
        self._connections: Set[_Connection] = set()
        self._executing = 0
        self._queue: Deque["asyncio.Future[bool]"] = deque()  # admission FIFO
        self._active = 0  # requests whose answer waits (connection tasks)
        self._draining = False
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_report: Dict[str, int] = {}
        # Observability plane: tracer + event/slow-query logs + SLO windows.
        cfg = self.config
        rng = random.Random(cfg.trace_seed) if cfg.trace_seed is not None else None
        self.tracer = Tracer(sample_rate=cfg.trace_sample_rate, capacity=cfg.trace_buffer, rng=rng)
        self.events = EventLog(EVENT_LOG_CAPACITY, cfg.slow_log_path)
        self.slow_log = SlowQueryLog(self.events, cfg.slow_query_ms)
        self.slo = SloAccountant(
            capacity=SLO_WINDOW, horizon_s=SLO_HORIZON_S,
            latency_slo_ms=SLO_LATENCY_MS, error_budget=SLO_ERROR_BUDGET,
            max_tenants=SLO_MAX_TENANTS,
        )
        self._trace_drops_seen = 0

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the socket and start accepting (loop-owned state born here)."""
        self._drain_requested = asyncio.Event()
        self._pool = ThreadPoolExecutor(self.config.max_inflight, "repro-server")
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Connection, self), self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_drain(self) -> None:
        """Flag the daemon to drain (signal handlers and the harness call this)."""
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run_until_drained(self, *, install_signal_handlers: bool = True) -> Dict[str, int]:
        """Serve until a drain is requested (SIGTERM and SIGINT request
        one), then drain; the CLI main loop."""
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
        inst = self._instruments()
        if inst is not None:
            inst.drains.inc()
        in_flight = self._active
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Every admitted request has a deadline, so this wait is bounded.
        grace_until = time.monotonic() + self.config.drain_timeout
        while self._active and time.monotonic() < grace_until:
            await asyncio.sleep(0.005)
        abandoned = self._active
        # Now sever lingering connections (idle keep-alives, slow clients).
        for connection in list(self._connections):
            connection.transport.close()
        await asyncio.sleep(0)  # let the transports report their close
        # An abandoned pool thread may still be mutating a store: wait for
        # it (bounded) before the WALs are flushed and closed.
        pool_grace = time.monotonic() + self.config.drain_timeout
        while self._pool_futures and time.monotonic() < pool_grace:
            await asyncio.sleep(0.005)
        wedged = len(self._pool_futures)
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if not wedged:
            self.tenants.close_all()
        # else: closing could tear the WAL tail a wedged thread is writing;
        # every ack'd record is already fsync'd, and the next open replays.
        report = {"in_flight_at_drain": in_flight, "abandoned": abandoned, "wedged_threads": wedged}
        self.events.emit("drain", **report)
        self.events.close()
        self._drain_report = report
        return report

    # ---------------------------------------------------------------- requests
    async def _handle_request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`_dispatch` as one awaitable."""
        response = self._dispatch(payload, self._instruments())
        return response if isinstance(response, dict) else await response

    def _dispatch(self, payload: Dict[str, Any], inst: Optional[ServerInstruments]) -> Answer:
        """Answer one request frame: the response, or — when the request
        has to wait — a coroutine that finishes it and returns it."""
        started = time.monotonic()
        request_id = payload.get("id")
        verb = payload.get("verb")
        if not isinstance(verb, str) or verb not in ALL_VERBS:
            return self._error(request_id, E_BAD_REQUEST, f"unknown verb {verb!r}")
        if inst is not None:
            inst.requests.labels(verb).inc()
        response: Answer
        try:
            if verb in CONTROL_VERBS:
                response = self._control(request_id, verb, payload)
            else:
                response = self._work(request_id, verb, payload, started, inst)
        except Exception as exc:  # noqa: BLE001 — the daemon must answer
            response = self._error(request_id, E_INTERNAL, f"{type(exc).__name__}: {exc}")
        if inst is not None and type(response) is dict:
            inst.request_seconds.labels(verb).observe(time.monotonic() - started)
        return response

    def _control(self, request_id: Any, verb: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        if verb == "ping":
            return protocol.ok_response(request_id, {"pong": True})
        if verb == "shutdown":
            self.request_drain()
            return protocol.ok_response(request_id, {"draining": True})
        if verb == "introspect":
            return introspect(self, request_id, payload)
        if verb == "metrics":
            from repro.obs.exposition import render_prometheus

            self.slo.publish()  # fold the lazily-computed SLO gauges into the scrape
            body = render_prometheus(OBS.registry)
            return protocol.ok_response(
                request_id, {"format": "prometheus", "enabled": OBS.registry.enabled, "body": body}
            )
        limits = ("max_inflight", "max_queue", "default_deadline_ms", "max_deadline_ms")
        return protocol.ok_response(  # status
            request_id,
            {
                "draining": self._draining,
                "tenants": self.tenants.stats(),
                "executing": self._executing,
                "waiting": len(self._queue),
                "open_connections": len(self._connections),
                "limits": {name: getattr(self.config, name) for name in limits},
            },
        )

    def _work(self, request_id: Any, verb: str, payload: Dict[str, Any], started: float,
              inst: Optional[ServerInstruments]) -> Answer:
        if self._draining:
            message = "daemon is draining; no new work accepted"
            return self._error(request_id, E_SHUTTING_DOWN, message)
        try:
            deadline = started + self._deadline_seconds(payload)
            tenant = self.tenants.get(self._tenant_name(payload))
        except UnknownTenantError as exc:
            return self._error(request_id, E_UNKNOWN_TENANT, str(exc))
        except _BadRequest as exc:
            return self._error(request_id, E_BAD_REQUEST, str(exc))
        context = TraceContext.from_wire(payload.get("trace"))
        trace = self.tracer.begin(context, name="ingress", verb=verb, tenant=tenant.name)
        request = _Request(request_id, verb, payload, tenant, deadline, started, inst, trace)
        free = self._slot_free()
        if not free and len(self._queue) < self.config.max_queue:
            return self._work_later(request, queued=True)
        with trace.activate():
            with span("admission") as rec:
                if rec is not None:
                    rec.attrs["admitted"] = "ok" if free else "shed"
            if not free:
                response = self._refused(request, "shed")
            else:
                # A read answered right here never yields the loop, so it
                # needs no slot of its own; a request that waits holds one.
                response = self._execute_now(request)
                if response is None:
                    self._executing += 1
                    self._publish_slots()
                    return self._work_later(request, queued=False)
        self._finish_work(request, response)
        return response

    async def _work_later(self, request: _Request, *, queued: bool) -> Dict[str, Any]:
        """Finish a work request that has to wait: in the admission queue
        (``queued``; it holds no slot yet), for the tenant lock, or on the
        pool."""
        try:
            with request.trace.activate():
                admitted = "ok"
                if queued:
                    with span("admission") as rec:
                        queue_t0 = time.monotonic()
                        admitted = await self._admit(request.deadline)
                        request.queue_ms = (time.monotonic() - queue_t0) * 1000.0
                        if rec is not None:
                            rec.attrs["admitted"] = admitted
                if admitted != "ok":
                    response = self._refused(request, admitted)
                else:
                    try:
                        response = await self._execute(request)
                    finally:
                        self._release_slot()
            self._finish_work(request, response)
        except Exception as exc:  # noqa: BLE001 — the daemon must answer
            response = self._error(request.id, E_INTERNAL, f"{type(exc).__name__}: {exc}")
        if request.inst is not None:
            seconds = time.monotonic() - request.started
            request.inst.request_seconds.labels(request.verb).observe(seconds)
        return response

    def _refused(self, request: _Request, admitted: str) -> Dict[str, Any]:
        """The answer to a request admission turned away."""
        if admitted == "deadline":
            return self._failure(request.id, _DeadlineHit("waiting for an execution slot"))
        if request.inst is not None:
            request.inst.shed.inc()
        cfg = self.config
        message = f"admission queue at capacity ({cfg.max_inflight} executing, "
        message += f"{cfg.max_queue} queued)"
        return self._error(request.id, E_OVERLOADED, message, retry_after_ms=cfg.retry_after_ms)

    def _finish_work(self, request: _Request, response: Dict[str, Any]) -> None:
        """Post-response accounting: trace deposit, SLO window, slow log."""
        now = time.monotonic()
        duration = now - request.started
        outcome, error_code = _classify(response)
        trace = request.trace
        if error_code is not None:
            trace.annotate(error_code=error_code)
        doc = trace.finish(outcome)
        tenant_name = request.tenant.name
        self.slo.record(tenant_name, duration, outcome, now)
        registry = OBS.registry
        if request.inst is not None:
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
        threshold = self.slow_log.threshold_ms
        if threshold is None or duration * 1000.0 < threshold:
            return  # the common case: no entry, so none is built
        entry = self.slow_log.observe(
            duration, tenant=tenant_name, verb=request.verb, trace_id=trace.trace_id,
            queue_wait_ms=request.queue_ms, lock_wait_ms=request.lock_ms,
            status=outcome, error_code=error_code, trace=doc,
        )
        if entry is not None and registry.enabled:
            trace_instruments(registry).slow_queries.inc()

    # ---------------------------------------------------------------- admission
    async def _admit(self, deadline: float) -> str:
        """Reserve an execution slot: ``ok``, ``shed`` or ``deadline``; a full
        pool parks the request in :attr:`_queue` until :meth:`_release_slot`
        hands it a slot or its deadline unqueues it."""
        queue = self._queue
        if self._slot_free():
            self._executing += 1
            self._publish_slots()
            return "ok"
        if len(queue) >= self.config.max_queue:
            return "shed"
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[bool]" = loop.create_future()
        queue.append(waiter)
        self._publish_slots()
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
            self._publish_slots()
        _settle(waiter, False)

    def _release_slot(self) -> None:
        """A request left execution: its slot goes to the queue head, if any."""
        queue = self._queue
        while queue:
            waiter = queue.popleft()
            if not waiter.done():
                waiter.set_result(True)
                self._publish_slots()
                return
        self._executing -= 1
        self._publish_slots()

    def _publish_slots(self) -> None:
        inst = self._instruments()
        if inst is not None:
            inst.inflight.set(self._executing)
            inst.queued.set(len(self._queue))

    # ---------------------------------------------------------------- execution
    def _execute_now(self, request: _Request) -> Optional[Dict[str, Any]]:
        """Answer a store read on the loop, or ``None`` when the request has
        to wait: a mutation, a read whose lock is not free without waiting,
        or one the index cannot bound within :data:`INLINE_BUDGET` (it then
        keeps the read hold it took, and takes the pool)."""
        if request.verb not in _READ_VERBS:
            return None
        try:
            reads = request.reads = _parse_reads(request.verb, request.payload)
            if time.monotonic() >= request.deadline:
                raise _DeadlineHit("deadline expired before execution began")
            lock = self._lock(request.tenant.name)
            if not lock.try_acquire_read():
                return None
            with span("tenant_lock", write=False):
                pass  # taken without waiting
            try:
                fits = _within_budget(request.tenant, reads)
            except BaseException:
                lock.release_read()
                raise
            if not fits:
                request.held = True
                return None
            with span("execute", inline=True):
                try:
                    result = _read(request)
                finally:
                    lock.release_read()
            return self._read_response(request, result)
        except _FAILURES as exc:
            return self._failure(request.id, exc)

    async def _execute(self, request: _Request) -> Dict[str, Any]:
        """Execute a request that waits for the tenant lock and the pool."""
        tenant, deadline = request.tenant, request.deadline
        try:
            if request.verb in _READ_VERBS:
                if request.reads is None:  # it queued for admission first
                    request.reads = _parse_reads(request.verb, request.payload)
                grace = DEADLINE_GRACE_S if tenant.kind == "cluster" else 0.0
                result = await self._run_locked(
                    tenant.name, partial(_read, request), deadline, write=False,
                    grace=grace, held=request.held, request=request,
                )
                return self._read_response(request, result)
            if request.verb == "insert":
                obj = self._parse_object(request.payload)
                await self._run_locked(
                    tenant.name, lambda: tenant.insert(obj), deadline, write=True,
                    request=request,
                )
                return protocol.ok_response(request.id, {"inserted": obj.id})
            object_id = self._parse_id(request.payload)
            await self._run_locked(
                tenant.name, lambda: tenant.delete(object_id), deadline, write=True,
                request=request,
            )
            return protocol.ok_response(request.id, {"deleted": object_id})
        except _FAILURES as exc:
            return self._failure(request.id, exc)

    def _failure(self, request_id: Any, exc: Exception) -> Dict[str, Any]:
        """The error response to an exception the execution path raised."""
        if isinstance(exc, _DeadlineHit):
            inst = self._instruments()
            if inst is not None:
                inst.deadline_exceeded.inc()
            return self._error(request_id, E_DEADLINE, f"deadline exceeded: {exc}")
        if isinstance(exc, ShardUnavailableError):
            return self._error(request_id, E_UNAVAILABLE, str(exc), detail=exc.detail())
        code = next(code for kind, code in _FAILURE_CODES if isinstance(exc, kind))
        return self._error(request_id, code, str(exc))

    def _lock(self, tenant_name: str) -> AsyncRWLock:
        lock = self._locks.get(tenant_name)
        if lock is None:
            lock = self._locks[tenant_name] = AsyncRWLock(f"tenant:{tenant_name}")
        return lock

    async def _run_locked(
        self, tenant_name: str, fn: Callable[[], Any], deadline: float, *, write: bool,
        grace: float = 0.0, held: bool = False, request: Optional[_Request] = None,
    ) -> Any:
        """Run ``fn`` on the pool under the tenant's read/write lock (waited
        for here unless the caller ``held`` it).  When the deadline backstop
        fires the caller gets its error at once, but the lock is released
        by the pool future's done-callback, once the thread has finished:
        no later writer can mutate a store an abandoned thread is inside."""
        lock = self._lock(tenant_name)
        release = lock.release_write if write else lock.release_read
        if not held:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _DeadlineHit("deadline expired before execution began")
            with span("tenant_lock", write=write):
                lock_t0 = time.monotonic()
                acquire = lock.acquire_write if write else lock.acquire_read
                acquired = await acquire(remaining)
                if request is not None:
                    request.lock_ms = (time.monotonic() - lock_t0) * 1000.0
                if not acquired:
                    raise _DeadlineHit("deadline expired waiting for the tenant lock")
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            release()
            raise _DeadlineHit("deadline expired before execution began")
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
            # The worker re-parents its spans (router plan, per-shard probes)
            # under this one: ContextVars do not follow a pool submission.
            try:
                job = self._pool.submit(_capture(fn, capture_active()))
            except BaseException:
                release()  # the job never started
                raise
            # The done-callback owns the release; the timer only settles `outcome`.
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
    def _read_response(self, request: _Request, result: Any) -> Dict[str, Any]:
        if request.verb == "query":
            complete = result.complete
            body = self._partial_dict(result)
        else:
            body = {"results": [self._partial_dict(p) for p in result]}
            complete = body["complete"] = all(p.complete for p in result)
        if not complete and request.inst is not None:
            request.inst.partial_results.inc()
        return protocol.ok_response(request.id, body)

    def _partial_dict(self, partial: PartialResult) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ids": partial.ids, "count": len(partial.ids), "complete": partial.complete,
            "shards_planned": partial.shards_planned, "shards_answered": partial.shards_answered,
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

    def _parse_object(self, payload: Dict[str, Any]):
        object_id, (start, end) = self._parse_id(payload), _bounds_from(payload)
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
    def _instruments(self) -> Optional[ServerInstruments]:
        """The server's instruments, or ``None`` while metrics are off."""
        registry = OBS.registry
        return server_instruments(registry) if registry.enabled else None

    def _error(
        self, request_id: Any, code: str, message: str, *,
        retry_after_ms: Optional[int] = None, detail: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        inst = self._instruments()
        if inst is not None:
            inst.errors.labels(code).inc()
        return protocol.error_response(
            request_id, code, message, retry_after_ms=retry_after_ms, detail=detail
        )


class _Connection(asyncio.Protocol):
    """One client connection: whole frames in, one dispatch each, and the
    responses out in request order.  The write buffer's high-water mark is
    0, so ``pause_writing`` fires whenever the socket did not take a
    response whole: reading pauses until it has, and a client that has
    not taken it within ``write_timeout`` is aborted."""

    def __init__(self, daemon: QueryDaemon) -> None:
        self.daemon = daemon
        self.transport: Any = None
        self._buffer = bytearray()
        self._task: Optional["asyncio.Task[None]"] = None  # the request that waits
        self._write_timer: Optional[asyncio.TimerHandle] = None  # armed while the socket is full
        self._closing = False  # hung up, or the peer is gone: serve no more frames
        self._eof = False

    # ----------------------------------------------------- protocol callbacks
    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        transport.set_write_buffer_limits(0)
        self.daemon._connections.add(self)
        inst = self.daemon._instruments()
        if inst is not None:
            inst.connections.inc()
            inst.open_connections.inc()

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if self._task is None and self._write_timer is None:
            self._serve_frames()
        else:  # a response is owed: read nothing more until it is out
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        # Hang up once every owed response is out (at once when none is).
        self._eof = True
        return self._task is not None or self._write_timer is not None

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closing = True
        self._buffer.clear()
        self.daemon._connections.discard(self)
        if self._write_timer is not None:
            self._write_timer.cancel()
            self._write_timer = None
        inst = self.daemon._instruments()
        if inst is not None:
            inst.open_connections.dec()

    def pause_writing(self) -> None:
        self.transport.pause_reading()
        loop = asyncio.get_running_loop()
        self._write_timer = loop.call_later(self.daemon.config.write_timeout, self._write_timed_out)

    def resume_writing(self) -> None:
        if self._write_timer is not None:
            self._write_timer.cancel()
            self._write_timer = None
        self._resume()

    # --------------------------------------------------------------- frames
    def _serve_frames(self) -> None:
        """Answer the buffered frames in order, until one has to wait."""
        daemon = self.daemon
        while self._task is None and self._write_timer is None and not self._closing:
            try:
                frame = protocol.cut_frame(self._buffer, attachments=False)
            except protocol.ProtocolError as exc:
                # A framing violation poisons the rest: one reply, then hang up.
                self._buffer.clear()
                self._closing = True
                refusal = protocol.error_response(None, E_BAD_REQUEST, str(exc))
                self._respond(refusal, daemon._instruments())
                return
            if frame is None:
                if self._eof:
                    self._hang_up(abort=False)
                return
            payload, nbytes = frame
            inst = daemon._instruments()
            if inst is not None:
                inst.bytes_read.inc(nbytes)
            faults = daemon.net_faults
            action = None if faults is None else self._fault(faults.on_recv(), inst)
            if action is None:
                response = daemon._dispatch(payload, inst)
                if isinstance(response, dict):
                    self._respond(response, inst)
                else:
                    self._wait(self._later(inst, pending=response))
            elif action[0] == NET_DELAY:
                self._wait(self._later(inst, payload=payload, delay=action[1]))
            elif action[0] == NET_CLOSE:
                self._hang_up(abort=False)
            # NET_DROP: the request vanishes; the client retries

    def _respond(self, response: Dict[str, Any], inst: Optional[ServerInstruments]) -> None:
        delay = self._reply(response, inst)
        if delay is not None:
            self._wait(self._later(inst, response=response, delay=delay))

    async def _later(
        self, inst: Optional[ServerInstruments], *, payload: Optional[Dict[str, Any]] = None,
        pending: Optional[Coroutine[Any, Any, Dict[str, Any]]] = None,
        response: Optional[Dict[str, Any]] = None, delay: Optional[float] = None,
    ) -> None:
        """The rest of a request that has to wait: an injected ``delay`` on
        the way in (``payload``), the dispatch's ``pending`` coroutine, or
        an injected ``delay`` before ``response`` goes out."""
        if payload is not None:
            await asyncio.sleep(delay)
            answer = self.daemon._dispatch(payload, inst)
            response = answer if isinstance(answer, dict) else await answer
            delay = self._reply(response, inst)
        elif pending is not None:
            response = await pending
            delay = self._reply(response, inst)
        if delay is not None:
            await asyncio.sleep(delay)
            assert response is not None
            self._reply(response, inst, delayed=True)

    def _reply(
        self, response: Dict[str, Any], inst: Optional[ServerInstruments], delayed: bool = False
    ) -> Optional[float]:
        """Send one response, or lose it or hang up as an injected fault
        plans; the delay a fault puts before it is returned, not waited."""
        faults = self.daemon.net_faults
        action = None if faults is None or delayed else self._fault(faults.on_send(), inst)
        if action is None:
            self._write(response, inst)
        elif action[0] == NET_DELAY:
            return action[1]
        elif action[0] == NET_CLOSE:
            self._hang_up(abort=True)
        # NET_DROP: silently lost on the wire
        if self._closing or self.daemon._draining:
            self._hang_up(abort=False)
        return None

    def _write(self, response: Dict[str, Any], inst: Optional[ServerInstruments]) -> None:
        transport = self.transport
        if transport.is_closing():
            return  # the peer is gone: nobody is left to answer
        try:
            data = protocol.encode_frame(response)
        except protocol.ProtocolError:
            message = "response exceeded frame limit"
            data = protocol.encode_frame(
                protocol.error_response(response.get("id"), E_INTERNAL, message)
            )
        transport.write(data)
        if inst is not None:
            inst.bytes_written.inc(len(data))

    def _fault(
        self, action: Optional[NetAction], inst: Optional[ServerInstruments]
    ) -> Optional[NetAction]:
        if action is not None and inst is not None:
            inst.injected_faults.labels(action[0]).inc()
        return action

    def _hang_up(self, *, abort: bool) -> None:
        self._closing = True
        # close() still sends what is written; abort() drops it.
        (self.transport.abort if abort else self.transport.close)()

    # -------------------------------------------------------------- waiting
    def _wait(self, pending: Coroutine[Any, Any, None]) -> None:
        """Run the rest of a request as the connection's one task; frames
        behind it wait.  ``_active`` counts these tasks: a request answered
        synchronously is never seen in flight."""
        self.daemon._active += 1
        self._task = task = asyncio.get_running_loop().create_task(pending)
        task.add_done_callback(self._waited)

    def _waited(self, task: "asyncio.Task[None]") -> None:
        self._task = None
        self.daemon._active -= 1
        if not task.cancelled() and task.exception() is not None:
            # A daemon bug (the request path answers every failure): report it.
            task.get_loop().call_exception_handler(
                {"message": "request task failed", "exception": task.exception(), "protocol": self}
            )
            self._hang_up(abort=True)
        self._resume()

    def _resume(self) -> None:
        """Answer what was buffered meanwhile; read on if nothing waits."""
        if self._task is None and self._write_timer is None and not self._closing:
            self._serve_frames()
            if self._task is None and self._write_timer is None:
                self.transport.resume_reading()

    def _write_timed_out(self) -> None:
        # A client that does not read would otherwise pin daemon memory.
        self._write_timer = None
        inst = self.daemon._instruments()
        if inst is not None:
            inst.slow_client_closes.inc()
        self._hang_up(abort=True)


# ----------------------------------------------------------------- internals
class _BadRequest(Exception):
    """Request-shape violation (mapped to the bad_request error code)."""


class _DeadlineHit(Exception):
    """The deadline fired somewhere on the execution path."""


#: The exceptions the execution path answers with an error code, and the
#: code for each one :meth:`QueryDaemon._failure` does not shape itself.
_FAILURE_CODES = (
    (_BadRequest, E_BAD_REQUEST), (InvalidObjectError, E_BAD_REQUEST),
    (InvalidQueryError, E_BAD_REQUEST), (DuplicateObjectError, E_CONFLICT),
    (UnknownObjectError, E_NOT_FOUND), (StoreClosedError, E_UNAVAILABLE),
)
_FAILURES = (_DeadlineHit, ShardUnavailableError) + tuple(kind for kind, _ in _FAILURE_CODES)

_READ_VERBS = frozenset({"query", "batch"})


@dataclass(slots=True)
class _Request:
    """One work request between its dispatch and its response."""

    id: Any
    verb: str
    payload: Dict[str, Any]
    tenant: Tenant
    deadline: float
    started: float
    inst: Optional[ServerInstruments]
    trace: RequestTrace
    reads: Optional[List[TimeTravelQuery]] = None  # parsed once admitted
    held: bool = False  # a read hold taken on the loop, handed to the pool
    queue_ms: float = 0.0
    lock_ms: float = 0.0


def _parse_reads(verb: str, payload: Dict[str, Any]) -> List[TimeTravelQuery]:
    if verb == "query":
        return [_query_from(payload)]
    raw = payload.get("queries")
    if not isinstance(raw, list) or not raw:
        raise _BadRequest("'batch' needs a non-empty 'queries' list")
    return [_query_from(item) for item in raw]


def _read(request: _Request) -> Any:
    """Run a ``query``/``batch`` request's reads: one partial result, or a list."""
    tenant, deadline, reads = request.tenant, request.deadline, request.reads
    assert reads is not None
    if request.verb == "query":
        return tenant.query_partial(reads[0], deadline)
    expired = {"*": {"code": E_DEADLINE, "message": "batch deadline expired"}}
    return [
        tenant.query_partial(q, deadline) if time.monotonic() < deadline
        else PartialResult(ids=NO_IDS, complete=False, shard_errors=expired)
        for q in reads
    ]


def _capture(fn: Callable[[], Any], active: Optional[object]) -> Callable[[], Tuple[str, Any]]:
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
    return ({E_OVERLOADED: "shed", E_DEADLINE: "deadline"}.get(code, "error"), code)


def _query_from(payload: Dict[str, Any]) -> TimeTravelQuery:
    start, end = _bounds_from(payload)
    try:
        return make_query(start, end, _elements_from(payload))
    except ReproError as exc:
        raise _BadRequest(str(exc)) from exc


def _bounds_from(payload: Dict[str, Any]) -> Tuple[float, float]:
    start, end = bounds = payload.get("start"), payload.get("end")
    for key, raw in zip(("start", "end"), bounds):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise _BadRequest(f"{key} must be a number, got {raw!r}")
    return start, end


def _elements_from(payload: Dict[str, Any]) -> List[str]:
    raw = payload.get("elements", [])
    if isinstance(raw, str):
        raw = [e for e in raw.split(",") if e]
    if not isinstance(raw, list) or not all(isinstance(e, str) for e in raw):
        raise _BadRequest("elements must be a list of strings")
    return raw
