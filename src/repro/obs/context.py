"""Distributed trace context: propagated ids, spans, sampling, buffering.

This module records what one *request* does across the whole service —
client → daemon ingress → admission queue → tenant lock → executor
thread → cluster router → shard → replica → index — stitched into a
single tree by a shared ``trace_id``.  It is the only trace mechanism:
the index query paths record their evaluation phases as :func:`event`
records under whatever span is innermost (``store_query``,
``replica:<n>``), and ``explain()`` reads one query's phases from a
trace it mints for itself.

Design points:

* **Wire context** (:class:`TraceContext`) is three fields — ``trace_id``,
  ``span_id``, ``sampled`` — carried as an optional ``"trace"`` object in
  the request envelope (:mod:`repro.server.protocol`).  Malformed
  contexts are ignored, never fatal: tracing must not fail a request.
* **Head-based sampling**: the decision is made once, at the root
  (client or daemon ingress), and inherited by every child span.  An
  unsampled request pays only a handful of attribute loads.  Requests
  that end in an error or a deadline miss are *force-captured* even when
  unsampled — a synthesized single-span trace preserves the evidence
  without paying full span cost on the happy path.
* **Task/thread propagation** rides a :class:`contextvars.ContextVar`, so
  concurrent asyncio tasks cannot leak spans into each other.  Crossing
  into a worker thread (or any executor) is explicit:
  ``active = capture_active()`` on the submitting side,
  ``with under(active):`` inside the worker.  A single copied
  ``Context`` object cannot be ``run()`` from several threads at once,
  so the handoff re-parents rather than copies.
* **Bounded buffer**: finished traces land in a :class:`TraceBuffer`
  (deque, oldest evicted) that the daemon exports through the
  ``introspect`` verb.  Nothing is written to disk here; the slow-query
  log (:mod:`repro.obs.events`) handles persistence.

Span-recording calls are no-ops unless a sampled request is active, so
instrumented code paths need no guards:

    with span("router_plan", shards=3):
        ...
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

from repro.utils.locks import make_lock

__all__ = [
    "TraceContext",
    "SpanRecord",
    "TraceBuilder",
    "TraceBuffer",
    "Tracer",
    "RequestTrace",
    "span",
    "event",
    "annotate",
    "tracing_active",
    "capture_active",
    "under",
    "mint_context",
]


def _gen_id(rng: random.Random) -> str:
    return f"{rng.getrandbits(64):016x}"


class TraceContext:
    """The propagated identity of a request: what goes on the wire."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(
        self, trace_id: str, span_id: str, sampled: Optional[bool] = None
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_wire(self) -> Dict[str, object]:
        out: Dict[str, object] = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.sampled is not None:
            out["sampled"] = bool(self.sampled)
        return out

    @staticmethod
    def from_wire(raw: object) -> Optional["TraceContext"]:
        """Parse a wire context; ``None`` for anything malformed.

        Lenient by contract: a bad trace header must not fail the
        request it rides on, it just starts a fresh trace.
        """
        if not isinstance(raw, dict):
            return None
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        if not isinstance(trace_id, str) or not trace_id or len(trace_id) > 64:
            return None
        if not isinstance(span_id, str) or not span_id or len(span_id) > 64:
            return None
        sampled = raw.get("sampled")
        if sampled is not None and not isinstance(sampled, bool):
            sampled = None
        return TraceContext(trace_id, span_id, sampled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, sampled={self.sampled})"
        )


class SpanRecord:
    """One timed operation inside a trace (mutable while open)."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "offset",
        "duration",
        "status",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        offset: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.offset = offset  #: seconds since trace start
        self.duration: Optional[float] = None  #: None while the span is open
        self.status = "ok"
        self.attrs = attrs

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "offset_ms": round(self.offset * 1000.0, 3),
            "duration_ms": (
                None if self.duration is None else round(self.duration * 1000.0, 3)
            ),
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class TraceBuilder:
    """Collects the spans of one sampled request (thread-safe append)."""

    __slots__ = ("trace_id", "_rng", "_lock", "_spans", "_t0", "start_utc")

    def __init__(self, trace_id: str, rng: random.Random) -> None:
        self.trace_id = trace_id
        self._rng = rng
        self._lock = make_lock("obs.trace")
        self._spans: List[SpanRecord] = []
        self._t0 = time.perf_counter()
        self.start_utc = time.time()

    def start_span(
        self, name: str, parent_id: Optional[str], attrs: Dict[str, Any]
    ) -> SpanRecord:
        offset = time.perf_counter() - self._t0
        with self._lock:
            span_id = _gen_id(self._rng)
            rec = SpanRecord(self.trace_id, span_id, parent_id, name, offset, attrs)
            self._spans.append(rec)
        return rec

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def spans(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._spans)


class _Active:
    """What the ContextVar holds: the builder plus the innermost open span."""

    __slots__ = ("builder", "record")

    def __init__(self, builder: TraceBuilder, record: SpanRecord) -> None:
        self.builder = builder
        self.record = record


_CURRENT: ContextVar[Optional[_Active]] = ContextVar("repro_trace_active", default=None)


def tracing_active() -> bool:
    """Whether the calling task/thread is inside a sampled request."""
    return _CURRENT.get() is not None


class _NoopSpan:
    """Shared do-nothing context manager for the unsampled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanCM:
    """Context manager recording one span under the current active span."""

    __slots__ = ("_active", "_name", "_attrs", "_record", "_token", "_t0")

    def __init__(self, active: _Active, name: str, attrs: Dict[str, Any]) -> None:
        self._active = active
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> SpanRecord:
        builder = self._active.builder
        rec = builder.start_span(self._name, self._active.record.span_id, self._attrs)
        self._record = rec
        self._token = _CURRENT.set(_Active(builder, rec))
        self._t0 = time.perf_counter()
        return rec

    def __exit__(self, exc_type, exc, tb) -> bool:
        rec = self._record
        rec.duration = time.perf_counter() - self._t0
        if exc_type is not None and rec.status == "ok":
            rec.status = "error"
            rec.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        _CURRENT.reset(self._token)
        return False


def span(name: str, **attrs: Any) -> object:
    """Open a child span of the current request, or do nothing.

    Returns a context manager; inside a sampled request ``__enter__``
    yields the live :class:`SpanRecord` (mutate ``attrs``/``status``
    freely), otherwise ``None``.  A span whose body raises is marked
    ``status="error"`` before the exception propagates.
    """
    active = _CURRENT.get()
    if active is None:
        return _NOOP
    return _SpanCM(active, name, attrs)


def event(name: str, status: str = "ok", **attrs: Any) -> Optional[SpanRecord]:
    """Record an instantaneous (zero-duration) span, e.g. an abandonment."""
    active = _CURRENT.get()
    if active is None:
        return None
    rec = active.builder.start_span(name, active.record.span_id, attrs)
    rec.duration = 0.0
    rec.status = status
    return rec


def annotate(**attrs: Any) -> None:
    """Merge attributes into the innermost open span, if any."""
    active = _CURRENT.get()
    if active is not None:
        active.record.attrs.update(attrs)


def capture_active() -> Optional[_Active]:
    """Snapshot the current span for an explicit cross-thread handoff."""
    return _CURRENT.get()


@contextmanager
def under(active: Optional[_Active]) -> Iterator[None]:
    """Re-parent this thread's spans beneath a captured span.

    The worker-thread half of the handoff: the submitter calls
    :func:`capture_active`, the worker wraps its body in
    ``with under(active):``.  ``None`` (unsampled) is accepted and does
    nothing, so call sites need no guards.
    """
    if active is None:
        yield
        return
    token = _CURRENT.set(active)
    try:
        yield
    finally:
        _CURRENT.reset(token)


class TraceBuffer:
    """Bounded in-memory store of finished trace documents."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"trace buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = make_lock("obs.trace-buffer")
        self._docs: List[Dict[str, object]] = []
        self.dropped = 0  #: traces evicted to make room

    def add(self, doc: Dict[str, object]) -> None:
        with self._lock:
            self._docs.append(doc)
            if len(self._docs) > self.capacity:
                del self._docs[0]
                self.dropped += 1

    def snapshot(
        self,
        limit: int = 20,
        *,
        trace_id: Optional[str] = None,
        tenant: Optional[str] = None,
        min_duration_ms: float = 0.0,
    ) -> List[Dict[str, object]]:
        """Newest-first filtered view (documents are not copied deeply)."""
        with self._lock:
            docs = list(reversed(self._docs))
        out: List[Dict[str, object]] = []
        for doc in docs:
            if trace_id is not None and doc.get("trace_id") != trace_id:
                continue
            if tenant is not None and doc.get("attrs", {}).get("tenant") != tenant:
                continue
            if doc.get("duration_ms", 0.0) < min_duration_ms:
                continue
            out.append(doc)
            if len(out) >= limit:
                break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)


class _ActivateCM:
    """Installs a request's root span as the task-local current span."""

    __slots__ = ("_builder", "_root", "_token")

    def __init__(self, builder: TraceBuilder, root: SpanRecord) -> None:
        self._builder = builder
        self._root = root

    def __enter__(self) -> None:
        self._token = _CURRENT.set(_Active(self._builder, self._root))
        return None

    def __exit__(self, *exc: object) -> bool:
        _CURRENT.reset(self._token)
        return False


class RequestTrace:
    """One server-side request: root span when sampled, stub otherwise.

    Even unsampled requests get a ``RequestTrace`` — it carries the
    trace id (for the slow-query log) and the start timestamps needed to
    synthesize a forced single-span trace if the request ends badly.
    """

    __slots__ = (
        "tracer",
        "trace_id",
        "sampled",
        "_parent_span",
        "_builder",
        "_root",
        "_attrs",
        "_t0",
        "_start_utc",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        parent_span: Optional[str],
        sampled: bool,
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.sampled = sampled
        self._parent_span = parent_span
        self._attrs = attrs
        self._t0 = time.perf_counter()
        self._start_utc = time.time()
        self._finished = False
        if sampled:
            self._builder = TraceBuilder(trace_id, tracer._rng)
            self._root = self._builder.start_span(name, parent_span, attrs)
        else:
            self._builder = None
            self._root = None

    def activate(self) -> object:
        """Install this request's root span as the task-local current span.

        Returns a context manager; the unsampled path gets the shared
        no-op instance (this sits on every request, so it avoids the
        generator machinery of ``@contextmanager``).
        """
        if self._builder is None:
            return _NOOP
        return _ActivateCM(self._builder, self._root)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the root span (kept even when unsampled)."""
        self._attrs.update(attrs)
        if self._root is not None:
            self._root.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return time.perf_counter() - self._t0

    def finish(
        self, status: str = "ok", *, force: bool = False
    ) -> Optional[Dict[str, object]]:
        """Close the trace; deposit into the buffer when it should be kept.

        Sampled traces are always kept.  Unsampled traces are kept —
        synthesized as a single root span — when ``status`` is not
        ``"ok"``/``"partial"`` or ``force`` is true, so errors and
        deadline misses leave evidence regardless of the sample rate.
        Returns the deposited document, or ``None``.
        """
        if self._finished:  # idempotent: daemon error paths may double-close
            return None
        self._finished = True
        duration = time.perf_counter() - self._t0
        if self._builder is not None:
            root = self._root
            root.duration = duration
            root.status = status
            doc = self._doc(status, duration, [s.to_dict() for s in self._builder.spans()])
            doc["forced"] = False
            self.tracer._deposit(doc, forced=False)
            return doc
        if force or status not in ("ok", "partial"):
            root_dict = {
                "span_id": _gen_id(self.tracer._rng),
                "parent_id": self._parent_span,
                "name": "ingress",
                "offset_ms": 0.0,
                "duration_ms": round(duration * 1000.0, 3),
                "status": status,
                "attrs": dict(self._attrs),
            }
            doc = self._doc(status, duration, [root_dict])
            doc["forced"] = True
            self.tracer._deposit(doc, forced=True)
            return doc
        return None

    def _doc(
        self, status: str, duration: float, spans: List[Dict[str, object]]
    ) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "status": status,
            "sampled": self.sampled,
            "start_utc": self._start_utc,
            "duration_ms": round(duration * 1000.0, 3),
            "attrs": dict(self._attrs),
            "spans": spans,
        }


class Tracer:
    """Mints request traces with head-based sampling; owns the buffer.

    ``rng`` is injectable for deterministic tests; it is only touched
    from the thread that calls :meth:`begin` (the daemon's event loop),
    while span-id generation inside a trace goes through the builder's
    lock.
    """

    def __init__(
        self,
        sample_rate: float = 0.01,
        capacity: int = 256,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.buffer = TraceBuffer(capacity)
        self._rng = rng if rng is not None else random.Random()
        self.sampled_total = 0
        self.forced_total = 0

    def begin(
        self,
        parent: Optional[TraceContext],
        name: str = "ingress",
        **attrs: Any,
    ) -> RequestTrace:
        """Start a request trace, honouring the parent's sampling decision.

        A parent context with an explicit ``sampled`` flag wins (the
        head made the decision); otherwise the configured rate applies.
        """
        if parent is not None:
            trace_id = parent.trace_id
            parent_span: Optional[str] = parent.span_id
            forced = parent.sampled
        else:
            trace_id = _gen_id(self._rng)
            parent_span = None
            forced = None
        if forced is not None:
            sampled = forced
        else:
            sampled = self.sample_rate >= 1.0 or (
                self.sample_rate > 0.0 and self._rng.random() < self.sample_rate
            )
        return RequestTrace(self, trace_id, parent_span, sampled, name, attrs)

    def _deposit(self, doc: Dict[str, object], *, forced: bool) -> None:
        self.buffer.add(doc)
        if forced:
            self.forced_total += 1
        else:
            self.sampled_total += 1


def mint_context(
    rng: random.Random, sampled: Optional[bool] = None
) -> TraceContext:
    """Client-side helper: a fresh root context to send with a request."""
    return TraceContext(_gen_id(rng), _gen_id(rng), sampled)
