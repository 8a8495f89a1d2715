"""repro.obs — end-to-end observability: metrics, tracing, exposition.

Cooperating layers:

* a zero-dependency **metrics core** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.registry`) — counters, gauges, log-bucket histograms,
  labelled families with a cardinality guard (plus an ``__other__``
  overflow bucket for expected-unbounded labels like tenant names), and
  a process-wide registry that defaults to *disabled* (null mode) so
  instrumented code costs one attribute load and a branch until someone
  opts in;
* **tracing** (:mod:`repro.obs.context`) — the one trace mechanism:
  request-scoped ``trace_id``/``span_id`` context propagated across the
  network protocol, the daemon's admission/lock/executor stages, and the
  cluster scatter-gather, with head-based sampling and a bounded trace
  buffer.  Inside a sampled request the index query paths record each
  evaluation phase as an event carrying the paper's cost counts
  (`entries scanned`, `candidates after`, `structures touched`);
  ``explain()`` in :mod:`repro.indexes.explain` runs one query under a
  trace of its own and reads those events;
* **events + SLOs** (:mod:`repro.obs.events`, :mod:`repro.obs.slo`) —
  a structured JSON event log with a threshold-triggered slow-query log,
  and rolling per-tenant SLO windows (p50/p99, error/shed/partial rates,
  burn-rate gauges);
* **exposition** (:mod:`repro.obs.exposition`) — Prometheus text format
  and JSON, plus a parser that round-trips the text back into a registry.

See ``docs/observability.md`` for the metric catalog and usage.
"""

from repro.obs.context import (
    RequestTrace,
    SpanRecord,
    TraceBuffer,
    TraceContext,
    Tracer,
    annotate,
    capture_active,
    event,
    mint_context,
    span,
    tracing_active,
    under,
)
from repro.obs.events import EventLog, SlowQueryLog, phase_durations
from repro.obs.exposition import (
    load_into_registry,
    parse_prometheus_text,
    registry_from_prometheus,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    OVERFLOW_VALUE,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
)
from repro.obs.registry import (
    OBS,
    MetricsRegistry,
    get_registry,
    isolated_registry,
    set_registry,
)
from repro.obs.slo import OUTCOMES, SloAccountant, TenantWindow

__all__ = [
    "OBS",
    "OUTCOMES",
    "OVERFLOW_VALUE",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "RequestTrace",
    "SloAccountant",
    "SlowQueryLog",
    "SpanRecord",
    "TenantWindow",
    "TraceBuffer",
    "TraceContext",
    "Tracer",
    "annotate",
    "capture_active",
    "event",
    "get_registry",
    "isolated_registry",
    "load_into_registry",
    "mint_context",
    "parse_prometheus_text",
    "phase_durations",
    "registry_from_prometheus",
    "render_json",
    "render_prometheus",
    "set_registry",
    "span",
    "tracing_active",
    "under",
]
