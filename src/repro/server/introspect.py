"""The ``introspect`` verb: the daemon's live observability plane.

One control request reads one view — finished traces, the slow-query
log, the event log, per-tenant SLO windows, a ``top`` summary, or the
cluster tenants' storage tiers — straight from the daemon's in-memory
state on the event loop (see ``docs/observability.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.server import protocol
from repro.server.protocol import E_BAD_REQUEST

if TYPE_CHECKING:
    from repro.server.daemon import QueryDaemon

#: Introspection views exported by the ``introspect`` verb.
INTROSPECT_VIEWS = ("traces", "slow_log", "events", "slo", "top", "tiers")


def introspect(
    daemon: "QueryDaemon", request_id: Any, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """The response to one ``introspect`` request."""
    def bad(message: str) -> Dict[str, Any]:
        return daemon._error(request_id, E_BAD_REQUEST, message, verb="introspect")

    what = payload.get("what", "top")
    if what not in INTROSPECT_VIEWS:
        return bad(
            f"unknown introspect view {what!r}; expected one of "
            f"{', '.join(INTROSPECT_VIEWS)}"
        )
    limit = payload.get("limit", 20)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
        return bad(f"limit must be a positive integer, got {limit!r}")
    limit = min(limit, 500)
    if what == "traces":
        trace_id = payload.get("trace_id")
        tenant = payload.get("tenant")
        min_duration = payload.get("min_duration_ms", 0.0)
        if trace_id is not None and not isinstance(trace_id, str):
            return bad("trace_id must be a string")
        if isinstance(min_duration, bool) or not isinstance(min_duration, (int, float)):
            return bad("min_duration_ms must be a number")
        buffer = daemon.tracer.buffer
        return protocol.ok_response(
            request_id,
            {
                "traces": buffer.snapshot(
                    limit,
                    trace_id=trace_id,
                    tenant=tenant if isinstance(tenant, str) else None,
                    min_duration_ms=float(min_duration),
                ),
                "buffered": len(buffer),
                "dropped": buffer.dropped,
                "sample_rate": daemon.tracer.sample_rate,
            },
        )
    if what == "slow_log":
        return protocol.ok_response(
            request_id,
            {
                "entries": daemon.slow_log.recent(limit),
                "threshold_ms": daemon.slow_log.threshold_ms,
                "logged": daemon.slow_log.logged,
            },
        )
    if what == "events":
        kind = payload.get("kind")
        return protocol.ok_response(
            request_id,
            {
                "events": daemon.events.recent(
                    limit, kind=kind if isinstance(kind, str) else None
                ),
                "emitted": daemon.events.emitted,
            },
        )
    if what == "tiers":
        tiers = []
        for name in daemon.tenants.names():
            tenant = daemon.tenants.get(name)
            handle = tenant.handle
            stats_fn = getattr(handle, "tier_status", None)
            if stats_fn is None:
                continue  # store tenants have no tiers
            cluster_stats = handle.stats()
            tiers.append(
                {
                    "tenant": name,
                    "tiers": cluster_stats.get("tiers"),
                    "segment_cache": cluster_stats.get("segment_cache"),
                    "shards": stats_fn()[:limit],
                }
            )
        return protocol.ok_response(request_id, {"tenants": tiers})
    slo = daemon.slo.publish()
    if what == "slo":
        return protocol.ok_response(
            request_id,
            {
                "tenants": slo,
                "horizon_s": daemon.slo.horizon_s,
                "latency_slo_ms": daemon.slo.latency_slo_ms,
                "error_budget": daemon.slo.error_budget,
            },
        )
    # top: one fetch for the live CLI view
    return protocol.ok_response(
        request_id,
        {
            "tenants": slo,
            "daemon": {
                "draining": daemon._draining,
                "executing": daemon._executing,
                "waiting": len(daemon._queue),
                "open_connections": len(daemon._writers),
                "traces_buffered": len(daemon.tracer.buffer),
                "traces_dropped": daemon.tracer.buffer.dropped,
                "sample_rate": daemon.tracer.sample_rate,
                "slow_queries": daemon.slow_log.logged,
                "slow_query_ms": daemon.slow_log.threshold_ms,
            },
        },
    )
