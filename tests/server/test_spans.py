"""Span shapes and server accounting, pinned as small goldens.

The same request yields the same span tree whether the daemon answers it
inside the connection's data callback or from a task that waits for the
pool, and a fixed request script moves the server's counters by fixed
amounts.
"""

import socket
import time

import pytest

from repro.obs.instruments import register_catalog
from repro.obs.registry import OBS, MetricsRegistry, set_registry
from repro.server import ServerConfig, start_daemon_thread
from repro.server.protocol import encode_frame, read_frame_sock

from tests.server.conftest import _stop_quietly

QUERY = {"verb": "query", "tenant": "docs", "start": 0, "end": 5_000, "elements": ["e0", "e3"]}
SHOWN = ("admitted", "write", "inline", "verb", "tenant", "error_code")
CORE = ("ingress", "admission", "tenant_lock", "execute", "store_query")


def shape(doc):
    """(name, parent name, pinned attrs, status) per core span, in order."""
    names = {s["span_id"]: s["name"] for s in doc["spans"]}
    return [
        (s["name"], names.get(s["parent_id"]),
         {k: v for k, v in s["attrs"].items() if k in SHOWN}, s["status"])
        for s in doc["spans"]
        if s["name"] in CORE
    ]


def ask(sock, request_id, **fields):
    sock.sendall(encode_frame({"id": request_id, **fields}))
    return read_frame_sock(sock)


@pytest.fixture()
def traced(registry):
    handle = start_daemon_thread(registry, ServerConfig(trace_sample_rate=1.0, trace_seed=3))
    yield handle
    _stop_quietly(handle)


def last_trace(handle):
    return handle.daemon.tracer.buffer.snapshot(1)[-1]


INLINE = [
    ("ingress", None, {"verb": "query", "tenant": "docs"}, "ok"),
    ("admission", "ingress", {"admitted": "ok"}, "ok"),
    ("tenant_lock", "ingress", {"write": False}, "ok"),
    ("execute", "ingress", {"inline": True}, "ok"),
    ("store_query", "execute", {}, "ok"),
]


class TestSpanShape:
    def test_inline_and_pool_reads_keep_their_span_trees(self, traced, registry):
        with socket.create_connection(("127.0.0.1", traced.port), timeout=5) as sock:
            assert ask(sock, 1, **QUERY)["ok"]
            inline = shape(last_trace(traced))
            registry.get("docs").work_bound = lambda q: None  # unbounded: the pool
            assert ask(sock, 2, **QUERY)["ok"]
            pooled = shape(last_trace(traced))
            assert ask(sock, 3, verb="insert", tenant="docs", object_id=990_001,
                       start=1, end=2, elements=["x"])["ok"]
            insert = shape(last_trace(traced))
        assert inline == INLINE
        assert pooled == [
            *INLINE[:3], ("execute", "ingress", {"inline": False}, "ok"), INLINE[4]
        ]
        assert insert == [
            ("ingress", None, {"verb": "insert", "tenant": "docs"}, "ok"),
            ("admission", "ingress", {"admitted": "ok"}, "ok"),
            ("tenant_lock", "ingress", {"write": True}, "ok"),
            ("execute", "ingress", {"inline": False}, "ok"),
        ]

    def test_a_sampled_deadline_miss_stops_after_admission(self, traced):
        with socket.create_connection(("127.0.0.1", traced.port), timeout=5) as sock:
            response = ask(sock, 1, **QUERY, deadline_ms=1e-6)
        assert response["error"]["code"] == "deadline_exceeded"
        doc = last_trace(traced)
        assert doc["status"] == "deadline" and doc["forced"] is False
        assert shape(doc) == [
            ("ingress", None,
             {"verb": "query", "tenant": "docs", "error_code": "deadline_exceeded"},
             "deadline"),
            ("admission", "ingress", {"admitted": "ok"}, "ok"),
        ]


class TestForcedTraces:
    def test_unsampled_deadline_miss_and_unknown_tenant(self, registry):
        handle = start_daemon_thread(registry, ServerConfig(trace_sample_rate=0.0, trace_seed=3))
        try:
            buffer = handle.daemon.tracer.buffer
            with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
                assert ask(sock, 1, **QUERY, deadline_ms=1e-6)["ok"] is False
                (forced,) = buffer.snapshot(10)
                assert ask(sock, 2, **{**QUERY, "tenant": "nope"})["error"]["code"] == (
                    "unknown_tenant"
                )
                after = buffer.snapshot(10)
        finally:
            _stop_quietly(handle)
        assert forced["forced"] is True and forced["status"] == "deadline"
        assert shape(forced) == [
            ("ingress", None,
             {"verb": "query", "tenant": "docs", "error_code": "deadline_exceeded"},
             "deadline"),
        ]
        assert after == [forced]  # an unknown tenant is refused before any trace


#: The server counters after ``test_a_fixed_script_...``'s five requests
#: (ping, an inline query, an unknown tenant, an insert, an unknown verb)
#: and the drain; identical to what the stream-based connection counted.
GOLDEN_COUNTERS = {
    "repro_server_bytes_read_total{}": 325.0,
    "repro_server_bytes_written_total{}": 426.0,
    "repro_server_connections_total{}": 1.0,
    "repro_server_deadline_exceeded_total{}": 0.0,
    "repro_server_drains_total{}": 1.0,
    "repro_server_errors_total{code=bad_request}": 1.0,
    "repro_server_errors_total{code=unknown_tenant}": 1.0,
    "repro_server_partial_results_total{}": 0.0,
    "repro_server_requests_total{verb=insert}": 1.0,
    "repro_server_requests_total{verb=ping}": 1.0,
    "repro_server_requests_total{verb=query}": 2.0,
    "repro_server_shed_total{}": 0.0,
    "repro_server_slow_client_closes_total{}": 0.0,
}


class TestAccounting:
    def test_status_counts_live_connections(self, daemon):
        first = socket.create_connection(("127.0.0.1", daemon.port), timeout=5)
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as second:
            status = ask(first, 1, verb="status")
            assert status["result"]["open_connections"] == 2, status
            first.close()
            deadline = time.monotonic() + 5
            while True:  # the close reaches the daemon on its own schedule
                view = ask(second, 2, verb="introspect", what="top")["result"]
                seen = view["daemon"]["open_connections"]
                if seen == 1 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        assert seen == 1

    def test_a_fixed_script_moves_the_counters_by_fixed_amounts(self, registry):
        previous = set_registry(register_catalog(MetricsRegistry(enabled=True)))
        try:
            handle = start_daemon_thread(registry, ServerConfig())
            try:
                with socket.create_connection(("127.0.0.1", handle.port), timeout=5) as sock:
                    assert ask(sock, 1, verb="ping")["ok"]
                    assert ask(sock, 2, **QUERY)["ok"]
                    assert not ask(sock, 3, **{**QUERY, "tenant": "nope"})["ok"]
                    assert ask(sock, 4, verb="insert", tenant="docs", object_id=990_002,
                               start=1, end=2, elements=["x"])["ok"]
                    assert not ask(sock, 5, verb="bogus")["ok"]
            finally:
                _stop_quietly(handle)
            metrics = OBS.registry.counter_snapshot()
            inflight = OBS.registry.sample_value("repro_server_inflight_requests")
        finally:
            set_registry(previous)
        server = {k: v for k, v in metrics.items() if k.startswith("repro_server_")}
        assert server == GOLDEN_COUNTERS
        assert inflight == 0.0


