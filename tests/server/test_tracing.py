"""End-to-end distributed tracing through the live daemon.

The acceptance path: a client-minted trace context rides the wire
protocol into the daemon, through admission, the tenant lock and the
executor handoff, down into the cluster router's scatter-gather — and
the per-shard / per-replica spans all stitch back into a single tree
retrievable over the ``introspect`` verb and correlated with the
slow-query log.

The chaos leg replays a pinned fault schedule (``REPRO_FAULT_SEED``)
with every request sampled: traces must stay stitched while frames
drop, replicas die mid-storm, and deadlines abandon executor threads.
"""

import os

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.model import make_query
from repro.cli import main
from repro.indexes.explain import explain
from repro.server import (
    ServerConfig,
    ServerError,
    TenantRegistry,
    TransportError,
    start_daemon_thread,
)
from repro.service.faults import NetworkFaultInjector, chaos_net_plan
from repro.utils.retry import RetryPolicy

from tests.conftest import random_objects
from tests.indexes.test_explain import phase_tuples
from tests.server.conftest import FAULT_SEED, NO_RETRY, make_client

#: Generous retries so the pinned fault schedule cannot exhaust a client.
STORM_RETRY = RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.2)

#: The daemon-side spans the issue's acceptance test names explicitly.
CRITICAL_PATH = {"ingress", "admission", "tenant_lock", "execute", "router_plan"}


def span_names(doc):
    return [s["name"] for s in doc["spans"]]


def assert_stitched(doc):
    """One tree: exactly one root (the ingress span minted under the
    client's wire context) and every other parent resolved in-document."""
    spans = doc["spans"]
    known = {s["span_id"] for s in spans}
    roots = [s for s in spans if s["parent_id"] not in known]
    assert len(roots) == 1, (
        f"trace {doc['trace_id']} has {len(roots)} roots: "
        f"{[s['name'] for s in roots]}"
    )
    assert roots[0]["name"] == "ingress"
    assert all(s["offset_ms"] >= 0.0 for s in spans)
    return roots[0]


def slow_down_replicas(cluster, seconds):
    """Wrap every shard's replica-set read in a sleep; returns a restorer."""
    import time as time_mod

    originals = []
    for spec in cluster.table.shards:
        replica_set = cluster.router.replica_set(spec.shard_id)
        original = replica_set.query

        def slow_query(q, _original=original):
            time_mod.sleep(seconds)
            return _original(q)

        replica_set.query = slow_query
        originals.append((replica_set, original))

    def restore():
        for replica_set, original in originals:
            replica_set.query = original

    return restore


def planned_shards(doc):
    for s in doc["spans"]:
        if s["name"] == "router_plan":
            return set(s["attrs"].get("planned", []))
    return set()


def shard_spans(doc):
    return {s["name"] for s in doc["spans"] if s["name"].startswith("shard:")}


@pytest.fixture()
def wide_root(tmp_path):
    """A tenant root with one 4-shard × 2-replica cluster (``wide``)."""
    root = tmp_path / "tenants"
    root.mkdir()
    TemporalCluster.create(
        root / "wide",
        Collection(random_objects(240, seed=77)),
        index_key="tif-slicing",
        n_shards=4,
        n_replicas=2,
        wal_fsync=False,
        cache_size=0,  # no result cache: every query walks the replicas
    ).close()
    return root


@pytest.fixture()
def wide_registry(wide_root):
    return TenantRegistry.open_root(wide_root, wal_fsync=False)


@pytest.fixture()
def wide_daemon(wide_registry):
    """Daemon with sampling off and the slow log catching everything:
    only the client's explicit ``sampled=True`` decides what is traced."""
    handle = start_daemon_thread(
        wide_registry,
        ServerConfig(trace_sample_rate=0.0, slow_query_ms=0.0, trace_seed=99),
    )
    yield handle
    try:
        handle.stop(timeout=30.0)
    except RuntimeError:
        pass


class TestEndToEndTrace:
    def test_sampled_query_yields_one_stitched_trace(self, wide_daemon):
        """The issue's seeded acceptance test: client → 4-shard cluster →
        single trace covering ingress, admission, tenant lock, router plan
        and every planned shard, visible in the slow-query log."""
        with make_client(wide_daemon) as c:
            result = c.query("wide", 0, 30_000, sampled=True)
            trace_id = c.last_trace_id
            assert result["complete"] is True
            assert trace_id is not None

            view = c.introspect("traces", trace_id=trace_id)
            assert len(view["traces"]) == 1
            doc = view["traces"][0]
            assert doc["trace_id"] == trace_id
            assert doc["status"] == "ok"
            assert doc["forced"] is False

            assert_stitched(doc)
            names = set(span_names(doc))
            assert CRITICAL_PATH <= names

            planned = planned_shards(doc)
            assert len(planned) == 4  # the wide query overlaps every shard
            assert shard_spans(doc) == {f"shard:{s}" for s in planned}
            # replica-level probes nest under the shard spans
            assert any(n.startswith("replica:") for n in names)

            entries = c.introspect("slow_log", limit=50)["entries"]
            mine = [e for e in entries if e["trace_id"] == trace_id]
            assert len(mine) == 1
            entry = mine[0]
            assert entry["tenant"] == "wide"
            assert entry["verb"] == "query"
            assert entry["status"] == "ok"
            assert entry["queue_wait_ms"] >= 0.0
            assert entry["lock_wait_ms"] >= 0.0
            # per-phase durations, summed per span name
            assert entry["phases"]["execute"] >= 0.0
            assert any(p.startswith("shard:") for p in entry["phases"])
            assert entry["trace"]["trace_id"] == trace_id

    def test_unsampled_ok_request_leaves_no_trace(self, wide_daemon):
        with make_client(wide_daemon) as c:
            c.query("wide", 0, 30_000, sampled=False)
            trace_id = c.last_trace_id
            assert trace_id is not None  # context still rides the wire
            assert c.introspect("traces", trace_id=trace_id)["traces"] == []

    def test_unsampled_deadline_miss_is_force_captured(
        self, wide_daemon, wide_registry
    ):
        """Errors must be visible even below the sampling rate: the daemon
        synthesizes a single-span forced trace for the failed request."""
        cluster = wide_registry.get("wide").handle
        restore = slow_down_replicas(cluster, 0.8)
        try:
            with make_client(wide_daemon, retry=NO_RETRY) as c:
                # 0.1 s deadline + 0.5 s cluster grace < the 0.8 s probe:
                # the backstop abandons the executor thread, deterministically
                with pytest.raises(ServerError) as excinfo:
                    c.query("wide", 0, 30_000, deadline_ms=100, sampled=False)
                assert excinfo.value.code == "deadline_exceeded"
                trace_id = c.last_trace_id
                docs = c.introspect("traces", trace_id=trace_id)["traces"]
                assert len(docs) == 1
                assert docs[0]["forced"] is True
                assert docs[0]["status"] == "deadline"
                assert docs[0]["attrs"]["error_code"] == "deadline_exceeded"
        finally:
            restore()


class TestIndexPhasesInTrace:
    def test_store_query_span_carries_explains_phases(
        self, client, registry, small_tables
    ):
        """A sampled daemon trace shows what the index did: the events
        under ``store_query`` are the phases explain() reports for the
        same query on the same state."""
        client.query("docs", 0, 30_000, ["e0", "e1"], sampled=True)
        doc = client.introspect("traces", trace_id=client.last_trace_id)["traces"][0]
        (store_query,) = [s for s in doc["spans"] if s["name"] == "store_query"]
        events = [s for s in doc["spans"] if s["parent_id"] == store_query["span_id"]]

        index = registry.get("docs").handle.index
        explanation = explain(index, make_query(0, 30_000, {"e0", "e1"}))
        assert events and phase_tuples(events) == [
            (p.label, p.entries_scanned, p.candidates_after, p.structures_touched)
            for p in explanation.phases
        ]
        assert store_query["attrs"]["m"] == explanation.detail["m"]


class TestIntrospectVerb:
    def test_every_view_answers_with_its_shape(self, client):
        client.query("docs", 0, 30_000, sampled=True)
        traces = client.introspect("traces")
        assert set(traces) == {"traces", "buffered", "dropped", "sample_rate"}
        slow = client.introspect("slow_log")
        assert set(slow) == {"entries", "threshold_ms", "logged"}
        events = client.introspect("events")
        assert set(events) == {"events", "emitted"}
        slo = client.introspect("slo")
        assert set(slo) == {"tenants", "horizon_s", "latency_slo_ms", "error_budget"}
        assert "docs" in slo["tenants"]
        top = client.introspect("top")
        assert set(top) == {"tenants", "daemon"}
        assert top["daemon"]["draining"] is False
        assert top["daemon"]["open_connections"] >= 1

    def test_unknown_view_and_bad_limit_are_structured_errors(self, strict_client):
        with pytest.raises(ServerError) as excinfo:
            strict_client.introspect("spelunk")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServerError):
            strict_client.introspect("traces", limit=0)
        with pytest.raises(ServerError):
            strict_client.request("introspect", what="traces", trace_id=7)

    def test_trace_filters_narrow_the_snapshot(self, client):
        client.query("docs", 0, 30_000, sampled=True)
        docs_tid = client.last_trace_id
        client.query("shards", 0, 30_000, sampled=True)
        by_tenant = client.introspect("traces", tenant="docs")["traces"]
        assert by_tenant and all(
            d["attrs"]["tenant"] == "docs" for d in by_tenant
        )
        by_id = client.introspect("traces", trace_id=docs_tid)["traces"]
        assert [d["trace_id"] for d in by_id] == [docs_tid]


class TestChaosStorm:
    def test_storm_traces_stay_stitched(self, registry, tmp_path):
        """Satellite: under injected network faults, a replica kill and a
        deadline miss, every sampled request still yields stitched traces
        whose shard spans cover the router's plan."""
        slow_log_path = os.environ.get(
            "REPRO_CHAOS_SLOWLOG", str(tmp_path / "chaos-slow-queries.jsonl")
        )
        injector = NetworkFaultInjector(
            chaos_net_plan(FAULT_SEED, 300, p_drop=0.03, p_delay=0.05, p_close=0.02)
        )
        handle = start_daemon_thread(
            registry,
            ServerConfig(
                trace_sample_rate=1.0,
                trace_buffer=2048,
                slow_query_ms=0.0,
                slow_log_path=slow_log_path,
                trace_seed=FAULT_SEED,
            ),
            net_faults=injector,
        )
        cluster = registry.get("shards").handle
        shard_ids = [spec.shard_id for spec in cluster.table.shards]
        trace_ids = []
        deadline_tid = None
        try:
            with make_client(handle, retry=STORM_RETRY, timeout=0.75) as c:
                for i in range(30):
                    if i == 10:
                        # mid-storm fault: shard 0 loses its first replica,
                        # so later reads must fail over to replica 1
                        cluster.kill_replica(shard_ids[0], 0)
                    try:
                        c.query("shards", 0, 30_000, sampled=True)
                        trace_ids.append(c.last_trace_id)
                    except (ServerError, TransportError):
                        pass  # structured failure; its trace is checked below

            with make_client(handle, retry=STORM_RETRY, timeout=5.0) as probe:
                # deterministic deadline miss: 0.8 s replica probes blow
                # through the 0.1 s deadline + 0.5 s grace backstop
                restore = slow_down_replicas(cluster, 0.8)
                try:
                    probe.query("shards", 0, 30_000, deadline_ms=100, sampled=True)
                except (ServerError, TransportError):
                    pass
                finally:
                    restore()
                deadline_tid = probe.last_trace_id
                assert len(trace_ids) >= 20, "the storm drowned the client"
                failover_seen = False
                for trace_id in trace_ids:
                    docs = probe.introspect("traces", trace_id=trace_id)["traces"]
                    # a retried request may execute twice server-side; every
                    # execution must still produce its own stitched tree
                    assert docs, f"sampled request {trace_id} left no trace"
                    for doc in docs:
                        assert_stitched(doc)
                        planned = planned_shards(doc)
                        assert planned, "router plan span missing"
                        assert shard_spans(doc) <= {
                            f"shard:{s}" for s in planned
                        }
                        if doc["status"] == "ok":
                            # complete answers visited every planned shard
                            assert shard_spans(doc) == {
                                f"shard:{s}" for s in planned
                            }
                        for s in doc["spans"]:
                            if s["name"] == "replica:0" and s["status"] in (
                                "skipped_dead",
                                "error",
                            ):
                                failover_seen = True
                assert failover_seen, (
                    "no trace recorded the replica-0 failover "
                    f"(seed={FAULT_SEED})"
                )

                docs = probe.introspect("traces", trace_id=deadline_tid)["traces"]
                assert docs, "deadline miss must be captured"
                assert any(d["status"] == "deadline" for d in docs)

                entries = probe.introspect("slow_log", limit=200)["entries"]
                logged = {e["trace_id"] for e in entries}
                assert logged & set(trace_ids), "storm left no slow-log entries"
        finally:
            try:
                handle.stop(timeout=30.0)
            except RuntimeError:
                pass
        assert injector.actions_fired > 0, "the storm must actually fire"


class TestCliAgainstLiveDaemon:
    def test_stats_and_top_render_the_introspection_plane(
        self, wide_daemon, capsys
    ):
        with make_client(wide_daemon) as c:
            c.query("wide", 0, 30_000, sampled=True)
            trace_id = c.last_trace_id
        port = str(wide_daemon.port)

        assert main(["stats", "--traces", "--port", port, "--trace-id", trace_id]) == 0
        out = capsys.readouterr().out
        assert trace_id in out
        assert "ingress" in out and "router_plan" in out

        assert main(["stats", "--slow-log", "--port", port]) == 0
        assert trace_id in capsys.readouterr().out

        assert main(["stats", "--slo", "--port", port]) == 0
        assert "wide" in capsys.readouterr().out

        assert main(["client", "--port", port, "metrics"]) == 0
        capsys.readouterr()

        assert main(["top", "--port", port, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "executing=" in out and "buffered=" in out

    def test_stats_reports_a_dead_daemon_cleanly(self, capsys):
        assert main(["stats", "--traces", "--port", "1", "--timeout", "0.2"]) == 1
        assert "error:" in capsys.readouterr().err
