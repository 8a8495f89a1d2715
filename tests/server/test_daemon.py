"""Daemon verb semantics over live sockets: the happy and unhappy paths."""

import socket
import struct

import pytest

from repro.core.collection import Collection
from repro.core.model import make_query
from repro.indexes.brute import BruteForce
from repro.server import ServerError, protocol
from repro.server.tenants import TenantRegistry, UnknownTenantError, validate_tenant_name
from repro.core.errors import ConfigurationError

from tests.server.conftest import make_client


class TestQueryVerbs:
    def test_store_query_matches_oracle(self, client, store_objects):
        oracle = BruteForce.build(Collection(store_objects))
        q = make_query(0, 5_000, {"e0", "e3"})
        result = client.query("docs", 0, 5_000, ["e0", "e3"])
        assert result["ids"].tolist() == sorted(oracle.query(q))
        assert result["complete"] is True
        assert result["shards_planned"] == 1

    def test_cluster_query_scatter_gathers_completely(
        self, client, cluster_objects
    ):
        oracle = BruteForce.build(Collection(cluster_objects))
        q = make_query(0, 20_000, set())
        result = client.query("shards", 0, 20_000)
        assert result["ids"].tolist() == sorted(oracle.query(q))
        assert result["complete"] is True
        assert result["shards_planned"] >= 1

    def test_batch_answers_every_query_in_order(self, client, store_objects):
        oracle = BruteForce.build(Collection(store_objects))
        specs = [
            {"start": 0, "end": 20_000},
            {"start": 0, "end": 2_000, "elements": ["e1"]},
            {"start": 5_000, "end": 5_001},
        ]
        result = client.batch("docs", specs)
        assert result["complete"] is True
        assert len(result["results"]) == 3
        for spec, got in zip(specs, result["results"]):
            q = make_query(spec["start"], spec["end"], set(spec.get("elements", [])))
            assert got["ids"].tolist() == sorted(oracle.query(q))

    def test_mutations_round_trip_and_are_isolated_per_tenant(self, client):
        assert client.insert("docs", 900_001, 50, 60, ["zz"]) == {
            "inserted": 900_001
        }
        assert 900_001 in client.query("docs", 55, 56, ["zz"])["ids"]
        # The other tenant must not see it: isolation is per directory.
        assert 900_001 not in client.query("shards", 55, 56, ["zz"])["ids"]
        assert client.delete("docs", 900_001) == {"deleted": 900_001}
        assert 900_001 not in client.query("docs", 55, 56, ["zz"])["ids"]


class TestErrorSemantics:
    def test_unknown_tenant(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.query("nope", 0, 1)
        assert caught.value.code == "unknown_tenant"

    def test_unknown_verb(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.request("frobnicate", retryable=False)
        assert caught.value.code == "bad_request"

    def test_missing_tenant_field(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.request("query", retryable=False, start=0, end=1)
        assert caught.value.code == "bad_request"

    def test_malformed_bounds(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.request(
                "query", retryable=False, tenant="docs", start="soon", end=1
            )
        assert caught.value.code == "bad_request"

    def test_invalid_deadline(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.query("docs", 0, 1, deadline_ms=-5)
        assert caught.value.code == "bad_request"

    def test_non_finite_deadlines_over_the_wire(self, daemon):
        """``json.loads`` parses the ``NaN`` and ``Infinity`` literals: NaN
        is refused like any non-positive deadline, Infinity is capped."""

        def send(raw_deadline: bytes):
            body = (
                b'{"id": 1, "verb": "query", "tenant": "docs", "start": 0, '
                b'"end": 100, "deadline_ms": ' + raw_deadline + b"}"
            )
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
                sock.settimeout(5)
                sock.sendall(struct.pack("!I", len(body)) + body)
                return protocol.read_frame_sock(sock)

        refused = send(b"NaN")
        assert refused["ok"] is False
        assert refused["error"]["code"] == "bad_request"
        assert "positive" in refused["error"]["message"]
        assert send(b"Infinity")["ok"] is True
        assert daemon.daemon._deadline_seconds({"deadline_ms": float("inf")}) == (
            daemon.daemon.config.max_deadline_ms / 1000.0
        )

    def test_duplicate_insert_is_a_conflict(self, strict_client, store_objects):
        existing = store_objects[0]
        with pytest.raises(ServerError) as caught:
            strict_client.insert("docs", existing.id, 0, 1, ["e0"])
        assert caught.value.code == "conflict"

    def test_unknown_delete_is_not_found(self, strict_client):
        with pytest.raises(ServerError) as caught:
            strict_client.delete("docs", 123_456_789)
        assert caught.value.code == "not_found"

    def test_garbage_frame_gets_one_error_then_disconnect(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(struct.pack("!I", 3) + b"{{{")
            response = protocol.read_frame_sock(sock)
            assert response is not None and response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert protocol.read_frame_sock(sock) is None  # then EOF


class TestControlVerbs:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_status_reports_tenants_and_limits(self, client):
        status = client.status()
        assert [t["tenant"] for t in status["tenants"]] == ["docs", "shards"]
        kinds = {t["tenant"]: t["kind"] for t in status["tenants"]}
        assert kinds == {"docs": "store", "shards": "cluster"}
        assert status["draining"] is False
        assert status["limits"]["max_inflight"] >= 1

    def test_metrics_verb_answers_even_when_disabled(self, client):
        result = client.metrics()
        assert result["format"] == "prometheus"
        assert result["enabled"] is False

    def test_shutdown_verb_drains_and_exits_zero(self, registry):
        from repro.server import ServerConfig, start_daemon_thread

        handle = start_daemon_thread(registry, ServerConfig())
        with make_client(handle) as c:
            assert c.shutdown() == {"draining": True}
        report = handle.join(15)
        assert report["abandoned"] == 0


class TestTenantRegistry:
    def test_open_root_autodetects_both_kinds(self, registry):
        assert registry.names() == ["docs", "shards"]
        assert registry.get("docs").kind == "store"
        assert registry.get("shards").kind == "cluster"

    def test_unrecognised_directories_are_skipped(self, tenant_root):
        (tenant_root / "scratch").mkdir()
        reg = TenantRegistry.open_root(tenant_root, wal_fsync=False)
        assert reg.names() == ["docs", "shards"]
        reg.close_all()

    def test_invalid_named_non_tenant_dirs_are_skipped(self, tenant_root):
        # Manifest-less dirs whose names fail the tenant-name rules
        # (filesystem artifacts, tool droppings) must be skipped, not
        # refused — they are simply not tenants.
        (tenant_root / "lost+found").mkdir()
        (tenant_root / "__pycache__").mkdir()
        (tenant_root / ".tmp").mkdir()
        reg = TenantRegistry.open_root(tenant_root, wal_fsync=False)
        assert reg.names() == ["docs", "shards"]
        reg.close_all()

    def test_unknown_tenant_raises(self, registry):
        with pytest.raises(UnknownTenantError):
            registry.get("absent")

    def test_tenant_names_are_validated(self):
        validate_tenant_name("ok-name.v2")
        for bad in ("", "../escape", "a/b", "-leading", "x" * 65):
            with pytest.raises(ConfigurationError):
                validate_tenant_name(bad)

    def test_create_store_tenant_refuses_duplicates(self, registry):
        with pytest.raises(ConfigurationError):
            registry.create_store_tenant("docs")
