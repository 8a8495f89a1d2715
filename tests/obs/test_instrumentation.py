"""End-to-end instrumentation: query path, serving layer, CLI, bench."""

import json

from repro.core.model import make_object, make_query
from repro.indexes.registry import build_index
from repro.obs.exposition import parse_prometheus_text
from repro.obs.registry import isolated_registry
from repro.service import layout
from repro.service.store import DurableIndexStore


class TestQueryPath:
    def test_query_counters_by_index(self, random_collection):
        index = build_index("tif", random_collection)
        q = make_query(2000, 6000, {"e0", "e1"})
        with isolated_registry() as registry:
            result = index.query(q)
            index.query(q)
            assert registry.sample_value("repro_queries_total", [index.name]) == 2.0
            assert (
                registry.sample_value("repro_query_results_total", [index.name])
                == 2.0 * len(result)
            )
            family = registry.families()["repro_query_seconds"]
            assert family.labels(index.name).count == 2

    def test_pure_temporal_counter(self, random_collection):
        index = build_index("irhint-size", random_collection)
        with isolated_registry() as registry:
            index.query(make_query(2000, 6000, frozenset()))
            index.query(make_query(2000, 6000, {"e0"}))
            assert (
                registry.sample_value("repro_pure_temporal_queries_total", [index.name])
                == 1.0
            )
            assert registry.sample_value("repro_queries_total", [index.name]) == 2.0

    def test_disabled_registry_records_nothing(self, random_collection):
        index = build_index("tif", random_collection)
        with isolated_registry(enabled=False) as registry:
            index.query(make_query(2000, 6000, {"e0"}))
            assert registry.sample_value("repro_queries_total", [index.name]) == 0.0


class TestServingLayer:
    def test_wal_and_store_counters(self, tmp_path):
        with isolated_registry() as registry:
            with DurableIndexStore.open(tmp_path, index_key="tif") as store:
                store.insert(make_object(1, 0, 10, {"a"}))
                store.insert(make_object(2, 5, 15, {"b"}))
                store.delete(1)
            assert registry.sample_value("repro_wal_appends_total") == 3.0
            assert registry.sample_value("repro_wal_bytes_written_total") > 0.0
            assert (
                registry.sample_value("repro_store_mutations_total", ["insert"]) == 2.0
            )
            assert (
                registry.sample_value("repro_store_mutations_total", ["delete"]) == 1.0
            )
            assert (
                registry.sample_value("repro_store_mutations_since_checkpoint") == 3.0
            )
            assert registry.families()["repro_wal_append_seconds"].solo.count == 3
            assert registry.families()["repro_wal_fsync_seconds"].solo.count == 3

    def test_checkpoint_and_snapshot_counters(self, tmp_path):
        with isolated_registry() as registry:
            with DurableIndexStore.open(tmp_path, index_key="tif") as store:
                store.insert(make_object(1, 0, 10, {"a"}))
                store.checkpoint()
            assert registry.sample_value("repro_store_checkpoints_total") == 1.0
            assert registry.sample_value("repro_snapshots_written_total") == 1.0
            assert registry.sample_value("repro_snapshot_bytes") > 0.0
            assert registry.families()["repro_store_checkpoint_seconds"].solo.count == 1
            assert (
                registry.sample_value("repro_store_mutations_since_checkpoint") == 0.0
            )

    def test_auto_checkpoint_counts(self, tmp_path):
        with isolated_registry() as registry:
            with DurableIndexStore.open(
                tmp_path, index_key="tif", checkpoint_every=2
            ) as store:
                for i in range(4):
                    store.insert(make_object(i, 0, 10, {"a"}))
            assert registry.sample_value("repro_store_checkpoints_total") == 2.0

    def test_recovery_counters(self, tmp_path):
        with DurableIndexStore.open(tmp_path, index_key="tif") as store:
            store.insert(make_object(1, 0, 10, {"a"}))
            store.insert(make_object(2, 5, 15, {"b"}))
        with isolated_registry() as registry:
            with DurableIndexStore.open(tmp_path) as store:
                assert len(store.index) == 2
            assert registry.sample_value("repro_recovery_runs_total") == 1.0
            assert (
                registry.sample_value("repro_recovery_records_replayed_total") == 2.0
            )
            assert registry.sample_value("repro_recovery_degraded_total") == 0.0

    def test_torn_tail_counter(self, tmp_path):
        with DurableIndexStore.open(tmp_path, index_key="tif") as store:
            store.insert(make_object(1, 0, 10, {"a"}))
        segments = layout.list_wal_segments(tmp_path)
        with open(segments[-1][1], "ab") as handle:
            handle.write(b"\x07garbage-tail")
        with isolated_registry() as registry:
            with DurableIndexStore.open(tmp_path) as store:
                assert len(store.index) == 1
            assert registry.sample_value("repro_recovery_torn_tails_total") == 1.0


class TestCli:
    def test_stats_metrics_prometheus(self, capsys):
        from repro.cli import main

        assert main(["stats", "--metrics"]) == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        assert parsed.types["repro_wal_appends_total"] == "counter"
        assert parsed.types["repro_snapshot_bytes"] == "gauge"
        assert parsed.value("repro_recovery_runs_total") == 0.0

    def test_stats_metrics_json(self, capsys):
        from repro.cli import main

        assert main(["stats", "--metrics", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(family["name"] == "repro_wal_appends_total" for family in doc)

    def test_stats_without_data_or_metrics_errors(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 2
        assert "collection file is required" in capsys.readouterr().err

    def test_stats_metrics_is_never_live(self, capsys):
        from repro.cli import main

        assert main(["stats", "--metrics", "--port", "7421"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro client metrics" in captured.err

    @staticmethod
    def _serve_one_insert_and_query(tmp_path, serve_net, metrics_file):
        """``serve-net --create t --index tif --metrics-file M``, one client
        insert, one client query, then SIGTERM; the child's stdout."""
        from repro.cli import main

        daemon = serve_net(
            tmp_path / "root", "--create", "t", "--index", "tif",
            "--no-fsync", "--metrics-file", str(metrics_file),
        )
        port = str(daemon.port)
        assert main(
            ["client", "--port", port, "insert", "--tenant", "t",
             "--object-id", "1", "--start", "100", "--end", "200",
             "--elements", "a,b"]
        ) == 0
        assert main(
            ["client", "--port", port, "query", "--tenant", "t",
             "--start", "120", "--end", "260", "--elements", "a"]
        ) == 0
        assert daemon.stop() == 0
        return daemon.stdout

    def test_serve_exports_metrics_file(self, tmp_path, serve_net):
        metrics_file = tmp_path / "metrics.prom"
        out = self._serve_one_insert_and_query(tmp_path, serve_net, metrics_file)
        assert "# drained:" in out
        parsed = parse_prometheus_text(metrics_file.read_text(encoding="utf-8"))
        assert parsed.value("repro_wal_appends_total") == 1.0
        assert parsed.value("repro_queries_total", index="tIF") == 1.0

    def test_stats_renders_a_served_export(self, tmp_path, serve_net, capsys):
        from repro.cli import main

        metrics_file = tmp_path / "metrics.prom"
        self._serve_one_insert_and_query(tmp_path, serve_net, metrics_file)
        capsys.readouterr()
        assert main(["stats", "--metrics-file", str(metrics_file)]) == 0
        parsed = parse_prometheus_text(capsys.readouterr().out)
        assert parsed.value("repro_wal_appends_total") == 1.0

    def test_recover_prints_recovery_counters(self, tmp_path, capsys):
        from repro.cli import main

        with DurableIndexStore.open(tmp_path / "store", index_key="tif") as store:
            store.insert(make_object(1, 0, 10, {"a"}))
        capsys.readouterr()
        assert main(["recover", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "recovery counters:" in out
        assert "repro_recovery_runs_total 1" in out
        assert "repro_recovery_records_replayed_total 1" in out
        assert "repro_recovery_degraded_total 0" in out


class TestBenchRunner:
    def test_measure_methods_emits_counter_deltas(self, random_collection):
        from repro.bench.runner import measure_methods
        from tests.conftest import random_queries

        queries = random_queries(random_collection, 5, seed=3)
        with isolated_registry():
            rows = measure_methods(
                ["tif"], random_collection, {"w": queries}, validate=False
            )
        row = rows["tif"]
        obs_keys = [key for key in row if key.startswith("_obs_")]
        assert any("repro_queries_total" in key for key in obs_keys)
        queries_key = next(k for k in obs_keys if "repro_queries_total" in k)
        # 5 queries, short workload → two timed passes over the batch.
        assert row[queries_key] == 10.0

    def test_measure_methods_plain_without_registry(self, random_collection):
        from repro.bench.runner import measure_methods
        from tests.conftest import random_queries

        queries = random_queries(random_collection, 3, seed=3)
        rows = measure_methods(
            ["tif"], random_collection, {"w": queries}, validate=False
        )
        assert not any(key.startswith("_obs_") for key in rows["tif"])
