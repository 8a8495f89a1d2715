"""The TemporalCluster façade and the on-disk cluster layout."""

import gc
import warnings

import pytest

from repro.cluster import TemporalCluster
from repro.cluster import layout
from repro.core.collection import Collection
from repro.core.errors import ClusterError
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry

from tests.conftest import random_objects, random_queries


@pytest.fixture()
def collection():
    return Collection(random_objects(200, seed=71))


class TestLifecycle:
    def test_create_open_round_trip(self, collection, tmp_path):
        directory = tmp_path / "cluster"
        oracle = build_index("brute", collection)
        queries = random_queries(collection, 30, seed=72)
        with TemporalCluster.create(
            directory, collection, index_key="tif-slicing",
            n_shards=4, n_replicas=2, wal_fsync=False,
        ) as cluster:
            assert len(cluster) == len(collection)
            for q in queries:
                assert cluster.query(q).tolist() == sorted(oracle.query(q))
        with TemporalCluster.open(directory, wal_fsync=False) as reopened:
            assert reopened.table.generation == 1
            assert len(reopened) == len(collection)
            for q in queries:
                assert reopened.query(q).tolist() == sorted(oracle.query(q))

    def test_create_leaves_no_wal_open(self, collection, tmp_path):
        """Bugfix: ``create`` used to drop the replica sets it built with
        their WALs open and reopen the same directories, so every replica
        leaked a file handle."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            cluster = TemporalCluster.create(
                tmp_path / "cluster", collection, index_key="tif",
                n_shards=3, n_replicas=2, wal_fsync=False,
            )
            cluster.close()
            del cluster
            gc.collect()
        leaked = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert not [message for message in leaked if "wal-" in message], leaked

    def test_create_reads_nothing_back(self, collection, tmp_path, monkeypatch):
        """``create`` serves the stores it built: no snapshot it has just
        written is loaded again."""
        from repro.service import recovery

        loads = []
        load_index = recovery.load_index

        def counting_load(path):
            loads.append(path)
            return load_index(path)

        monkeypatch.setattr(recovery, "load_index", counting_load)
        oracle = build_index("brute", collection)
        with TemporalCluster.create(
            tmp_path / "cluster", collection, index_key="tif",
            n_shards=3, n_replicas=2, wal_fsync=False,
        ) as cluster:
            assert loads == []
            assert len(cluster.table.shards) == 3
            for q in random_queries(collection, 30, seed=73):
                assert cluster.query(q).tolist() == sorted(oracle.query(q))
        assert loads == []

    def test_create_refuses_existing_cluster(self, collection, tmp_path):
        directory = tmp_path / "cluster"
        TemporalCluster.create(
            directory, collection, n_shards=2, wal_fsync=False
        ).close()
        with pytest.raises(ClusterError):
            TemporalCluster.create(
                directory, collection, n_shards=2, wal_fsync=False
            )

    def test_open_refuses_non_cluster_dir(self, tmp_path):
        with pytest.raises(ClusterError):
            TemporalCluster.open(tmp_path)

    def test_mutations_survive_reopen(self, collection, tmp_path):
        from repro.core.model import make_object, make_query

        directory = tmp_path / "cluster"
        domain = collection.domain()
        with TemporalCluster.create(
            directory, collection, n_shards=2, wal_fsync=False
        ) as cluster:
            cluster.insert(make_object(90001, domain.st, domain.end, {"e0"}))
            cluster.delete(next(iter(collection.objects())).id)
        with TemporalCluster.open(directory, wal_fsync=False) as reopened:
            assert len(reopened) == len(collection)  # +1 insert, -1 delete
            q = make_query(domain.st, domain.end, {"e0"})
            assert 90001 in reopened.query(q)

    def test_gauges_track_the_serving_generation(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "cluster", collection, n_shards=3, wal_fsync=False
            ) as cluster:
                assert registry.sample_value("repro_cluster_routing_generation") == 1
                assert registry.sample_value("repro_cluster_shards") == len(
                    cluster.table.shards
                )

    def test_stats_and_status(self, collection, tmp_path):
        with TemporalCluster.create(
            tmp_path / "cluster", collection, n_shards=2, n_replicas=2,
            wal_fsync=False,
        ) as cluster:
            stats = cluster.stats()
            assert stats["generation"] == 1
            assert stats["objects"] == len(collection)
            assert stats["replicas_per_shard"] == 2
            assert len(stats["shard_stats"]) == len(cluster.table.shards)
            lines = cluster.status_lines()
            assert any("replicas live" in line for line in lines)


class TestLayout:
    def test_manifest_round_trip(self, tmp_path):
        layout.write_manifest(
            tmp_path, 3, index_key="tif", index_params={"k": 2}
        )
        manifest = layout.read_manifest(tmp_path)
        assert manifest["generation"] == 3
        assert manifest["index_key"] == "tif"
        assert manifest["index_params"] == {"k": 2}
        assert layout.is_cluster_dir(tmp_path)

    def test_read_manifest_rejects_garbage(self, tmp_path):
        with pytest.raises(ClusterError):
            layout.read_manifest(tmp_path)
        (tmp_path / layout.MANIFEST_NAME).write_text("not json")
        with pytest.raises(ClusterError):
            layout.read_manifest(tmp_path)
        (tmp_path / layout.MANIFEST_NAME).write_text("{\"version\": 99}")
        with pytest.raises(ClusterError):
            layout.read_manifest(tmp_path)

    def test_routing_table_round_trip(self, tmp_path):
        from repro.cluster import TimeRangePartitioner

        table = TimeRangePartitioner(3, 2).table_from_boundaries(
            [10, 20], generation=2
        )
        layout.write_routing_table(tmp_path, table)
        assert layout.read_routing_table(tmp_path, 2) == table
        with pytest.raises(ClusterError):
            layout.read_routing_table(tmp_path, 9)

    def test_routing_generation_mismatch_rejected(self, tmp_path):
        from repro.cluster import TimeRangePartitioner

        table = TimeRangePartitioner(2, 1).table_from_boundaries([5], generation=2)
        path = layout.routing_path(tmp_path, 7)
        path.write_text(table.to_json())
        with pytest.raises(ClusterError, match="claims generation"):
            layout.read_routing_table(tmp_path, 7)

    def test_prune_orphans(self, tmp_path):
        from repro.cluster import TimeRangePartitioner

        table = TimeRangePartitioner(2, 1).table_from_boundaries([5], generation=1)
        layout.write_routing_table(tmp_path, table)
        # Orphans: a newer uncommitted routing file, a stray shard dir,
        # and a temp file.
        newer = TimeRangePartitioner(2, 1).table_from_boundaries([9], generation=2)
        layout.write_routing_table(tmp_path, newer)
        stray = layout.shard_dir(tmp_path, "g0099-s00")
        stray.mkdir(parents=True)
        (tmp_path / "leftover.tmp").write_text("")
        for spec in table.shards:
            layout.shard_dir(tmp_path, spec.shard_id).mkdir(parents=True)
        removed = layout.prune_orphans(tmp_path, table)
        assert layout.routing_path(tmp_path, 2) in removed
        assert stray in removed
        assert not stray.exists()
        assert not (tmp_path / "leftover.tmp").exists()
        for spec in table.shards:
            assert layout.shard_dir(tmp_path, spec.shard_id).exists()
