"""Scatter-gather routing: planning, dedup, batches, mutation routing."""

import pytest

from repro.cluster import TemporalCluster, merge_shard_results
from repro.core.collection import Collection
from repro.core.errors import DuplicateObjectError, UnknownObjectError
from repro.core.model import make_object, make_query
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry

from tests.conftest import random_objects, random_queries


@pytest.fixture()
def collection():
    return Collection(random_objects(300, seed=51))


@pytest.fixture()
def cluster(collection, tmp_path):
    with TemporalCluster.create(
        tmp_path / "cluster",
        collection,
        index_key="tif-slicing",
        n_shards=4,
        n_replicas=1,
        wal_fsync=False,
        cache_size=0,
    ) as c:
        yield c


class TestMerge:
    def test_single_shard_passthrough(self):
        assert merge_shard_results([[3, 1, 2]]) == ([3, 1, 2], 0)

    def test_dedup_counts_straddlers(self):
        merged, dups = merge_shard_results([[1, 2], [2, 3], [3, 4]])
        assert merged == [1, 2, 3, 4]
        assert dups == 2

    def test_empty(self):
        assert merge_shard_results([[], []]) == ([], 0)


class TestQueries:
    def test_answers_match_oracle_and_have_no_duplicates(
        self, cluster, collection
    ):
        oracle = build_index("brute", collection)
        for q in random_queries(collection, 50, seed=52):
            got = cluster.query(q)
            assert got == sorted(oracle.query(q))
            assert len(got) == len(set(got))

    def test_narrow_query_visits_fewer_shards_than_broadcast(self, cluster):
        spec = cluster.table.shards[1]
        q = make_query(spec.lo, spec.lo + 1, set())
        planned = cluster.router.plan(q)
        assert len(planned) < len(cluster.table.shards)
        assert spec.shard_id in planned

    def test_boundary_straddler_returned_once(self, cluster, collection):
        boundary = cluster.table.shards[1].lo
        obj = make_object(70000, boundary - 5, boundary + 5, {"e0"})
        cluster.insert(obj)
        q = make_query(boundary - 5, boundary + 5, {"e0"})
        assert len(cluster.router.plan(q)) >= 2
        result = cluster.query(q)
        assert result.count(70000) == 1

    def test_shards_visited_metric_reflects_the_plan(self, cluster):
        from repro.obs.instruments import cluster_instruments

        with isolated_registry() as registry:
            spec = cluster.table.shards[0]
            cluster.query(make_query(spec.hi - 1, spec.hi - 1, set()))
            assert registry.sample_value("repro_cluster_queries_total") == 1
            visited = cluster_instruments(registry).shards_visited.sum
            assert visited == len(
                cluster.router.plan(make_query(spec.hi - 1, spec.hi - 1, set()))
            )


class TestBatches:
    def test_batch_matches_oracle(self, cluster, collection):
        oracle = build_index("brute", collection)
        queries = random_queries(collection, 30, seed=53)
        results = cluster.run_batch(queries)
        assert results == [sorted(oracle.query(q)) for q in queries]

    def test_batch_uses_per_shard_caches(self, collection, tmp_path):
        with TemporalCluster.create(
            tmp_path / "cached",
            collection,
            index_key="tif-slicing",
            n_shards=2,
            wal_fsync=False,
            cache_size=64,
        ) as cluster:
            queries = random_queries(collection, 10, seed=54)
            first = cluster.run_batch(queries)
            again = cluster.run_batch(queries)
            assert again == first
            hits = sum(
                cluster.group.replica_set(s).cache.stats()["hits"]
                for s in cluster.table.shard_ids()
            )
            assert hits > 0

    def test_batch_fails_over_when_primary_dies(self, collection, tmp_path):
        with TemporalCluster.create(
            tmp_path / "ha",
            collection,
            index_key="tif-slicing",
            n_shards=2,
            n_replicas=2,
            wal_fsync=False,
            cache_size=0,
        ) as cluster:
            oracle = build_index("brute", collection)
            queries = random_queries(collection, 12, seed=55)
            shard_id = cluster.table.shards[0].shard_id
            # Close the primary without marking it dead: the batch path
            # hits the closed store and fails over to the second replica.
            cluster.group.replica_set(shard_id).stores[0].close()
            results = cluster.run_batch(queries)
            assert results == [sorted(oracle.query(q)) for q in queries]


class TestMutations:
    def test_insert_routes_to_owning_shards_only(self, cluster):
        spec = cluster.table.shards[2]
        obj = make_object(80000, spec.lo + 1, spec.lo + 2, {"e0"})
        from repro.obs.instruments import cluster_instruments

        with isolated_registry() as registry:
            cluster.insert(obj)
            assert registry.sample_value(
                "repro_cluster_mutations_total", ("insert",)
            ) == 1
            assert cluster_instruments(registry).mutation_shards.sum == 1
        holders = [
            s
            for s in cluster.table.shard_ids()
            if 80000 in cluster.group.replica_set(s).primary_index()
        ]
        assert holders == [spec.shard_id]

    def test_straddling_insert_lands_in_every_overlapped_shard(self, cluster):
        boundary = cluster.table.shards[2].lo
        obj = make_object(80001, boundary - 1, boundary + 1, {"e0"})
        cluster.insert(obj)
        holders = [
            s
            for s in cluster.table.shard_ids()
            if 80001 in cluster.group.replica_set(s).primary_index()
        ]
        assert len(holders) >= 2

    def test_duplicate_insert_rejected(self, cluster, collection):
        existing = next(iter(collection.objects()))
        with pytest.raises(DuplicateObjectError):
            cluster.insert(existing)

    def test_delete_removes_from_every_holder(self, cluster):
        boundary = cluster.table.shards[1].lo
        obj = make_object(80002, boundary - 1, boundary + 1, {"e0"})
        cluster.insert(obj)
        cluster.delete(80002)
        q = make_query(boundary - 1, boundary + 1, {"e0"})
        assert 80002 not in cluster.query(q)

    def test_delete_unknown_id_rejected(self, cluster):
        with pytest.raises(UnknownObjectError):
            cluster.delete(123456789)

    def test_len_counts_distinct_objects(self, cluster, collection):
        assert len(cluster) == len(collection)
        boundary = cluster.table.shards[1].lo
        cluster.insert(make_object(80003, boundary - 1, boundary + 1, {"e0"}))
        assert len(cluster) == len(collection) + 1
