"""Replica sets and shard groups: failover, revival, shared caches."""

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.errors import ShardUnavailableError
from repro.core.model import make_object, make_query
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry

from tests.conftest import random_objects, random_queries


@pytest.fixture()
def collection():
    return Collection(random_objects(250, seed=41))


@pytest.fixture()
def cluster(collection, tmp_path):
    with TemporalCluster.create(
        tmp_path / "cluster",
        collection,
        index_key="tif-slicing",
        n_shards=3,
        n_replicas=2,
        wal_fsync=False,
        cache_size=0,
    ) as c:
        yield c


def oracle_answers(collection, queries):
    oracle = build_index("brute", collection)
    return [sorted(oracle.query(q)) for q in queries]


class TestFailover:
    def test_killed_replica_degrades_reads_without_errors(
        self, cluster, collection
    ):
        queries = random_queries(collection, 25, seed=42)
        expected = oracle_answers(collection, queries)
        for spec in cluster.table.shards:
            cluster.group.kill_replica(spec.shard_id, 0)
        for q, want in zip(queries, expected):
            assert cluster.query(q).tolist() == want

    def test_failover_is_counted(self, cluster, collection):
        with isolated_registry() as registry:
            shard_id = cluster.table.shards[0].shard_id
            cluster.group.kill_replica(shard_id, 0)
            lo = cluster.table.shards[0].hi
            q = make_query(lo - 1 if lo is not None else 0, lo or 10, set())
            cluster.query(q)
            assert (
                registry.sample_value("repro_cluster_replica_failovers_total") >= 1
            )

    def test_all_replicas_dead_raises_shard_unavailable(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        cluster.group.kill_replica(shard_id, 0)
        cluster.group.kill_replica(shard_id, 1)
        replica_set = cluster.group.replica_set(shard_id)
        with pytest.raises(ShardUnavailableError):
            replica_set.query(make_query(0, 10, set()))

    def test_writes_refused_with_no_live_replica(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        cluster.group.kill_replica(shard_id, 0)
        cluster.group.kill_replica(shard_id, 1)
        with pytest.raises(ShardUnavailableError):
            cluster.group.replica_set(shard_id).insert(
                make_object(99999, 0, 1, {"e0"})
            )

    def test_mutations_keep_flowing_to_survivors(self, cluster, collection):
        shard_id = cluster.table.shards[-1].shard_id
        cluster.group.kill_replica(shard_id, 1)
        domain = collection.domain()
        obj = make_object(99999, domain.end - 1, domain.end + 10, {"e0"})
        cluster.insert(obj)
        q = make_query(domain.end - 1, domain.end + 10, {"e0"})
        assert 99999 in cluster.query(q)


class TestRevive:
    def test_revive_rebuilds_from_peer_and_rejoins(self, cluster, collection):
        shard_id = cluster.table.shards[0].shard_id
        replica_set = cluster.group.replica_set(shard_id)
        cluster.group.kill_replica(shard_id, 0)
        # Mutate while the replica is down: it misses this insert.
        domain = collection.domain()
        obj = make_object(88888, domain.st, domain.st + 1, {"e1"})
        cluster.insert(obj)
        cluster.group.revive_replica(shard_id, 0)
        assert replica_set.live_replicas() == [0, 1]
        # The revived replica answers first now and must include the
        # mutation it was down for.
        q = make_query(domain.st, domain.st + 1, {"e1"})
        assert 88888 in replica_set.query(q)

    def test_revive_without_live_peer_is_refused(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        cluster.group.kill_replica(shard_id, 0)
        cluster.group.kill_replica(shard_id, 1)
        with pytest.raises(ShardUnavailableError):
            cluster.group.revive_replica(shard_id, 0)

    def test_revive_of_live_replica_is_a_no_op(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        before = cluster.group.replica_set(shard_id).stores[0]
        cluster.group.revive_replica(shard_id, 0)
        assert cluster.group.replica_set(shard_id).stores[0] is before


class TestSharedCache:
    def test_mutation_on_any_replica_invalidates_shard_cache(
        self, collection, tmp_path
    ):
        with TemporalCluster.create(
            tmp_path / "cached",
            collection,
            index_key="tif-slicing",
            n_shards=2,
            n_replicas=2,
            wal_fsync=False,
            cache_size=64,
        ) as cluster:
            domain = collection.domain()
            q = make_query(domain.st, domain.end, {"e0"})
            first = cluster.query(q).tolist()
            assert cluster.query(q).tolist() == first  # served from cache
            obj = make_object(77777, domain.st, domain.end, {"e0"})
            cluster.insert(obj)
            assert 77777 in cluster.query(q)
            # A write through either replica's own store moves the shard's
            # version: the next read is a miss, not the cached answer.
            shard_id = cluster.table.shards_for_query(q)[0].shard_id
            replica_set = cluster.group.replica_set(shard_id)
            q_shard = make_query(domain.st, domain.st, {"e0"})
            for replica, object_id in ((0, 77778), (1, 77779)):
                replica_set.query(q_shard)
                misses = replica_set.cache.stats()["misses"]
                replica_set.stores[replica].insert(
                    make_object(object_id, domain.st, domain.st, {"e0"})
                )
                replica_set.query(q_shard)
                assert replica_set.cache.stats()["misses"] == misses + 1

    def test_revived_replica_moves_the_version(self, collection, tmp_path):
        with TemporalCluster.create(
            tmp_path / "cached",
            collection,
            index_key="tif-slicing",
            n_shards=1,
            n_replicas=2,
            wal_fsync=False,
            cache_size=64,
        ) as cluster:
            shard_id = cluster.table.shards[0].shard_id
            replica_set = cluster.group.replica_set(shard_id)
            domain = collection.domain()
            q = make_query(domain.st, domain.end, {"e0"})
            first = cluster.query(q).tolist()
            cluster.group.kill_replica(shard_id, 0)
            assert cluster.query(q).tolist() == first  # killing moves no data
            hits = replica_set.cache.stats()["hits"]
            before = replica_set.version
            cluster.group.revive_replica(shard_id, 0)
            assert replica_set.version != before
            assert cluster.query(q).tolist() == first
            assert replica_set.cache.stats()["hits"] == hits

    def test_unaffected_shard_keeps_its_cache(self, collection, tmp_path):
        with TemporalCluster.create(
            tmp_path / "cached",
            collection,
            index_key="tif-slicing",
            n_shards=2,
            n_replicas=1,
            wal_fsync=False,
            cache_size=64,
        ) as cluster:
            first, last = cluster.table.shards[0], cluster.table.shards[-1]
            q_first = make_query(first.hi - 2, first.hi - 1, set())
            q_last = make_query(last.lo + 1, last.lo + 2, set())
            cluster.query(q_first)
            cluster.query(q_last)
            hits_before = cluster.group.replica_set(first.shard_id).cache.stats()[
                "hits"
            ]
            # Mutate only the last shard; the first shard's cache survives.
            obj = make_object(66666, last.lo + 1, last.lo + 2, {"e0"})
            cluster.insert(obj)
            cluster.query(q_first)
            stats = cluster.group.replica_set(first.shard_id).cache.stats()
            assert stats["hits"] == hits_before + 1

    @pytest.mark.parametrize("n_replicas", [1, 2])
    def test_write_during_read_leaves_no_stale_entry(
        self, collection, tmp_path, n_replicas
    ):
        with TemporalCluster.create(
            tmp_path / "raced",
            collection,
            index_key="tif-slicing",
            n_shards=1,
            n_replicas=n_replicas,
            wal_fsync=False,
            cache_size=64,
        ) as cluster:
            domain = collection.domain()
            q = make_query(domain.st, domain.end, {"e0"})
            obj = make_object(99999, domain.st, domain.end, {"e0"})
            shard_id = cluster.table.shards[0].shard_id
            store = cluster.group.replica_set(shard_id).stores[0]
            read = store.query

            def read_then_write(query):
                result = read(query)
                del store.query  # one write, landing mid-read
                cluster.insert(obj)
                return result

            store.query = read_then_write
            assert 99999 not in cluster.query(q)  # the read began first
            assert 99999 in cluster.query(q)


class TestStructuredFailureDetail:
    """ShardUnavailableError aggregates per-replica failure detail."""

    def test_all_replicas_dead_error_carries_structure(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        cluster.group.kill_replica(shard_id, 0)
        cluster.group.kill_replica(shard_id, 1)
        with pytest.raises(ShardUnavailableError) as caught:
            cluster.group.replica_set(shard_id).query(make_query(0, 10, set()))
        exc = caught.value
        assert exc.shard_id == shard_id
        assert exc.replica_count == 2
        assert set(exc.failures) == {0, 1}
        detail = exc.detail()
        assert detail["shard_id"] == shard_id
        assert detail["replica_count"] == 2
        assert set(detail["failures"]) == {"0", "1"}

    def test_raising_replica_records_its_exception_verbatim(self, cluster):
        from repro.core.errors import StoreClosedError

        shard_id = cluster.table.shards[0].shard_id
        replica_set = cluster.group.replica_set(shard_id)
        cluster.group.kill_replica(shard_id, 1)

        def exploding_query(q):
            raise StoreClosedError("torn page while reading")

        replica_set.stores[0].query = exploding_query
        with pytest.raises(ShardUnavailableError) as caught:
            replica_set.query(make_query(0, 10, set()))
        assert "torn page while reading" in caught.value.failures[0]
        # The message keeps the joined human-readable form.
        assert "replica-0" in str(caught.value)

    def test_write_refusal_carries_shard_identity(self, cluster):
        shard_id = cluster.table.shards[0].shard_id
        cluster.group.kill_replica(shard_id, 0)
        cluster.group.kill_replica(shard_id, 1)
        with pytest.raises(ShardUnavailableError) as caught:
            cluster.group.replica_set(shard_id).insert(
                make_object(424242, 0, 1, {"e0"})
            )
        assert caught.value.shard_id == shard_id
        assert caught.value.replica_count == 2


class TestReviveUnderConcurrentWrites:
    def test_revive_during_concurrent_writes_loses_nothing(self, cluster):
        """A mutation lands either before the peer copy or after rejoin —
        the revived replica must never silently miss one."""
        import threading

        spec = cluster.table.shards[0]
        shard_id = spec.shard_id
        replica_set = cluster.group.replica_set(shard_id)
        cluster.group.kill_replica(shard_id, 0)
        hi = spec.hi if spec.hi is not None else 100
        inserted = []
        errors = []

        def writer():
            try:
                for i in range(40):
                    obj = make_object(500_000 + i, hi - 2, hi - 1, {"e0"})
                    cluster.insert(obj)
                    inserted.append(obj.id)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        cluster.group.revive_replica(shard_id, 0)
        thread.join(30)
        assert not thread.is_alive() and not errors
        # Force reads onto the revived replica alone.
        cluster.group.kill_replica(shard_id, 1)
        got = replica_set.query(make_query(hi - 2, hi - 1, {"e0"})).tolist()
        missing = [oid for oid in inserted if oid not in got]
        assert not missing, f"revived replica lost writes: {missing}"

    def test_revive_retries_peer_copy_with_injected_rng(self, cluster):
        """The rebuild path goes through repro.utils.retry: a flaky peer
        is retried on the policy's schedule."""
        import random as _random

        from repro.cluster import layout
        from repro.utils.retry import RetryPolicy

        spec = cluster.table.shards[0]
        shard_id = spec.shard_id
        replica_set = cluster.group.replica_set(shard_id)
        cluster.group.kill_replica(shard_id, 0)
        # Every copy attempt finds the only peer dead -> bounded retries,
        # then the structured error (not an infinite loop).
        cluster.group.kill_replica(shard_id, 1)
        with pytest.raises(ShardUnavailableError) as caught:
            replica_set.revive(
                0,
                layout.replica_dir(cluster.group.directory, shard_id, 0),
                index_key="tif-slicing",
                index_params={},
                wal_fsync=False,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay=0.0, jitter=0.0
                ),
                rng=_random.Random(7),
            )
        assert caught.value.shard_id == shard_id
