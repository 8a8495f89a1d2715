"""Rebalancing: hot-shard detection, split/merge, crash-safe swaps."""

import pytest

from repro.cluster import RebalancePlan, TemporalCluster, next_table
from repro.cluster.layout import list_routing_generations
from repro.core.collection import Collection
from repro.core.errors import ClusterError
from repro.core.model import TemporalObject, make_query
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry
from repro.service.faults import FaultPlan, FaultyFileSystem, SimulatedCrash

from tests.conftest import random_objects, random_queries


def skewed_objects(n=240, seed=61):
    """Three-quarters of the objects crowd into one narrow time band."""
    import random

    rng = random.Random(seed)
    objects = []
    for i in range(n):
        if i % 4:
            st = rng.randint(5_000, 5_400)
        else:
            st = rng.randint(0, 20_000)
        end = st + rng.randint(1, 300)
        objects.append(TemporalObject(i, st, end, frozenset({f"e{i % 7}"})))
    return objects


@pytest.fixture()
def skewed_cluster(tmp_path):
    with TemporalCluster.create(
        tmp_path / "cluster",
        Collection(skewed_objects()),
        index_key="tif-slicing",
        n_shards=3,
        wal_fsync=False,
        cache_size=0,
    ) as c:
        yield c


class TestPlanning:
    def test_balanced_cluster_plans_nothing(self, tmp_path):
        with TemporalCluster.create(
            tmp_path / "flat",
            Collection(random_objects(200, seed=63)),
            index_key="tif-slicing",
            n_shards=3,
            wal_fsync=False,
        ) as cluster:
            assert cluster.plan_rebalance().is_noop

    def test_oversized_shard_plans_a_split(self, skewed_cluster):
        plan = skewed_cluster.plan_rebalance(split_factor=1.3)
        assert plan.kind == "split"
        assert len(plan.shard_ids) == 1
        spec = skewed_cluster.table.spec(plan.shard_ids[0])
        assert plan.boundary is not None
        assert (spec.lo is None or plan.boundary > spec.lo)
        assert (spec.hi is None or plan.boundary < spec.hi)

    def test_hot_shard_plans_a_split_from_query_share(self, skewed_cluster):
        with isolated_registry():
            spec = skewed_cluster.table.shards[0]
            q = make_query(spec.hi - 1, spec.hi - 1, set())
            for _ in range(200):
                skewed_cluster.query(q)
            plan = skewed_cluster.plan_rebalance(
                split_factor=1.5, min_split_objects=1
            )
            assert plan.kind == "split"

    def test_underloaded_neighbours_plan_a_merge(self, skewed_cluster):
        # Everything is small relative to an absurd split bar; the two
        # lightest adjacent shards merge when jointly under the bar.
        plan = skewed_cluster.plan_rebalance(
            split_factor=100.0, merge_factor=2.0
        )
        assert plan.kind == "merge"
        assert len(plan.shard_ids) == 2

    def test_min_split_objects_floors_splitting(self, skewed_cluster):
        plan = skewed_cluster.plan_rebalance(
            split_factor=0.1, min_split_objects=10**6, merge_factor=0.0
        )
        assert plan.is_noop


class TestNextTable:
    def test_split_inserts_two_fresh_shards(self, skewed_cluster):
        table = skewed_cluster.table
        plan = skewed_cluster.plan_rebalance(split_factor=1.3)
        successor = next_table(table, plan)
        assert successor.generation == table.generation + 1
        assert len(successor.shards) == len(table.shards) + 1
        fresh = [s for s in successor.shards if s.shard_id.startswith("g0002")]
        assert len(fresh) == 2
        assert fresh[0].hi == plan.boundary == fresh[1].lo

    def test_merge_collapses_the_pair(self, skewed_cluster):
        table = skewed_cluster.table
        plan = skewed_cluster.plan_rebalance(split_factor=100.0, merge_factor=2.0)
        successor = next_table(table, plan)
        assert len(successor.shards) == len(table.shards) - 1

    def test_noop_plan_is_rejected(self, skewed_cluster):
        with pytest.raises(ClusterError):
            next_table(skewed_cluster.table, RebalancePlan("none"))


class TestApply:
    def test_split_preserves_every_answer(self, skewed_cluster):
        collection = Collection(skewed_objects())
        oracle = build_index("brute", collection)
        queries = random_queries(collection, 40, seed=64)
        plan = skewed_cluster.rebalance(split_factor=1.3)
        assert plan.kind == "split"
        assert skewed_cluster.table.generation == 2
        for q in queries:
            assert skewed_cluster.query(q) == sorted(oracle.query(q))

    def test_merge_preserves_every_answer(self, skewed_cluster):
        collection = Collection(skewed_objects())
        oracle = build_index("brute", collection)
        plan = skewed_cluster.rebalance(split_factor=100.0, merge_factor=2.0)
        assert plan.kind == "merge"
        for q in random_queries(collection, 40, seed=65):
            assert skewed_cluster.query(q) == sorted(oracle.query(q))

    def test_rebalance_survives_reopen(self, tmp_path):
        directory = tmp_path / "cluster"
        collection = Collection(skewed_objects())
        with TemporalCluster.create(
            directory, collection, index_key="tif-slicing",
            n_shards=3, wal_fsync=False, cache_size=0,
        ) as cluster:
            cluster.rebalance(split_factor=1.3)
            generation = cluster.table.generation
        oracle = build_index("brute", collection)
        with TemporalCluster.open(directory, wal_fsync=False) as reopened:
            assert reopened.table.generation == generation == 2
            for q in random_queries(collection, 30, seed=66):
                assert reopened.query(q) == sorted(oracle.query(q))

    def test_replaced_shard_directories_are_removed(self, skewed_cluster):
        before = set(skewed_cluster.table.shard_ids())
        skewed_cluster.rebalance(split_factor=1.3)
        after = set(skewed_cluster.table.shard_ids())
        shards_root = skewed_cluster.directory / "shards"
        on_disk = {p.name for p in shards_root.iterdir()}
        assert on_disk == after
        assert before - after  # something was actually replaced

    def test_rebalances_metric_counted(self, skewed_cluster):
        with isolated_registry() as registry:
            skewed_cluster.rebalance(split_factor=1.3)
            assert registry.sample_value(
                "repro_cluster_rebalances_total", ("split",)
            ) == 1
            assert registry.sample_value("repro_cluster_routing_generation") == 2


class TestCrashConsistency:
    def test_crash_before_manifest_commit_recovers_old_generation(
        self, tmp_path
    ):
        directory = tmp_path / "cluster"
        collection = Collection(skewed_objects())
        with TemporalCluster.create(
            directory, collection, index_key="tif-slicing",
            n_shards=3, wal_fsync=False, cache_size=0,
        ):
            pass
        fs = FaultyFileSystem(FaultPlan(match="cluster.json", crash_on_replace=True))
        cluster = TemporalCluster.open(directory, wal_fsync=False, fs=fs)
        with pytest.raises(SimulatedCrash):
            cluster.rebalance(split_factor=1.3)
        # Recover: the manifest still names generation 1; the half-built
        # generation-2 leftovers are swept on open.
        oracle = build_index("brute", collection)
        with TemporalCluster.open(directory, wal_fsync=False) as recovered:
            assert recovered.table.generation == 1
            assert [g for g, _p in list_routing_generations(directory)] == [1]
            shards_root = directory / "shards"
            assert {p.name for p in shards_root.iterdir()} == set(
                recovered.table.shard_ids()
            )
            for q in random_queries(collection, 30, seed=67):
                assert recovered.query(q) == sorted(oracle.query(q))

    def test_crash_after_commit_recovers_new_generation(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "cluster"
        collection = Collection(skewed_objects())
        cluster = TemporalCluster.create(
            directory, collection, index_key="tif-slicing",
            n_shards=3, wal_fsync=False, cache_size=0,
        )
        # Crash between the manifest commit and old-shard cleanup.
        import repro.cluster.cluster as cluster_module

        class _CrashingShutil:
            @staticmethod
            def rmtree(path):
                raise SimulatedCrash(f"crash before removing {path}")

        monkeypatch.setattr(cluster_module, "shutil", _CrashingShutil)
        with pytest.raises(SimulatedCrash):
            cluster.rebalance(split_factor=1.3)
        monkeypatch.undo()
        oracle = build_index("brute", collection)
        with TemporalCluster.open(directory, wal_fsync=False) as recovered:
            assert recovered.table.generation == 2
            shards_root = directory / "shards"
            assert {p.name for p in shards_root.iterdir()} == set(
                recovered.table.shard_ids()
            )
            for q in random_queries(collection, 30, seed=68):
                assert recovered.query(q) == sorted(oracle.query(q))
