"""The heat-driven tier lifecycle: state IO, planning, demote/promote.

Answers must be bit-identical across tiers: a demoted shard serves the
same ids from mmap that its replicas served from RAM, and a promoted
shard resurrects exactly the objects the segment froze.
"""

import pytest

from repro.cluster import RebalancePlan, TemporalCluster
from repro.core.collection import Collection
from repro.core.errors import ClusterError, InvalidObjectError, ShardUnavailableError
from repro.core.model import make_object, make_query
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry
from repro.storage import tiering
from repro.storage.tiering import TierState, read_tier_state, write_tier_state

from tests.conftest import random_objects, random_queries


@pytest.fixture()
def collection():
    return Collection(random_objects(300, seed=41))


@pytest.fixture()
def cluster(collection, tmp_path):
    with TemporalCluster.create(
        tmp_path / "cluster", collection, index_key="tif",
        n_shards=4, n_replicas=2, wal_fsync=False,
    ) as built:
        yield built


def _some_hot_shard(cluster):
    """A shard safe to demote (not the open-ended newest one)."""
    return cluster.table.shard_ids()[0]


def _bounded_shard(cluster):
    """A shard spec with both time bounds (safe to aim writes at)."""
    return next(
        s for s in cluster.table.shards if s.lo is not None and s.hi is not None
    )


class TestTierStateIO:
    def test_round_trip(self, tmp_path):
        state = TierState(cold={"g0001-s00": "g0001-s00.seg"})
        write_tier_state(tmp_path, state)
        assert read_tier_state(tmp_path) == state

    def test_missing_file_means_all_hot(self, tmp_path):
        assert read_tier_state(tmp_path) == TierState()

    def test_corrupt_json(self, tmp_path):
        tiering.tiers_path(tmp_path).write_text("{not json", encoding="utf-8")
        with pytest.raises(ClusterError, match="corrupt"):
            read_tier_state(tmp_path)

    def test_malformed_shape(self, tmp_path):
        tiering.tiers_path(tmp_path).write_text(
            '{"version": 99, "cold": {}}', encoding="utf-8"
        )
        with pytest.raises(ClusterError, match="malformed"):
            read_tier_state(tmp_path)


class TestDemotePromoteCycle:
    def test_answers_identical_across_tiers(self, collection, cluster):
        oracle = build_index("brute", collection)
        queries = random_queries(collection, 50, seed=42)
        baseline = [sorted(oracle.query(q)) for q in queries]
        shard_id = _some_hot_shard(cluster)

        segment = cluster.demote(shard_id)
        assert segment.is_file()
        assert cluster.tier_state.is_cold(shard_id)
        assert len(cluster) == len(collection)
        assert [cluster.query(q).tolist() for q in queries] == baseline

        cluster.promote(shard_id)
        assert not segment.exists()
        assert cluster.tier_state.cold == {}
        assert [cluster.query(q).tolist() for q in queries] == baseline

    def test_mixed_tiers_survive_reopen(self, collection, cluster, tmp_path):
        queries = random_queries(collection, 30, seed=43)
        shard_id = _some_hot_shard(cluster)
        cluster.demote(shard_id)
        baseline = [cluster.query(q).tolist() for q in queries]
        directory = cluster.directory
        cluster.close()
        with TemporalCluster.open(directory, wal_fsync=False) as reopened:
            assert reopened.tier_state.is_cold(shard_id)
            assert len(reopened) == len(collection)
            assert [reopened.query(q).tolist() for q in queries] == baseline
            tiers = {s["shard_id"]: s["tier"] for s in reopened.tier_status()}
            assert tiers[shard_id] == "cold"
            assert sum(1 for t in tiers.values() if t == "hot") == 3

    def test_demote_cold_and_promote_hot_refuse(self, cluster):
        shard_id = _some_hot_shard(cluster)
        with pytest.raises(ClusterError, match="not a cold shard"):
            cluster.promote(shard_id)
        cluster.demote(shard_id)
        with pytest.raises(ClusterError, match="already cold"):
            cluster.demote(shard_id)

    def test_uncodable_id_refuses_typed_and_changes_nothing(self, collection, cluster):
        # An id past i64 fits neither an answer (an int64 array) nor a
        # segment's id column.  The refusal is the object's own typed
        # InvalidObjectError, before the cluster is touched: no shard can
        # ever hold an id that would keep it from going cold, and a tier
        # state already on disk — another shard's demotion — is not
        # touched.
        cluster.demote(_some_hot_shard(cluster))
        spec = _bounded_shard(cluster)  # another shard: this one has a lower bound
        directory = cluster.directory
        tiers = tiering.tiers_path(directory)
        before = tiers.read_bytes()
        probe = make_query(spec.lo, spec.lo, {"e0"})
        answer = cluster.query(probe).tolist()

        with pytest.raises(InvalidObjectError, match=r"id 9223372036854775808 is not an i64"):
            cluster.insert(make_object(1 << 63, spec.lo, spec.lo, {"e0"}))

        assert tiers.read_bytes() == before
        assert not list(directory.rglob("*.tmp"))
        assert cluster.query(probe).tolist() == answer
        largest = (1 << 63) - 1  # the largest id is one, and demotes
        cluster.insert(make_object(largest, spec.lo, spec.lo, {"e0"}))
        cluster.demote(spec.shard_id)
        assert cluster.tier_state.is_cold(spec.shard_id)
        assert cluster.query(probe).tolist() == sorted(answer + [largest])

    def test_unencodable_element_refuses_typed_and_changes_nothing(self, cluster):
        # A segment's term table holds typed keys for str, int, bytes and
        # tuples of those; any other element keeps its shard hot, refused
        # before anything is written, like an id past i64.
        spec = _bounded_shard(cluster)
        directory = cluster.directory
        odd = make_object(10**6, spec.lo, spec.lo, {("e0", 2.5)})
        cluster.insert(odd)
        probe = make_query(spec.lo, spec.lo, {("e0", 2.5)})
        assert cluster.query(probe).tolist() == [odd.id]

        with pytest.raises(ClusterError, match=r"element \('e0', 2.5\) is not a str, int, bytes"):
            cluster.demote(spec.shard_id)

        assert not cluster.tier_state.is_cold(spec.shard_id)
        assert not tiering.tiers_path(directory).exists()
        assert not (directory / "segments" / f"{spec.shard_id}.seg").exists()
        assert not list(directory.rglob("*.tmp"))
        assert cluster.query(probe).tolist() == [odd.id]
        cluster.delete(odd.id)  # still writable: it never left the hot tier
        cluster.demote(spec.shard_id)  # and demotable once the element is gone
        assert cluster.tier_state.is_cold(spec.shard_id)

    def test_stats_and_status_show_tiers(self, cluster):
        shard_id = _some_hot_shard(cluster)
        cluster.demote(shard_id)
        stats = cluster.stats()
        assert stats["tiers"] == {"hot": 3, "cold": 1}
        assert stats["segment_cache"]["open_segments"] >= 0
        assert any(
            "cold" in line and shard_id in line for line in cluster.status_lines()
        )

    def test_tiering_metrics(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=2, wal_fsync=False,
            ) as cluster:
                shard_id = cluster.table.shard_ids()[0]
                cluster.demote(shard_id)
                assert registry.sample_value("repro_storage_demotions_total") == 1
                assert registry.sample_value("repro_storage_cold_shards") == 1
                cluster.query(make_query(0, 10**6, {"e0"}))
                assert (
                    registry.sample_value("repro_storage_cold_queries_total") >= 1
                )
                cluster.promote(shard_id)
                assert registry.sample_value("repro_storage_promotions_total") == 1
                assert registry.sample_value("repro_storage_cold_shards") == 0


class TestWriteTriggeredPromotion:
    def test_insert_promotes_the_cold_shard(self, collection, cluster):
        spec = _bounded_shard(cluster)
        cluster.demote(spec.shard_id)
        # Land the insert squarely inside the cold shard's time range.
        obj = make_object(900001, spec.lo, spec.lo, {"e0"})
        cluster.insert(obj)
        assert not cluster.tier_state.is_cold(spec.shard_id)
        assert 900001 in cluster.query(make_query(spec.lo, spec.lo, {"e0"}))

    def test_delete_promotes_the_cold_shard(self, collection, cluster):
        shard_id = _some_hot_shard(cluster)
        segment = cluster.demote(shard_id)
        with cluster.segment_cache.lease(segment) as reader:
            victim = reader.object_ids()[0]
        cluster.delete(victim)
        assert not cluster.tier_state.is_cold(shard_id)
        assert len(cluster) == len(collection) - 1

    def test_cold_shard_direct_write_without_hook(self, tmp_path):
        from repro.core.errors import ReadOnlySegmentError
        from repro.storage.cache import SegmentCache
        from repro.storage.writer import write_segment

        path = write_segment(
            tmp_path / "s.seg",
            random_objects(20, seed=44),
            shard_id="s",
            index_key="tif",
            index_params={},
        )
        cache = SegmentCache()
        shard = tiering.ColdShard("s", path, cache)
        with pytest.raises(ReadOnlySegmentError):
            shard.insert(make_object(1000, 0, 1, {"a"}))
        with pytest.raises(ReadOnlySegmentError):
            shard.delete(3)
        with pytest.raises(ClusterError):
            shard.kill(0)
        with pytest.raises(ClusterError):
            shard.revive(0)
        assert shard.is_dead(0)
        assert shard.live_replicas() == []
        assert shard.stats()["tier"] == "cold"
        cache.close()

    def test_missing_segment_maps_to_shard_unavailable(self, cluster):
        spec = _bounded_shard(cluster)
        segment = cluster.demote(spec.shard_id)
        cluster.segment_cache.discard(segment)
        segment.unlink()
        with pytest.raises(ShardUnavailableError):
            cluster.query(make_query(spec.lo, spec.lo, {"e0"}))


class TestPlanning:
    def _heat(self, registry, shard_id, n):
        from repro.obs.instruments import cluster_instruments

        counter = cluster_instruments(registry).shard_queries
        for _ in range(n):
            counter.labels(shard_id).inc()

    def test_noop_below_min_queries(self, collection, tmp_path):
        with isolated_registry():
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=3, wal_fsync=False,
            ) as cluster:
                plan = cluster.plan_tiering(min_queries=20)
                assert plan.is_noop
                assert "counted queries" in plan.reason

    def test_cold_candidates_from_heat(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=4, wal_fsync=False,
            ) as cluster:
                ids = cluster.table.shard_ids()
                # ids[0] is stone cold, the rest carry all the heat.
                for shard_id in ids[1:]:
                    self._heat(registry, shard_id, 50)
                plan = cluster.plan_tiering(min_queries=20)
                assert plan.demote == [ids[0]]
                assert plan.promote == []

    def test_open_ended_shard_never_demotes(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=3, wal_fsync=False,
            ) as cluster:
                ids = cluster.table.shard_ids()
                newest = next(
                    s.shard_id for s in cluster.table.shards if s.hi is None
                )
                # Everything is cold-worthy by share except where heat goes.
                self._heat(registry, ids[0], 100)
                plan = cluster.plan_tiering(min_queries=20, keep_hot=1)
                assert newest not in plan.demote

    def test_hot_cold_shard_promotes(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=3, wal_fsync=False,
            ) as cluster:
                shard_id = cluster.table.shard_ids()[0]
                cluster.demote(shard_id)
                self._heat(registry, shard_id, 80)
                self._heat(registry, cluster.table.shard_ids()[1], 20)
                plan = cluster.plan_tiering(min_queries=20)
                assert shard_id in plan.promote

    def test_auto_tier_applies_the_plan(self, collection, tmp_path):
        with isolated_registry() as registry:
            with TemporalCluster.create(
                tmp_path / "c", collection, index_key="tif",
                n_shards=4, wal_fsync=False,
            ) as cluster:
                ids = cluster.table.shard_ids()
                for shard_id in ids[1:]:
                    self._heat(registry, shard_id, 50)
                plan = cluster.auto_tier(min_queries=20)
                assert plan.demote == [ids[0]]
                assert cluster.tier_state.is_cold(ids[0])
                # Heat returns: the next auto_tier pulls it back.
                self._heat(registry, ids[0], 200)
                plan = cluster.auto_tier(min_queries=20)
                assert ids[0] in plan.promote
                assert not cluster.tier_state.is_cold(ids[0])


class TestRebalancerInteraction:
    def test_cold_shards_excluded_from_rebalance(self, collection, cluster):
        shard_id = _some_hot_shard(cluster)
        cluster.demote(shard_id)
        # Aggressive thresholds make every hot shard a candidate; the cold
        # one must never appear in a split or a merge pair.
        for factors in (
            {"split_factor": 0.01, "min_split_objects": 1},
            {"merge_factor": 10.0},
        ):
            plan = cluster.plan_rebalance(**factors)
            assert shard_id not in plan.shard_ids

    def test_rebalance_still_works_with_cold_tier(self, collection, cluster):
        shard_id = _some_hot_shard(cluster)
        cluster.demote(shard_id)
        queries = random_queries(collection, 20, seed=45)
        baseline = [cluster.query(q).tolist() for q in queries]
        plan = cluster.plan_rebalance(split_factor=0.01, min_split_objects=1)
        if not plan.is_noop:
            cluster.rebalance(plan)
            assert [cluster.query(q).tolist() for q in queries] == baseline

    @pytest.mark.parametrize("kind", ["merge", "split"])
    def test_plan_naming_a_cold_shard_is_refused_before_any_write(
        self, tmp_path, kind
    ):
        """A hand-made plan may not split or merge a cold shard: the
        rebalance refuses it before anything is written, so the tier state,
        the segment and the answers stay as they were."""
        collection = Collection(random_objects(400, seed=47))
        directory = tmp_path / "cluster"
        with TemporalCluster.create(
            directory, collection, index_key="tif", n_shards=4, wal_fsync=False,
        ) as cluster:
            ids = cluster.table.shard_ids()
            cold = ids[1]
            segment = cluster.demote(cold)
            if kind == "merge":
                plan = RebalancePlan("merge", shard_ids=[cold, ids[2]])
            else:
                spec = cluster.table.spec(cold)
                plan = RebalancePlan(
                    "split", shard_ids=[cold], boundary=(spec.lo + spec.hi) // 2
                )
            queries = random_queries(collection, 30, seed=48)
            answers = [cluster.query(q).tolist() for q in queries]
            before = {
                path.relative_to(directory): path.read_bytes()
                for path in directory.rglob("*") if path.is_file()
            }
            with pytest.raises(ClusterError, match="promote first"):
                cluster.rebalance(plan)
            after = {
                path.relative_to(directory): path.read_bytes()
                for path in directory.rglob("*") if path.is_file()
            }
            assert after == before  # cluster.json, tiers.json, routing files, shards
            assert segment.is_file()
            assert cluster.table.generation == 1
            assert cluster.tier_state.cold == {cold: segment.name}
            assert cluster.stats()["tiers"] == {"hot": 3, "cold": 1}
            assert [cluster.query(q).tolist() for q in queries] == answers
