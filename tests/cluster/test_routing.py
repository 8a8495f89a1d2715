"""Routing tables and partitioners: placement, validation, round-trips."""

import json

import pytest

from repro.cluster import (
    RoutingTable,
    ShardSpec,
    TemporalCluster,
    TimeRangePartitioner,
)
from repro.cluster import layout
from repro.core.collection import Collection
from repro.core.errors import ClusterError
from repro.core.model import make_object, make_query

from tests.conftest import random_objects


def time_table(boundaries, n_replicas=1, generation=1):
    return TimeRangePartitioner(
        len(boundaries) + 1, n_replicas
    ).table_from_boundaries(boundaries, generation=generation)


class TestShardSpec:
    def test_overlap_half_open_start_range(self):
        spec = ShardSpec("s", lo=10, hi=20)
        assert spec.overlaps(10, 10)
        assert spec.overlaps(0, 10)        # lifespan reaches the range
        assert spec.overlaps(19, 100)
        assert not spec.overlaps(20, 30)   # hi is exclusive
        assert not spec.overlaps(0, 9)

    def test_unbounded_edges(self):
        assert ShardSpec("s", lo=None, hi=5).overlaps(-(10**9), 0)
        assert ShardSpec("s", lo=5, hi=None).overlaps(10**9, 10**9)

    def test_json_round_trip(self):
        for spec in (
            ShardSpec("g0001-s01", lo=None, hi=42),
            ShardSpec("g0001-s02", lo=42, hi=99.5),
        ):
            assert ShardSpec.from_json(spec.to_json()) == spec


class TestRoutingTable:
    def test_time_range_must_tile_the_line(self):
        good = time_table([10, 20])
        assert [s.lo for s in good.shards] == [None, 10, 20]
        with pytest.raises(ClusterError):
            RoutingTable(
                1,
                [ShardSpec("a", lo=None, hi=10), ShardSpec("b", lo=11, hi=None)],
                1,
            )
        with pytest.raises(ClusterError):
            RoutingTable(1, [ShardSpec("a", lo=0, hi=10)], 1)

    def test_rejects_duplicate_ids_and_bad_kind(self):
        spec = ShardSpec("a", lo=None, hi=None)
        with pytest.raises(ClusterError):
            RoutingTable(1, [spec, spec], 1)
        with pytest.raises(ClusterError):
            RoutingTable(0, [spec], 1)
        doc = json.loads(RoutingTable(1, [spec], 1).to_json())
        doc["kind"] = "mystery"
        with pytest.raises(ClusterError, match="time-range"):
            RoutingTable.from_json(json.dumps(doc))

    def test_interval_routing_visits_only_overlaps(self):
        table = time_table([10, 20])
        ids = [s.shard_id for s in table.shards_for_interval(12, 15)]
        assert len(ids) == 1
        assert [s.shard_id for s in table.shards_for_interval(5, 15)] == ids[:0] + [
            table.shards[0].shard_id, table.shards[1].shard_id
        ]
        everything = table.shards_for_interval(-100, 100)
        assert len(everything) == 3

    def test_object_routing_replicates_straddlers(self):
        table = time_table([10, 20])
        inside = table.shards_for_object(make_object(1, 12, 14, {"a"}))
        assert len(inside) == 1
        straddler = table.shards_for_object(make_object(2, 5, 25, {"a"}))
        assert len(straddler) == 3

    def test_query_routing(self):
        table = time_table([10, 20])
        q = make_query(0, 9, {"a"})
        assert [s.lo for s in table.shards_for_query(q)] == [None]

    def test_json_round_trip(self):
        table = time_table([10, 20], n_replicas=2, generation=4)
        back = RoutingTable.from_json(table.to_json())
        assert back == table
        assert back.generation == 4 and back.n_replicas == 2
        assert json.loads(table.to_json())["kind"] == "time-range"

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ClusterError):
            RoutingTable.from_json("{}")
        with pytest.raises(ClusterError):
            RoutingTable.from_json("not json")


def _set_boundary(doc, value):
    """Replace the one boundary between the two shards with ``value``."""
    doc["shards"][0]["hi"] = value
    doc["shards"][1]["lo"] = value


#: One damage per case, applied to a valid two-shard routing document.
DAMAGE = {
    "no-generation": lambda doc: doc.pop("generation"),
    "no-shards": lambda doc: doc.pop("shards"),
    "no-shard-id": lambda doc: doc["shards"][0].pop("shard_id"),
    "generation-not-a-number": lambda doc: doc.update(generation="x"),
    "generation-bool": lambda doc: doc.update(generation=True),
    "shards-not-a-list": lambda doc: doc.update(shards=5),
    "shard-not-an-object": lambda doc: doc.update(shards=[5]),
    "replicas-not-a-number": lambda doc: doc.update(n_replicas="x"),
    "string-bounds": lambda doc: _set_boundary(doc, "m"),
    "bool-bounds": lambda doc: _set_boundary(doc, True),
    "infinite-bounds": lambda doc: _set_boundary(doc, float("inf")),
    "kind-hash": lambda doc: doc.update(kind="hash"),
    "no-kind": lambda doc: doc.pop("kind"),
}


def _damaged(case, generation=1):
    doc = json.loads(time_table([10], generation=generation).to_json())
    DAMAGE[case](doc)
    return json.dumps(doc)


class TestDamagedRoutingFiles:
    """A damaged routing file is a typed :class:`ClusterError`, never a
    ``KeyError``/``TypeError`` at load or a ``TypeError`` on every query."""

    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_from_json_raises_cluster_error(self, case):
        with pytest.raises(ClusterError):
            RoutingTable.from_json(_damaged(case))

    @pytest.mark.parametrize("case", sorted(DAMAGE))
    def test_open_raises_cluster_error(self, case, tmp_path):
        directory = tmp_path / "cluster"
        TemporalCluster.create(
            directory,
            Collection(random_objects(40, seed=7)),
            index_key="tif",
            n_shards=2,
            wal_fsync=False,
        ).close()
        generation = int(layout.read_manifest(directory)["generation"])
        layout.routing_path(directory, generation).write_text(
            _damaged(case, generation)
        )
        with pytest.raises(ClusterError):
            TemporalCluster.open(directory, wal_fsync=False).close()


class TestPartitioners:
    def test_time_range_covers_every_object(self):
        objects = random_objects(400, seed=5)
        table = TimeRangePartitioner(4, 1).table(Collection(objects))
        assert len(table.shards) == 4
        for obj in objects:
            assert table.shards_for_object(obj)

    def test_time_range_roughly_balances(self):
        objects = random_objects(600, seed=6)
        table = TimeRangePartitioner(4, 1).table(Collection(objects))
        counts = [
            sum(1 for o in objects if spec.overlaps(o.st, o.end))
            for spec in table.shards
        ]
        assert min(counts) > 0
        # Replication of straddlers skews counts upward; the point is no
        # shard ends up empty or with the whole collection.
        assert max(counts) < len(objects)

    def test_empty_collection_still_tiles(self):
        table = TimeRangePartitioner(4, 1).table(Collection([]))
        assert table.shards[0].lo is None and table.shards[-1].hi is None

    def test_unknown_kind_rejected(self, tmp_path):
        """``time-range`` is the one placement; a refused ``create`` names
        it and leaves no directory behind."""
        collection = Collection(random_objects(20, seed=8))
        for kind in ("hash", "mystery"):
            directory = tmp_path / kind
            with pytest.raises(ClusterError, match="time-range"):
                TemporalCluster.create(directory, collection, partitioner=kind)
            assert not directory.exists()

    def test_bad_shapes_rejected(self, tmp_path):
        with pytest.raises(ClusterError):
            TimeRangePartitioner(0, 1)
        with pytest.raises(ClusterError):
            TimeRangePartitioner(2, 0).table(Collection([]))
        with pytest.raises(ClusterError):
            TemporalCluster.create(tmp_path / "c", Collection([]), n_shards=0)
        assert not (tmp_path / "c").exists()
