"""Per-index tests for the IR-first family: tIF, Slicing, Sharding."""

import pytest

from repro.core.errors import UnknownObjectError
from repro.core.model import make_object, make_query
from repro.indexes.tif import TIF
from repro.indexes.tif_sharding import TIFSharding, _build_ideal_shards, _merge_shards
from repro.indexes.tif_slicing import TIFSlicing


class TestTIF:
    def test_running_example(self, running_example, example_query):
        index = TIF.build(running_example)
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_single_element(self, running_example):
        index = TIF.build(running_example)
        assert index.query(make_query(0, 7, {"b"})).tolist() == [1, 3, 4, 5]

    def test_unknown_element(self, running_example):
        index = TIF.build(running_example)
        assert index.query(make_query(0, 7, {"nope"})).tolist() == []

    def test_updates(self, running_example, example_query):
        index = TIF.build(running_example)
        index.delete(4)
        assert index.query(example_query).tolist() == [2, 7]
        index.insert(make_object(20, 3, 3, {"a", "c"}))
        assert index.query(example_query).tolist() == [2, 7, 20]

    def test_stats(self, running_example):
        index = TIF.build(running_example)
        assert index.stats()["postings_entries"] == 15


class TestTIFSlicing:
    def test_running_example(self, running_example, example_query):
        for n_slices in (1, 2, 4, 8, 50):
            index = TIFSlicing.build(running_example, n_slices=n_slices)
            assert index.query(example_query).tolist() == [2, 4, 7], n_slices

    def test_replication_grows_with_slices(self, running_example):
        few = TIFSlicing.build(running_example, n_slices=2)
        many = TIFSlicing.build(running_example, n_slices=8)
        assert many.n_replicated_entries() >= few.n_replicated_entries()
        assert many.size_bytes() >= few.size_bytes()

    def test_no_duplicate_results(self, running_example):
        # o4 spans the whole domain; with 8 slices it is replicated 8 times
        # per element but must be reported once.
        index = TIFSlicing.build(running_example, n_slices=8)
        result = index.query(make_query(0, 7, {"a"})).tolist()
        assert result == sorted(set(result)) == [1, 2, 4, 7]

    def test_updates(self, running_example, example_query):
        index = TIFSlicing.build(running_example, n_slices=4)
        index.delete(2)
        assert index.query(example_query).tolist() == [4, 7]
        index.insert(make_object(21, 2, 4, {"a", "c"}))
        assert index.query(example_query).tolist() == [4, 7, 21]

    def test_delete_unknown(self, running_example):
        index = TIFSlicing.build(running_example, n_slices=4)
        with pytest.raises(UnknownObjectError):
            index.delete(make_object(99, 0, 1, {"a"}))

    def test_insert_beyond_domain_clamps(self, running_example, example_query):
        index = TIFSlicing.build(running_example, n_slices=4)
        index.insert(make_object(50, 100, 120, {"a", "c"}))
        assert index.query(make_query(90, 130, {"a", "c"})).tolist() == [50]
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_empty_index_query(self):
        from repro.core.collection import Collection

        index = TIFSlicing.build(Collection())
        assert index.query(make_query(0, 1, {"a"})).tolist() == []


class TestShardConstruction:
    def test_staircase_property_of_ideal_shards(self):
        entries = sorted(
            [(1, 0, 10), (2, 1, 5), (3, 2, 12), (4, 3, 4), (5, 6, 20)],
            key=lambda e: (e[1], e[0]),
        )
        shards = _build_ideal_shards(entries)
        for shard in shards:
            assert shard.sts == sorted(shard.sts)
            assert shard.ends == sorted(shard.ends)  # the staircase

    def test_minimal_chain_count(self):
        # Ends strictly decreasing as starts increase → every entry is its
        # own chain.
        entries = [(i, i, 100 - i) for i in range(5)]
        assert len(_build_ideal_shards(entries)) == 5
        # Perfect staircase → a single chain.
        entries = [(i, i, 100 + i) for i in range(5)]
        assert len(_build_ideal_shards(entries)) == 1

    def test_merge_reduces_count_preserving_entries(self):
        entries = [(i, i, 200 - 2 * i) for i in range(20)]
        shards = _build_ideal_shards(entries)
        merged = _merge_shards(shards, max_shards=4)
        assert len(merged) <= 4
        total = sum(len(s) for s in merged)
        assert total == 20
        for shard in merged:
            assert shard.sts == sorted(shard.sts)  # start order survives


class TestTIFSharding:
    def test_running_example(self, running_example, example_query):
        index = TIFSharding.build(running_example)
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_no_replication(self, running_example):
        index = TIFSharding.build(running_example)
        total_entries = sum(
            len(shard)
            for shards in index._shards.values()
            for shard in shards
        )
        assert total_entries == 15  # exactly Σ|o.d|

    def test_impact_list_scan_start_skips_prefix(self):
        from repro.indexes.tif_sharding import _Shard, IMPACT_STRIDE

        shard = _Shard()
        for i in range(IMPACT_STRIDE * 4):
            shard.append(i, i, i + 10)
        start = shard.scan_start(q_st=IMPACT_STRIDE * 2 + 50)
        assert start > 0  # some prefix is provably skippable
        # Everything before `start` must end before the query.
        assert all(end < IMPACT_STRIDE * 2 + 50 for end in shard.ends[:start])

    def test_updates(self, running_example, example_query):
        index = TIFSharding.build(running_example)
        index.delete(7)
        assert index.query(example_query).tolist() == [2, 4]
        index.insert(make_object(22, 2, 3, {"a", "c"}))
        assert index.query(example_query).tolist() == [2, 4, 22]

    def test_delete_unknown(self, running_example):
        index = TIFSharding.build(running_example)
        with pytest.raises(UnknownObjectError):
            index.delete(make_object(99, 0, 1, {"a"}))

    def test_max_shards_respected_at_build(self, random_collection):
        index = TIFSharding.build(random_collection, max_shards=3)
        for shards in index._shards.values():
            assert len(shards) <= 3

    def test_stats(self, running_example):
        index = TIFSharding.build(running_example)
        assert index.stats()["total_shards"] >= 3

