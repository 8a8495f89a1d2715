"""Tests for the benchmark measurement primitives."""

import pytest

from repro.bench.runner import (
    build_timed,
    delete_batch_time,
    deletion_batch,
    insert_batch_time,
    measure_methods,
    query_throughput,
    split_for_insertion,
    validate_index,
)
from repro.core.answer import NO_IDS
from repro.core.model import make_query
from repro.queries.generator import QueryWorkload


class TestBuildTimed:
    def test_returns_usable_index(self, random_collection):
        result = build_timed("tif", random_collection)
        assert result.seconds > 0
        assert result.size_bytes > 0
        assert len(result.index) == len(random_collection)

    def test_params_forwarded(self, random_collection):
        result = build_timed("tif-slicing", random_collection, n_slices=9)
        assert result.index.stats()["n_slices"] == 9


class TestThroughput:
    def test_positive(self, random_collection):
        index = build_timed("tif", random_collection).index
        queries = QueryWorkload(random_collection, seed=0).mixed(20)
        assert query_throughput(index, queries) > 0

    def test_empty_workload(self, random_collection):
        index = build_timed("tif", random_collection).index
        assert query_throughput(index, []) == 0.0


class TestUpdates:
    def test_split_for_insertion(self, random_collection):
        base, holdout = split_for_insertion(random_collection, 0.10)
        assert len(base) + len(holdout) == len(random_collection)
        assert len(holdout) == 50
        # Holdout carries the largest ids (paper's append-friendly protocol).
        assert min(o.id for o in holdout) > max(base.ids())

    def test_insert_batch_time(self, random_collection):
        base, holdout = split_for_insertion(random_collection)
        index = build_timed("irhint-perf", base, num_bits=5).index
        seconds = insert_batch_time(index, holdout[:20])
        assert seconds > 0
        assert len(index) == len(base) + 20

    def test_deletion_batch_reproducible(self, random_collection):
        a = deletion_batch(random_collection, 0.05, seed=3)
        b = deletion_batch(random_collection, 0.05, seed=3)
        assert [o.id for o in a] == [o.id for o in b]
        assert len(a) == 25

    def test_delete_batch_time(self, random_collection):
        index = build_timed("tif-slicing", random_collection, n_slices=8).index
        batch = deletion_batch(random_collection, 0.04, seed=1)
        seconds = delete_batch_time(index, batch)
        assert seconds > 0
        assert len(index) == len(random_collection) - len(batch)


class TestValidation:
    def test_validate_index_passes(self, random_collection):
        index = build_timed("irhint-size", random_collection, num_bits=5).index
        queries = QueryWorkload(random_collection, seed=0).mixed(5)
        validate_index(index, random_collection, queries)

    def test_validate_index_catches_lies(self, random_collection):
        index = build_timed("tif", random_collection).index
        index.query = lambda q: NO_IDS  # sabotage
        with pytest.raises(AssertionError):
            validate_index(index, random_collection, [make_query(0, 10**6, {"e0"})])


class TestMeasureMethods:
    def test_shape_of_results(self, random_collection):
        queries = QueryWorkload(random_collection, seed=0).by_num_elements(2, 10)
        out = measure_methods(
            ["tif", "tif-slicing"],
            random_collection,
            {"default": queries},
            {"tif-slicing": {"n_slices": 8}},
        )
        assert set(out) == {"tif", "tif-slicing"}
        for row in out.values():
            assert row["default"] > 0
            assert row["_build_s"] > 0
            assert row["_size_mb"] > 0
