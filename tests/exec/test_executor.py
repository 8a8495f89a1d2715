"""Unit tests for the batch executor: dedup, sort, cache, reports."""

from __future__ import annotations

import pytest

from repro.core.collection import Collection
from repro.core.errors import ConfigurationError
from repro.exec import QueryExecutor, ResultCache
from repro.indexes.registry import build_index
from repro.obs.registry import isolated_registry
from tests.conftest import random_objects, random_queries


@pytest.fixture(scope="module")
def corpus():
    collection = Collection(random_objects(300, seed=21))
    index = build_index("irhint-perf", collection)
    queries = random_queries(collection, 40, seed=22)
    queries += queries[:10]  # guaranteed duplicates
    expected = [index.query(q).tolist() for q in queries]
    return collection, index, queries, expected


# -------------------------------------------------------------------- executor
def test_unknown_strategy_rejected(corpus):
    """``serial`` is the one strategy; a retired one is refused by name."""
    _collection, index, _queries, _expected = corpus
    QueryExecutor(index, strategy="serial")
    for retired in ("threaded", "process", "warp-drive"):
        with pytest.raises(ConfigurationError, match="only 'serial'"):
            QueryExecutor(index, strategy=retired)


@pytest.mark.parametrize("strategy", ["serial"])
def test_executor_matches_direct_path(corpus, strategy):
    _collection, index, queries, expected = corpus
    executor = QueryExecutor(index, strategy=strategy)
    assert [answer.tolist() for answer in executor.run(queries)] == expected


def test_empty_batch(corpus):
    _collection, index, _queries, _expected = corpus
    executor = QueryExecutor(index)
    assert executor.run([]) == []
    assert executor.last_report is not None
    assert executor.last_report.queries == 0


def test_result_lists_are_independent(corpus):
    _collection, index, queries, expected = corpus
    executor = QueryExecutor(index, cache_size=64)
    first = executor.run(queries)
    target = next(answer for answer in first if len(answer))
    with pytest.raises(ValueError, match="read-only"):
        target[0] = -1  # try to vandalise one returned answer
    for a, b in zip(first, expected):
        assert a.tolist() == b
    # Neither the cache nor a rerun sees any vandalism.
    second = executor.run(queries)
    assert [answer.tolist() for answer in second] == expected


def test_duplicates_resolved_once(corpus):
    _collection, index, queries, expected = corpus
    executor = QueryExecutor(index)
    results = executor.run(queries)
    assert [answer.tolist() for answer in results] == expected
    report = executor.last_report
    assert report is not None
    assert report.queries == len(queries)
    assert report.unique == len({(q.st, q.end, q.d) for q in queries})
    assert report.duplicates == report.queries - report.unique
    assert report.executed == report.unique  # no cache in play


def test_cache_hits_across_batches(corpus):
    _collection, index, queries, expected = corpus
    executor = QueryExecutor(index, cache_size=256)
    executor.run(queries)
    assert [answer.tolist() for answer in executor.run(queries)] == expected
    report = executor.last_report
    assert report is not None
    assert report.cache_hits == report.unique
    assert report.executed == 0


def test_invalid_cache_capacity_rejected(corpus):
    _collection, index, _queries, _expected = corpus
    with pytest.raises(ConfigurationError):
        QueryExecutor(index, cache_size=-1)
    with pytest.raises(ConfigurationError):
        ResultCache(0)


def test_executor_rejects_non_index_target():
    with pytest.raises(ConfigurationError):
        QueryExecutor(object())


def test_report_summary_and_throughput(corpus):
    _collection, index, queries, _expected = corpus
    executor = QueryExecutor(index, cache_size=16)
    executor.run(queries)
    report = executor.last_report
    assert report is not None
    assert report.queries_per_second > 0
    text = report.summary()
    assert "unique" in text and "q/s" in text
    assert "via" not in text
    assert executor.cache is not None and executor.cache.stats()["misses"] > 0


def test_run_one(corpus):
    _collection, index, queries, expected = corpus
    executor = QueryExecutor(index, cache_size=4)
    assert executor.run_one(queries[0]).tolist() == expected[0]
    assert executor.run_one(queries[0]).tolist() == expected[0]  # cached now
    assert executor.cache is not None and executor.cache.hits == 1


def test_executor_metrics(corpus):
    _collection, index, queries, _expected = corpus
    with isolated_registry() as registry:
        executor = QueryExecutor(index, cache_size=64)
        executor.run(queries)
        executor.run(queries)
        assert registry.sample_value("repro_exec_batches_total") == 2
        assert registry.sample_value("repro_exec_queries_total") == 2 * len(queries)
        assert registry.sample_value("repro_exec_deduped_queries_total") > 0
        assert registry.sample_value("repro_cache_hits_total") > 0
        assert registry.sample_value("repro_cache_misses_total") > 0
