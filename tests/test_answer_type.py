"""The one answer type, end to end (:mod:`repro.core.answer`).

Every layer hands a query's answer on as a sorted, read-only int64
``np.ndarray`` that owns its ids: the registry indexes, the durable
store, the executor and its cache, the cluster's merge, and the daemon's
wire.  An answer never aliases postings storage, so holding one neither
blocks a writer nor sees its writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import TemporalCluster
from repro.core.answer import NO_IDS, as_answer
from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.exec import QueryExecutor
from repro.indexes.registry import available_indexes, build_index
from repro.server import DaemonClient, ServerConfig, start_daemon_thread
from repro.server.tenants import TenantRegistry
from repro.service.store import DurableIndexStore
from tests.conftest import random_objects

#: A selective query, a broad one, a pure-temporal one and one that
#: matches nothing.
QUERIES = [
    make_query(2_000, 9_000, {"e0", "e1"}),
    make_query(0, 25_000, {"e0"}),
    make_query(4_000, 4_500),
    make_query(0, 25_000, {"absent"}),
]


def assert_answer(ids, want=None) -> None:
    """``ids`` is an answer: an owned, read-only, strictly ascending int64
    array (equal to ``want`` when given)."""
    assert type(ids) is np.ndarray and ids.dtype == np.int64
    assert not ids.flags.writeable
    assert (ids[1:] > ids[:-1]).all()
    if want is not None:
        assert ids.tolist() == want


@pytest.fixture(scope="module")
def objects():
    return random_objects(300, seed=71)


@pytest.fixture(scope="module")
def expected(objects):
    collection = Collection(objects)
    return [collection.evaluate(q) for q in QUERIES]


class TestAsAnswer:
    def test_lists_and_foreign_dtypes_become_frozen_int64(self):
        for ids in ([1, 5, 9], np.array([1, 5, 9], dtype=np.int32)):
            assert_answer(as_answer(ids), [1, 5, 9])

    def test_empty_is_the_shared_empty_answer(self):
        assert as_answer([]) is NO_IDS
        assert as_answer(np.empty(0, dtype=np.int64)) is NO_IDS
        assert_answer(NO_IDS, [])

    def test_a_view_is_copied_and_its_base_left_writable(self):
        column = np.arange(10, dtype=np.int64)
        answer = as_answer(column[2:5])
        assert_answer(answer, [2, 3, 4])
        assert answer.base is None
        column[2] = 99  # the storage it came from stays the writer's
        assert answer.tolist() == [2, 3, 4]

    def test_idempotent(self):
        answer = as_answer([3, 4])
        assert as_answer(answer) is answer


class TestEveryLayer:
    """``type(...) is np.ndarray`` with ``dtype == int64`` from each layer."""

    @pytest.mark.parametrize("key", available_indexes())
    def test_index_query(self, key, objects, expected):
        index = build_index(key, Collection(objects))
        for q, want in zip(QUERIES, expected):
            assert_answer(index.query(q), want)

    def test_store_query(self, tmp_path, objects, expected):
        with DurableIndexStore.open(tmp_path / "s", index_key="irhint-perf", wal_fsync=False) as store:
            for obj in objects:
                store.insert(obj)
            for q, want in zip(QUERIES, expected):
                assert_answer(store.query(q), want)

    def test_executor_run_and_its_cache(self, objects, expected):
        executor = QueryExecutor(build_index("tif", Collection(objects)), cache_size=8)
        for _ in range(2):  # evaluated, then served from the cache
            answers = executor.run(QUERIES + QUERIES[:1])
            for answer, want in zip(answers, expected + expected[:1]):
                assert_answer(answer, want)
        assert executor.cache is not None and executor.cache.hits == len(QUERIES)

    def test_cluster_query_and_query_partial(self, tmp_path, objects, expected):
        with TemporalCluster.create(
            tmp_path / "c", Collection(objects), index_key="irhint-perf",
            n_shards=3, n_replicas=1, wal_fsync=False, cache_size=4,
        ) as cluster:
            for q, want in zip(QUERIES, expected):
                assert_answer(cluster.query(q), want)
                assert_answer(cluster.query_partial(q).ids, want)

    def test_daemon_client_query_and_batch(self, tmp_path, objects, expected):
        root = tmp_path / "tenants"
        root.mkdir()
        with DurableIndexStore.open(root / "docs", index_key="irhint-perf", wal_fsync=False) as store:
            for obj in objects:
                store.insert(obj)
        handle = start_daemon_thread(TenantRegistry.open_root(root, wal_fsync=False), ServerConfig())
        try:
            assert handle.port is not None
            with DaemonClient("127.0.0.1", handle.port, timeout=5.0) as client:
                for q, want in zip(QUERIES, expected):
                    result = client.query("docs", q.st, q.end, sorted(q.d))
                    assert_answer(result["ids"], want)
                    assert result["count"] == len(want)
                batch = client.batch(
                    "docs", [{"start": q.st, "end": q.end, "elements": sorted(q.d)} for q in QUERIES]
                )
                for result, want in zip(batch["results"], expected):
                    assert_answer(result["ids"], want)
        finally:
            handle.stop(timeout=30.0)


class TestNoAliasing:
    """A held answer pins no postings buffer and never changes."""

    @pytest.mark.parametrize("key", available_indexes())
    @pytest.mark.parametrize("tables", [False, True], ids=["flat", "tables"])
    def test_writes_to_the_lists_an_answer_came_from(self, key, tables, request):
        if tables:
            request.getfixturevalue("small_tables")
        # One element on every object: its list is long enough for the
        # numpy kernels (and, with small_tables, for a time-first table).
        objects = [make_object(i, i % 500, i % 500 + 40, {"hot", f"e{i % 3}"}) for i in range(400)]
        index = build_index(key, Collection(objects))
        queries = [make_query(100, 300, {"hot"}), make_query(100, 300, {"hot", "e1"}), make_query(100, 300)]
        held = [index.query(q) for q in queries]
        before = [answer.tolist() for answer in held]
        for i in range(400, 700):  # appends grow every list the answers came from
            index.insert(make_object(i, 200, 250, {"hot", "e1"}))
        for i in range(0, 400, 2):  # tombstones, then compaction, rewrite them
            index.delete(i)
        for answer, want in zip(held, before):
            assert_answer(answer, want)
        assert index.query(queries[0]).tolist() != before[0]

    def test_a_cached_answer_cannot_be_written(self, objects):
        executor = QueryExecutor(build_index("irhint-perf", Collection(objects)), cache_size=4)
        q = QUERIES[1]
        first = executor.run_one(q)
        hit = executor.run_one(q)
        assert executor.cache is not None and executor.cache.hits == 1
        with pytest.raises(ValueError, match="read-only"):
            hit[0] = -1
        with pytest.raises(ValueError, match="read-only"):
            hit.sort()
        assert executor.run_one(q).tolist() == first.tolist()
