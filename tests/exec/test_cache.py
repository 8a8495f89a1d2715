"""Result-cache semantics: LRU behaviour and — above all — the version rule.

The contract under test: **a cache never serves a result computed before
the most recent mutation of the index it is asked about** (directly or
via a DurableIndexStore), including a mutation that lands while the
answer is being computed and mutations applied by WAL replay during crash
recovery.  Entries hit only at the data version they were computed at.
"""

from __future__ import annotations

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.exec import QueryExecutor, ResultCache
from repro.indexes.base import next_version
from repro.indexes.registry import build_index
from repro.service.faults import FaultPlan, FaultyFileSystem, SimulatedCrash
from repro.service.store import DurableIndexStore
from tests.conftest import random_objects
from tests.service.conftest import apply_ops, make_ops, oracle_index, probe_queries


# ------------------------------------------------------------------------- LRU
def test_lru_eviction_order():
    cache = ResultCache(2)
    q1, q2, q3 = make_query(0, 1), make_query(0, 2), make_query(0, 3)
    cache.put(q1, 1, [1])
    cache.put(q2, 1, [2])
    cache.get(q1, 1)  # q1 becomes most-recent; q2 is now LRU
    cache.put(q3, 1, [3])
    assert cache.get(q2, 1) is None  # evicted
    assert cache.get(q1, 1).tolist() == [1]
    assert cache.get(q3, 1).tolist() == [3]
    assert cache.evictions == 1
    assert len(cache) == 2


def test_capacity_bound_holds():
    cache = ResultCache(4)
    for i in range(50):
        cache.put(make_query(i, i + 1), 1, [i])
    assert len(cache) == 4
    assert cache.evictions == 46


def test_key_includes_elements():
    cache = ResultCache(8)
    cache.put(make_query(0, 10, {"a"}), 1, [1])
    assert cache.get(make_query(0, 10, {"b"}), 1) is None
    assert cache.get(make_query(0, 10), 1) is None
    assert cache.get(make_query(0, 10, {"a"}), 1).tolist() == [1]


def test_other_version_misses_and_drops_the_entry():
    cache = ResultCache(8)
    q = make_query(0, 10)
    cache.put(q, (1, 2), [1])
    assert cache.get(q, (1, 3)) is None
    assert len(cache) == 0  # the stale entry is gone, not just skipped
    assert cache.get(q, (1, 2)) is None
    cache.put(q, (1, 3), [2])
    assert cache.get(q, (1, 3)).tolist() == [2]


def test_cache_serves_read_only_answers():
    cache = ResultCache(2)
    original = [1, 2, 3]
    q = make_query(0, 5)
    cache.put(q, 1, original)
    original.append(99)  # caller mutates after put
    served = cache.get(q, 1)
    assert served.tolist() == [1, 2, 3]
    with pytest.raises(ValueError, match="read-only"):
        served[0] = -1  # a caller cannot write into a hit
    assert cache.get(q, 1).tolist() == [1, 2, 3]


def test_stats_snapshot():
    cache = ResultCache(3)
    q = make_query(1, 2)
    cache.get(q, 1)
    cache.put(q, 1, [])
    cache.get(q, 1)
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert stats["entries"] == 1 and stats["capacity"] == 3


# ------------------------------------------------------------- index versions
def test_every_mutation_and_every_copy_draws_a_new_version():
    import pickle

    index = build_index("brute", Collection(random_objects(20, seed=30)))
    seen = {index.version}
    index.insert(make_object(4_444, 0, 10, {"e0"}))
    seen.add(index.version)
    index.delete(4_444)
    seen.add(index.version)
    seen.add(pickle.loads(pickle.dumps(index)).version)
    seen.add(next_version())
    assert len(seen) == 5



def test_versions_stay_unique_under_threads():
    import sys
    import threading

    drawn = [[] for _ in range(8)]

    def draw(out):
        for _ in range(5_000):
            out.append(next_version())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(out,)) for out in drawn]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    versions = [v for out in drawn for v in out]
    assert len(versions) == 8 * 5_000 == len(set(versions))


@pytest.mark.parametrize("key", ["brute", "tif-slicing", "irhint-perf"])
def test_insert_and_delete_invalidate_attached_cache(key):
    collection = Collection(random_objects(120, seed=31))
    index = build_index(key, collection)
    executor = QueryExecutor(index, cache_size=32)
    q = make_query(0, 25_000)  # matches everything
    before = executor.run_one(q).tolist()
    assert executor.run_one(q).tolist() == before  # second hit is served from cache
    assert executor.cache is not None and executor.cache.hits == 1

    extra = make_object(9_999, 0, 25_000, {"e0"})
    index.insert(extra)
    after_insert = executor.run_one(q).tolist()
    assert 9_999 in after_insert  # stale answer was NOT served
    assert after_insert == index.query(q).tolist()

    index.delete(9_999)
    after_delete = executor.run_one(q).tolist()
    assert 9_999 not in after_delete
    assert after_delete == before


@pytest.mark.parametrize("key", ["brute", "irhint-perf"])
def test_write_during_read_leaves_no_stale_entry(key):
    index = build_index(key, Collection(random_objects(80, seed=38)))
    executor = QueryExecutor(index, cache_size=8)
    q = make_query(0, 25_000)
    read = index.query

    def read_then_write(query):
        result = read(query)
        del index.query  # one write, landing mid-read
        index.insert(make_object(9_998, 0, 25_000, {"e0"}))
        return result

    index.query = read_then_write
    assert 9_998 not in executor.run_one(q)  # the read began first
    assert 9_998 in executor.run_one(q)


def test_attach_invalidates_preexisting_entries():
    """A cache carried to another index never serves the first one's answers."""
    collection = Collection(random_objects(50, seed=32))
    index_a = build_index("brute", collection)
    index_b = build_index("brute", Collection(random_objects(50, seed=33)))
    executor = QueryExecutor(index_a, cache_size=8)
    q = make_query(0, 25_000)
    executor.run_one(q)
    carried = QueryExecutor(index_b)
    carried.cache = executor.cache
    assert carried.run_one(q).tolist() == index_b.query(q).tolist()
    assert carried.last_report is not None and carried.last_report.cache_hits == 0


def test_dropping_the_executor_releases_the_cache():
    import weakref

    collection = Collection(random_objects(30, seed=35))
    index = build_index("brute", collection)
    executor = QueryExecutor(index, cache_size=4)
    ref = weakref.ref(executor.cache)
    del executor
    assert ref() is None  # the index holds nothing of the cache


def test_index_pickles_without_cache_registrations():
    import pickle

    collection = Collection(random_objects(40, seed=36))
    index = build_index("irhint-perf", collection)
    executor = QueryExecutor(index, cache_size=4)
    q = make_query(0, 25_000)
    executor.run_one(q)
    clone = pickle.loads(pickle.dumps(index))
    assert clone.version != index.version
    # Mutating the clone leaves the original's cached answers serving ...
    clone.insert(make_object(5_555, 0, 10, {"e0"}))
    assert executor.run_one(q).tolist() == index.query(q).tolist()
    assert executor.cache is not None and executor.cache.hits == 1
    # ... the clone's answers never come from them ...
    on_clone = QueryExecutor(clone)
    on_clone.cache = executor.cache
    assert 5_555 in on_clone.run_one(q)
    # ... and the clone still answers correctly.
    assert 5_555 in clone.query(q)


# ------------------------------------------------------ DurableIndexStore path
def test_store_mutations_invalidate_executor_cache(tmp_path):
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        executor = QueryExecutor(store, strategy="serial", cache_size=16)
        q = make_query(0, 11_000)
        ops = make_ops(30)
        apply_ops(store, ops)
        first = executor.run_one(q).tolist()
        assert executor.run_one(q).tolist() == first
        store.insert(make_object(10_000, 0, 11_000, {"e0"}))
        got = executor.run_one(q).tolist()
        assert 10_000 in got  # the WAL-first store write moved the version
        store.delete(10_000)
        assert executor.run_one(q).tolist() == first


def test_bootstrap_swap_invalidates_store_attached_cache(tmp_path):
    collection = Collection(random_objects(60, seed=37))
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        executor = QueryExecutor(store, cache_size=16)
        q = make_query(0, 25_000)
        assert executor.run_one(q).tolist() == []  # empty store, cached
        store.bootstrap(collection, "brute")
        got = executor.run_one(q).tolist()
        assert got == store.index.query(q).tolist()
        assert len(got) == len(collection)  # not the stale empty answer


def test_wal_replay_recovery_then_fresh_executor_matches_oracle(tmp_path):
    ops = make_ops(60)
    with DurableIndexStore.open(tmp_path, index_key="irhint-perf") as store:
        apply_ops(store, ops)
    # Reopen: state is rebuilt via snapshot + WAL replay through
    # index.insert/delete — the same choke points that move the version.
    with DurableIndexStore.open(tmp_path) as recovered:
        executor = QueryExecutor(recovered, cache_size=16)
        oracle = oracle_index(ops)
        for q in probe_queries():
            assert executor.run_one(q).tolist() == oracle.query(q).tolist()
            assert executor.run_one(q).tolist() == oracle.query(q).tolist()  # cached pass


def test_crash_recovery_cache_never_serves_pre_crash_state(tmp_path):
    """Fault-injected crash mid-WAL-append, then a caching executor.

    The recovered store's executor must answer for the durable prefix of
    the ops — not for the pre-crash in-memory state a stale cache would
    remember.
    """
    ops = make_ops(80)
    crash_at = 41
    fs = FaultyFileSystem(FaultPlan(match="wal-", crash_after_writes=crash_at))
    store = DurableIndexStore.open(tmp_path, index_key="brute", fs=fs)
    executor = QueryExecutor(store, cache_size=16)
    applied = 0
    with pytest.raises(SimulatedCrash):
        for op in ops:
            apply_ops(store, [op])
            applied += 1
            # Keep the cache hot across the whole pre-crash run.
            executor.run(probe_queries())
    assert applied == crash_at - 1
    # "Reboot": recover from disk; only the durable prefix survived.
    with DurableIndexStore.open(tmp_path) as recovered:
        fresh = QueryExecutor(recovered, cache_size=16)
        oracle = oracle_index(ops[: crash_at - 1])
        for q in probe_queries():
            assert fresh.run_one(q).tolist() == oracle.query(q).tolist()
        # The pre-crash cache matches nothing in the recovered index.
        assert executor.cache is not None and len(executor.cache) > 0
        for q in probe_queries():
            assert executor.cache.get(q, recovered.index.version) is None
