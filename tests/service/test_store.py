"""DurableIndexStore façade: serving, checkpointing, restart behavior."""

import pytest

from repro.core.errors import (
    DuplicateObjectError,
    ReproError,
    StoreClosedError,
    UnknownObjectError,
)
from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.indexes.registry import INDEX_CLASSES
from repro.service import layout
from repro.service.store import DurableIndexStore

from tests.service.conftest import apply_ops, oracle_index, query_results


def test_insert_delete_query(tmp_path, ops):
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        apply_ops(store, ops)
        assert query_results(store) == query_results(oracle_index(ops))


def test_mutations_survive_clean_restart_without_checkpoint(tmp_path, ops):
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        apply_ops(store, ops)
    with DurableIndexStore.open(tmp_path) as reopened:
        assert not reopened.degraded
        assert query_results(reopened) == query_results(oracle_index(ops))


def test_checkpoint_then_more_mutations_then_restart(tmp_path, ops):
    mid = len(ops) // 2
    with DurableIndexStore.open(tmp_path, index_key="irhint-perf") as store:
        apply_ops(store, ops[:mid])
        store.checkpoint()
        apply_ops(store, ops[mid:])
    with DurableIndexStore.open(tmp_path) as reopened:
        report = reopened.last_recovery
        assert report.snapshot_seq == 1
        assert query_results(reopened) == query_results(oracle_index(ops))


def test_manifest_pins_index_key_across_restarts(tmp_path):
    with DurableIndexStore.open(tmp_path, index_key="tif-slicing") as store:
        store.insert(make_object(1, 0, 10, {"a"}))
    # The reopen ignores a different requested key: the manifest wins.
    with DurableIndexStore.open(tmp_path, index_key="brute") as reopened:
        assert type(reopened.index) is INDEX_CLASSES["tif-slicing"]


def test_duplicate_insert_and_missing_delete_do_not_reach_the_wal(tmp_path):
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        store.insert(make_object(1, 0, 10, {"a"}))
        with pytest.raises(DuplicateObjectError):
            store.insert(make_object(1, 5, 6, {"b"}))
        with pytest.raises(UnknownObjectError):
            store.delete(99)
    from repro.service.wal import read_wal

    records = read_wal(layout.wal_path(tmp_path, 0)).records
    assert len(records) == 1  # only the successful insert was logged


def test_closed_store_refuses_everything(tmp_path):
    store = DurableIndexStore.open(tmp_path, index_key="brute")
    store.close()
    assert store.closed
    with pytest.raises(StoreClosedError):
        store.insert(make_object(1, 0, 1))
    with pytest.raises(StoreClosedError):
        store.query(make_query(0, 1))
    with pytest.raises(StoreClosedError):
        store.checkpoint()
    store.close()  # idempotent


def test_auto_checkpoint_every_n_mutations(tmp_path, ops):
    with DurableIndexStore.open(
        tmp_path, index_key="brute", checkpoint_every=25
    ) as store:
        apply_ops(store, ops)
        assert len(layout.list_snapshots(tmp_path)) == len(ops) // 25
    with DurableIndexStore.open(tmp_path) as reopened:
        assert query_results(reopened) == query_results(oracle_index(ops))


def test_bootstrap_builds_and_checkpoints(tmp_path):
    collection = Collection(
        make_object(i, i, i + 5, {"a"} if i % 2 else {"a", "b"}) for i in range(40)
    )
    with DurableIndexStore.open(tmp_path, index_key="irhint-perf") as store:
        store.bootstrap(collection, "irhint-perf")
        assert len(store.index) == 40
        with pytest.raises(ReproError, match="empty store"):
            store.bootstrap(collection, "irhint-perf")
    with DurableIndexStore.open(tmp_path) as reopened:
        assert len(reopened.index) == 40
        assert reopened.query(make_query(0, 100, {"b"})).tolist() == [
            i for i in range(40) if i % 2 == 0
        ]


def test_retention_bounds_disk_generations(tmp_path, ops):
    with DurableIndexStore.open(tmp_path, index_key="brute", retain=2) as store:
        for i, op in enumerate(ops):
            apply_ops(store, [op])
            if (i + 1) % 20 == 0:
                store.checkpoint()
        snapshots = [seq for seq, _p in layout.list_snapshots(tmp_path)]
        assert len(snapshots) == 2
        segments = [seq for seq, _p in layout.list_wal_segments(tmp_path)]
        assert min(segments) >= min(snapshots)
    with DurableIndexStore.open(tmp_path) as reopened:
        assert query_results(reopened) == query_results(oracle_index(ops))


def test_stats_exposes_durability_counters(tmp_path):
    with DurableIndexStore.open(tmp_path, index_key="brute") as store:
        store.insert(make_object(1, 0, 10, {"a"}))
        stats = store.stats()
        assert stats["mutations_since_checkpoint"] == 1
        assert stats["active_wal_seq"] == 0
        assert stats["degraded"] is False
