"""A store over a sealed catalog: load, replay, delete a sealed row, recover.

Recovery restores a snapshot's catalog as sealed columns and replays the
WAL tail into its head.  Deleting an object the snapshot holds is the one
write that makes a sealed row into an object; the next checkpoint seals
head and survivors together, and a recovery from it answers as the oracle.
A ``MemoryError`` while reading sound bytes is not damage: it propagates,
and recovery marks, deletes and writes nothing.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object
from repro.indexes.registry import build_index
from repro.service import layout
from repro.service.recovery import recover
from repro.service.store import DurableIndexStore
from repro.service.wal import read_wal
from repro.storage import format as segment_format
from repro.storage.reader import SegmentReader
from repro.storage.writer import write_segment

from tests.service.conftest import apply_ops, make_ops, oracle_index, probe_queries, query_results


def _answers(index):
    return [index.query(q).tolist() for q in probe_queries()]


@pytest.mark.parametrize("index_key", ["irhint-perf", "tif", "irhint-size", "brute"])
def test_delete_of_a_sealed_object_survives_checkpoint_and_recovery(tmp_path, index_key):
    ops = make_ops(120)
    snapshot_part, tail = ops[:80], ops[80:]
    with DurableIndexStore.open(tmp_path, index_key=index_key, wal_fsync=False) as store:
        apply_ops(store, snapshot_part)
        store.checkpoint()
        apply_ops(store, tail)
    sealed = oracle_index(snapshot_part).object_ids().tolist()
    oracle = oracle_index(ops)

    with DurableIndexStore.open(tmp_path, wal_fsync=False) as store:
        # The snapshot's survivors of the tail's deletes stay sealed rows;
        # the tail's inserts are head objects.
        live = set(oracle.object_ids().tolist())
        catalog = store.index._catalog
        assert catalog._rows.keys() == set(sealed) & live
        assert catalog._head.keys() == live - set(sealed)
        assert store.last_recovery.records_replayed == len(tail)
        victims = sorted(catalog._rows)[:3]
        assert victims
        for victim in victims:
            store.delete(victim)
            oracle.delete(victim)
        assert _answers(store.index) == _answers(oracle)
        store.checkpoint()

    report = recover(tmp_path)
    assert not report.degraded and report.records_replayed == 0
    assert report.index.object_ids().tolist() == oracle.object_ids().tolist()
    assert query_results(report.index) == query_results(oracle)
    assert report.index.objects() == oracle.objects()


def _sound_store(tmp_path):
    with DurableIndexStore.open(tmp_path, index_key="tif", wal_fsync=False) as store:
        apply_ops(store, make_ops(60)[:40])
        store.checkpoint()
        apply_ops(store, make_ops(60)[40:])
    return {path: path.read_bytes() for path in tmp_path.iterdir()}


def _no_memory(*_args, **_kwargs):
    raise MemoryError


def test_memory_error_while_loading_a_snapshot_is_not_damage(tmp_path, monkeypatch):
    before = _sound_store(tmp_path)
    monkeypatch.setattr(pickle, "loads", _no_memory)
    with pytest.raises(MemoryError):
        recover(tmp_path)
    with pytest.raises(MemoryError):
        DurableIndexStore.open(tmp_path, wal_fsync=False)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_memory_error_while_reading_the_wal_is_not_a_torn_tail(tmp_path, monkeypatch):
    before = _sound_store(tmp_path)
    segment = layout.list_wal_segments(tmp_path)[-1][1]
    assert read_wal(segment).records
    monkeypatch.setattr(pickle, "loads", _no_memory)
    with pytest.raises(MemoryError):
        read_wal(segment)
    # A store with no snapshot replays its whole log: still no degradation.
    for _seq, path in layout.list_snapshots(tmp_path):
        path.unlink()
    del before[next(p for p in before if p.suffix == ".idx")]
    with pytest.raises(MemoryError):
        DurableIndexStore.open(tmp_path, wal_fsync=False)
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_memory_error_while_decoding_segment_descriptions_propagates(tmp_path, monkeypatch):
    # Promotion rebuilds descriptions by decoding each term key: a
    # MemoryError there is not a key that does not decode.
    path = write_segment(
        tmp_path / "s.seg", [make_object(1, 0, 5, {"a"})], shard_id="s", index_key="tif",
        index_params={},
    )
    with SegmentReader(path) as reader:
        assert reader.objects() == [make_object(1, 0, 5, {"a"})]
        monkeypatch.setattr(segment_format, "_decode", _no_memory)
        with pytest.raises(MemoryError):
            reader.objects()


def test_a_bulk_built_store_seals_on_its_first_checkpoint(tmp_path):
    objects = [make_object(i, 5 * i, 5 * i + 9, {"a", f"b{i % 4}"}) for i in range(64)]
    with DurableIndexStore.open(tmp_path, index_key="irhint-perf", wal_fsync=False) as store:
        store.bootstrap(Collection(objects), index_key="irhint-perf")
    report = recover(tmp_path)
    assert len(report.index._catalog._rows) == 64 and not report.index._catalog._head
    assert query_results(report.index) == query_results(build_index("brute", Collection(objects)))
