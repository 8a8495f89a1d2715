"""Recovery ladder: snapshot fallback, idempotent replay, degradation."""

import pytest

from repro.core.errors import ConfigurationError, ReproError
from repro.indexes.brute import BruteForce
from repro.indexes.registry import available_indexes
from repro.service import layout
from repro.service.faults import flip_bit
from repro.service.recovery import _apply, _fresh_index, recover
from repro.service.store import DurableIndexStore
from repro.service.wal import WriteAheadLog, read_wal

from tests.service.conftest import apply_ops, oracle_index, query_results


def populate(tmp_path, ops, checkpoints=(), index_key="brute", retain=3):
    """Run the workload cleanly, checkpointing after the given op counts."""
    with DurableIndexStore.open(tmp_path, index_key=index_key, retain=retain) as store:
        for i, op in enumerate(ops):
            apply_ops(store, [op])
            if (i + 1) in checkpoints:
                store.checkpoint()
    return tmp_path


def test_recover_empty_directory_is_a_fresh_index(tmp_path):
    report = recover(tmp_path, index_key="brute")
    assert len(report.index) == 0
    assert not report.degraded
    assert report.snapshot_path is None


def test_recover_missing_directory_raises(tmp_path):
    with pytest.raises(ReproError, match="not a directory"):
        recover(tmp_path / "nope")


def test_fallback_to_older_snapshot_on_checksum_failure(tmp_path, ops):
    populate(tmp_path, ops, checkpoints=(30, 60))
    newest = layout.snapshot_path(tmp_path, 2)
    flip_bit(newest, -15)
    report = recover(tmp_path)
    assert report.snapshot_seq == 1
    assert report.corrupt_snapshots == [newest]
    assert not report.degraded
    # Replaying the longer log from snapshot 1 converges to the full state.
    assert query_results(report.index) == query_results(oracle_index(ops))


def test_idempotent_replay_skips_already_applied_records(tmp_path, ops):
    populate(tmp_path, ops, checkpoints=(40,))
    # Duplicate the active segment's records into a later segment — exactly
    # what a fallback across an extra generation replays.  Re-applying them
    # must be a no-op, not a crash or a double insert.
    last_seq, last_path = layout.list_wal_segments(tmp_path)[-1]
    records = read_wal(last_path).records
    with WriteAheadLog(layout.wal_path(tmp_path, last_seq + 1)) as wal:
        for op in records:
            wal.append(op)
    report = recover(tmp_path)
    assert report.records_skipped >= len([r for r in records if r[0] == "insert"])
    assert query_results(report.index) == query_results(oracle_index(ops))


def test_all_snapshots_corrupt_degrades_to_brute_force(tmp_path, ops):
    populate(tmp_path, ops, checkpoints=(40,), index_key="irhint-perf")
    for _seq, path in layout.list_snapshots(tmp_path):
        flip_bit(path, -25)
    report = recover(tmp_path)
    assert report.degraded
    assert isinstance(report.index, BruteForce)
    assert report.index_key == "brute"
    # The surviving log starts after the (pruned) first generation, so the
    # state is partial — but every query still answers.
    for result in query_results(report.index):
        assert isinstance(result, list)
    assert any("partial" in note for note in report.notes)
    # Everything the surviving log holds was recovered.
    replayed_oracle = BruteForce()
    segments = layout.list_wal_segments(tmp_path)
    for _seq, path in segments:
        from repro.service.recovery import _apply
        from repro.service.wal import read_wal

        for op in read_wal(path).records:
            try:
                _apply(replayed_oracle, op)
            except ReproError:
                pass
    assert query_results(report.index) == query_results(replayed_oracle)


def test_degraded_store_keeps_serving_and_can_recheckpoint(tmp_path, ops):
    populate(tmp_path, ops, checkpoints=(40,), index_key="irhint-perf")
    for _seq, path in layout.list_snapshots(tmp_path):
        flip_bit(path, -25)
    with DurableIndexStore.open(tmp_path) as store:
        assert store.degraded
        from repro.core.model import make_object, make_query

        store.insert(make_object(10_000, 0, 50, {"fresh"}))
        assert store.query(make_query(0, 50, {"fresh"})) == [10_000]
        store.checkpoint()
    # After the checkpoint the degraded state is durable again.
    report = recover(tmp_path)
    assert not report.degraded
    assert 10_000 in report.index


def test_unknown_manifest_key_degrades_not_crashes(tmp_path, ops):
    populate(tmp_path, ops[:10])
    manifest_path = tmp_path / layout.MANIFEST_NAME
    manifest_path.write_text('{"index_key": "no-such-index", "index_params": {}}')
    report = recover(tmp_path)
    assert report.degraded
    assert query_results(report.index) == query_results(oracle_index(ops[:10]))


def test_manifest_naming_a_retired_index_key_is_a_configuration_error(tmp_path, ops):
    """``set-trie`` was a registry key once: constructing it raises
    ConfigurationError naming the keys there are (not KeyError or
    AttributeError), and open serves the degraded store that error explains."""
    populate(tmp_path, ops[:10])
    manifest_path = tmp_path / layout.MANIFEST_NAME
    manifest_path.write_text('{"index_key": "set-trie", "index_params": {}}')
    with pytest.raises(ConfigurationError, match="unknown index 'set-trie'; available: "):
        _fresh_index("set-trie", {})
    with DurableIndexStore.open(tmp_path) as store:
        assert store.degraded
        notes = "\n".join(store.last_recovery.notes)
        assert "cannot construct index 'set-trie'" in notes
        assert ", ".join(available_indexes()) in notes
        assert query_results(store.index) == query_results(oracle_index(ops[:10]))


def test_unknown_wal_record_kind_degrades(tmp_path, ops):
    populate(tmp_path, ops[:10])
    seq, _path = layout.list_wal_segments(tmp_path)[-1]
    with WriteAheadLog(layout.wal_path(tmp_path, seq)) as wal:
        wal.append(("frobnicate", 999, 2))
    report = recover(tmp_path)
    assert report.degraded
    # Earlier, well-formed records were still rebuilt into the fallback.
    assert query_results(report.index) == query_results(oracle_index(ops[:10]))
