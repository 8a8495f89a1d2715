"""Atomic snapshot installation, rotation bookkeeping, and retention."""

import pytest

from repro.core.errors import CorruptSnapshotError
from repro.indexes.brute import BruteForce
from repro.indexes.persistence import load_index, read_header
from repro.service import layout
from repro.service.faults import FaultPlan, FaultyFileSystem, SimulatedCrash, flip_bit
from repro.service.snapshotter import Snapshotter
from repro.service.wal import WriteAheadLog, delete_op


def small_index(n=10):
    from repro.core.model import make_object

    index = BruteForce()
    for i in range(n):
        index.insert(make_object(i, i, i + 3, {"x"}))
    return index


def test_write_installs_v2_snapshot(tmp_path):
    path = Snapshotter(tmp_path).write(small_index(), seq=1)
    assert path == layout.snapshot_path(tmp_path, 1)
    header = read_header(path)
    assert header["format"] == 6
    assert header["objects"] == 10
    assert "payload_crc32" in header
    assert len(load_index(path)) == 10
    assert layout.orphan_temp_files(tmp_path) == []


def test_flipped_bit_fails_checksum(tmp_path):
    path = Snapshotter(tmp_path).write(small_index(), seq=1)
    flip_bit(path, -20)
    with pytest.raises(CorruptSnapshotError, match="checksum"):
        load_index(path)


def test_crash_before_replace_leaves_old_generation_intact(tmp_path):
    snapshotter = Snapshotter(tmp_path)
    snapshotter.write(small_index(5), seq=1)
    crashing = Snapshotter(
        tmp_path, fs=FaultyFileSystem(FaultPlan(match="snapshot-", crash_on_replace=True))
    )
    with pytest.raises(SimulatedCrash):
        crashing.write(small_index(9), seq=2)
    # The new generation was never installed; the old one still loads.
    assert [seq for seq, _p in layout.list_snapshots(tmp_path)] == [1]
    assert len(load_index(layout.snapshot_path(tmp_path, 1))) == 5
    assert layout.orphan_temp_files(tmp_path) != []
    snapshotter.clean_orphans()
    assert layout.orphan_temp_files(tmp_path) == []


def test_crash_mid_temp_write_never_touches_final_name(tmp_path):
    snapshotter = Snapshotter(tmp_path)
    snapshotter.write(small_index(5), seq=1)
    crashing = Snapshotter(
        tmp_path,
        fs=FaultyFileSystem(
            FaultPlan(match="snapshot-", crash_after_writes=1, short_write=True)
        ),
    )
    with pytest.raises(SimulatedCrash):
        crashing.write(small_index(9), seq=2)
    assert [seq for seq, _p in layout.list_snapshots(tmp_path)] == [1]
    assert len(load_index(layout.snapshot_path(tmp_path, 1))) == 5


def _touch_wal(tmp_path, seq):
    with WriteAheadLog(layout.wal_path(tmp_path, seq)) as wal:
        wal.append(delete_op(seq, seq + 1))


def test_retention_prunes_old_generations_and_segments(tmp_path):
    snapshotter = Snapshotter(tmp_path, retain=2)
    for seq in range(1, 6):
        _touch_wal(tmp_path, seq - 1)
        snapshotter.write(small_index(seq), seq=seq)
        snapshotter.prune(seq)
    snapshots = [seq for seq, _p in layout.list_snapshots(tmp_path)]
    segments = [seq for seq, _p in layout.list_wal_segments(tmp_path)]
    assert snapshots == [4, 5]
    # Every segment from the oldest retained snapshot onward survives.
    assert segments == [4]


def test_prune_keeps_everything_when_no_snapshot_in_window(tmp_path):
    snapshotter = Snapshotter(tmp_path, retain=1)
    _touch_wal(tmp_path, 0)
    assert snapshotter.prune(0) == []
    assert [seq for seq, _p in layout.list_wal_segments(tmp_path)] == [0]


def test_retain_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        Snapshotter(tmp_path, retain=0)
