"""Periodic checksummed snapshots with atomic installation and retention.

A snapshot is the v2 blob of the hardened persistence layer
(:mod:`repro.indexes.persistence`): JSON header carrying a CRC32 of the
pickled payload.  Installation is crash-safe — the blob goes to a
``*.tmp`` sibling, is fsynced, and only then renamed over the final name
with ``os.replace`` — so the store directory always holds either the old
complete snapshot set or the new one, never a torn file under a final
name.  After a successful snapshot the WAL rotates to a fresh segment and
old generations beyond the retention window are pruned (a snapshot is only
useful for fallback while every WAL segment from its sequence onward still
exists, so snapshots and segments are pruned together).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.indexes.base import TemporalIRIndex
from repro.indexes.persistence import dumps_index
from repro.obs.instruments import snapshot_instruments
from repro.obs.registry import OBS
from repro.service import layout
from repro.service.fsio import REAL_FS, FileSystem
from repro.utils.timing import Stopwatch

PathLike = Union[str, Path]

#: Default number of snapshot generations kept for checksum-failure fallback.
DEFAULT_RETAIN = 3


class Snapshotter:
    """Writes and prunes the snapshot generations of one store directory."""

    def __init__(
        self,
        directory: PathLike,
        retain: int = DEFAULT_RETAIN,
        fs: FileSystem = REAL_FS,
    ) -> None:
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self._directory = Path(directory)
        self._retain = retain
        self._fs = fs

    @property
    def directory(self) -> Path:
        return self._directory

    def write(self, index: TemporalIRIndex, seq: int, last_lsn: int = 0) -> Path:
        """Atomically install ``snapshot-<seq>`` of ``index``.

        ``last_lsn`` is stamped into the header so recovery can skip WAL
        records the snapshot already captures (exactly-once replay).
        """
        registry = OBS.registry
        watch: Optional[Stopwatch] = None
        if registry.enabled:
            watch = Stopwatch()
            watch.start()
        final = layout.snapshot_path(self._directory, seq)
        blob = dumps_index(index, extra_header={"last_lsn": last_lsn})
        self._fs.atomic_write(final, blob)
        if watch is not None:
            instruments = snapshot_instruments(registry)
            instruments.write_seconds.observe(watch.stop())
            instruments.written.inc()
            instruments.bytes.set(len(blob))
        return final

    def prune(self, current_seq: int) -> List[Path]:
        """Drop generations beyond the retention window; returns removals.

        Keeps the ``retain`` newest snapshots (sequences above
        ``current_seq - retain``) and every WAL segment from the oldest
        retained snapshot onward — older segments can no longer contribute
        to any recovery path.  When *no* snapshot survives below the
        window (e.g. the store never checkpointed), nothing is pruned.
        """
        snapshots = layout.list_snapshots(self._directory)
        cutoff = current_seq - self._retain + 1
        removed: List[Path] = []
        kept_seqs = [seq for seq, _path in snapshots if seq >= cutoff]
        if not kept_seqs:
            return removed
        oldest_kept = min(kept_seqs)
        for seq, path in snapshots:
            if seq < cutoff:
                self._fs.remove(path)
                removed.append(path)
        for seq, path in layout.list_wal_segments(self._directory):
            if seq < oldest_kept:
                self._fs.remove(path)
                removed.append(path)
        if removed:
            self._fs.fsync_dir(self._directory)
        registry = OBS.registry
        if removed and registry.enabled:
            snapshot_instruments(registry).pruned.inc(len(removed))
        return removed

    def clean_orphans(self) -> List[Path]:
        """Remove ``*.tmp`` leftovers from a crash mid-snapshot-write."""
        removed = []
        for path in layout.orphan_temp_files(self._directory):
            self._fs.remove(path)
            removed.append(path)
        return removed
