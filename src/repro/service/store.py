"""The durable index store façade: WAL-first mutations, periodic snapshots.

Write path (classic WAL-first ordering):

1. validate against the live catalog (duplicate insert / missing delete
   fail *before* anything is logged);
2. append the mutation to the active WAL segment (fsync'd — once
   ``insert``/``delete`` returns, the mutation survives a crash);
3. apply it to the in-memory index.

``checkpoint()`` installs an atomic checksummed snapshot of the live
index, rotates the WAL to a fresh segment, and prunes generations beyond
the retention window.  ``DurableIndexStore.open`` runs full crash
recovery (:mod:`repro.service.recovery`), truncates any torn WAL tail,
and resumes appending where the durable state ends.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.collection import Collection
from repro.core.errors import (
    DuplicateObjectError,
    ReproError,
    StoreClosedError,
    UnknownObjectError,
)
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.registry import build_index
from repro.obs.instruments import store_instruments
from repro.obs.registry import OBS
from repro.service import layout
from repro.service.fsio import REAL_FS, FileSystem
from repro.service.recovery import DEFAULT_INDEX_KEY, RecoveryReport, recover
from repro.service.snapshotter import DEFAULT_RETAIN, Snapshotter
from repro.service.wal import WriteAheadLog, delete_op, insert_op
from repro.utils.timing import Stopwatch

PathLike = Union[str, Path]


class DurableIndexStore:
    """A crash-safe live serving wrapper around any registry index.

    Use :meth:`open` — it recovers existing state or initialises a fresh
    store — rather than constructing directly.
    """

    def __init__(
        self,
        directory: PathLike,
        index: TemporalIRIndex,
        active_seq: int,
        *,
        recovery: Optional[RecoveryReport] = None,
        retain: int = DEFAULT_RETAIN,
        wal_fsync: bool = True,
        checkpoint_every: Optional[int] = None,
        fs: FileSystem = REAL_FS,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ReproError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self._directory = Path(directory)
        self._index = index
        self._seq = active_seq
        self._lsn = recovery.last_lsn if recovery is not None else 0
        self._recovery = recovery
        self._fs = fs
        self._wal_fsync = wal_fsync
        self._checkpoint_every = checkpoint_every
        self._mutations_since_checkpoint = 0
        self._snapshotter = Snapshotter(directory, retain=retain, fs=fs)
        self._wal: Optional[WriteAheadLog] = WriteAheadLog(
            layout.wal_path(directory, active_seq), fs=fs, fsync=wal_fsync
        )

    # --------------------------------------------------------------- lifecycle
    @classmethod
    def open(
        cls,
        directory: PathLike,
        *,
        index_key: str = DEFAULT_INDEX_KEY,
        index_params: Optional[Dict[str, object]] = None,
        retain: int = DEFAULT_RETAIN,
        wal_fsync: bool = True,
        checkpoint_every: Optional[int] = None,
        fs: FileSystem = REAL_FS,
    ) -> "DurableIndexStore":
        """Recover (or initialise) the store living in ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if layout.read_manifest(directory) is None:
            layout.write_manifest(directory, index_key, index_params, fs=fs)
        report = recover(directory, fs=fs, index_key=index_key, index_params=index_params)
        # A torn tail would corrupt the segment mid-file once we append
        # after it; cut the file back to its valid record prefix first.
        active_path = layout.wal_path(directory, report.active_seq)
        if active_path.exists() and active_path.stat().st_size > report.active_valid_bytes:
            fs.truncate(active_path, report.active_valid_bytes)
        store = cls(
            directory,
            report.index,
            report.active_seq,
            recovery=report,
            retain=retain,
            wal_fsync=wal_fsync,
            checkpoint_every=checkpoint_every,
            fs=fs,
        )
        store._snapshotter.clean_orphans()
        return store

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def index(self) -> TemporalIRIndex:
        """The live in-memory index (read-only use; mutate via the store)."""
        return self._index

    @property
    def last_recovery(self) -> Optional[RecoveryReport]:
        """The recovery report from :meth:`open`, if any."""
        return self._recovery

    @property
    def degraded(self) -> bool:
        """True when serving the BruteForce fallback after data loss."""
        return bool(self._recovery and self._recovery.degraded)

    def close(self) -> None:
        """Flush and close the WAL; the store refuses further operations."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @property
    def closed(self) -> bool:
        return self._wal is None

    def __enter__(self) -> "DurableIndexStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_open(self) -> WriteAheadLog:
        if self._wal is None:
            raise StoreClosedError(f"{self._directory}: store is closed")
        return self._wal

    # ----------------------------------------------------------------- serving
    def insert(self, obj: TemporalObject) -> None:
        """Durably insert one object (WAL append, then in-memory apply)."""
        wal = self._require_open()
        if obj.id in self._index:
            raise DuplicateObjectError(f"object id {obj.id} already indexed")
        self._lsn += 1
        wal.append(insert_op(obj, self._lsn))
        self._index.insert(obj)
        self._after_mutation("insert")

    def delete(self, obj: Union[TemporalObject, int]) -> None:
        """Durably tombstone one object (by object or id)."""
        wal = self._require_open()
        object_id = obj if isinstance(obj, int) else obj.id
        if object_id not in self._index:
            raise UnknownObjectError(object_id)
        self._lsn += 1
        wal.append(delete_op(object_id, self._lsn))
        self._index.delete(object_id)
        self._after_mutation("delete")

    def query(self, q: TimeTravelQuery) -> List[int]:
        """Answer a time-travel IR query from the live index."""
        self._require_open()
        return self._index.query(q)

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """The live index's bound on the postings ``q`` reads (see
        :meth:`TemporalIRIndex.work_bound`); ``None`` when unknown."""
        return self._index.work_bound(q)

    def _after_mutation(self, kind: str) -> None:
        self._mutations_since_checkpoint += 1
        registry = OBS.registry
        if registry.enabled:
            instruments = store_instruments(registry)
            instruments.mutations.labels(kind).inc()
            instruments.mutations_since_checkpoint.set(
                self._mutations_since_checkpoint
            )
        if (
            self._checkpoint_every is not None
            and self._mutations_since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()

    # ------------------------------------------------------------- checkpoints
    def checkpoint(self) -> Path:
        """Snapshot the live index, rotate the WAL, prune old generations."""
        wal = self._require_open()
        registry = OBS.registry
        watch: Optional[Stopwatch] = None
        if registry.enabled:
            watch = Stopwatch()
            watch.start()
        new_seq = self._seq + 1
        path = self._snapshotter.write(self._index, new_seq, last_lsn=self._lsn)
        wal.close()
        self._wal = WriteAheadLog(
            layout.wal_path(self._directory, new_seq), fs=self._fs, fsync=self._wal_fsync
        )
        self._seq = new_seq
        self._mutations_since_checkpoint = 0
        self._snapshotter.prune(new_seq)
        if watch is not None:
            instruments = store_instruments(registry)
            instruments.checkpoints.inc()
            instruments.checkpoint_seconds.observe(watch.stop())
            instruments.mutations_since_checkpoint.set(0)
        return path

    def bootstrap(self, collection: Collection, index_key: str = DEFAULT_INDEX_KEY,
                  **params: object) -> None:
        """Bulk-load an empty store from a collection, then checkpoint.

        Building via the index's bulk path (and snapshotting the result)
        is far cheaper than WAL-logging every object one by one; it is
        only sound while the store holds no data, hence the guard.
        """
        self._require_open()
        if len(self._index) or layout.list_snapshots(self._directory):
            raise ReproError("bootstrap requires an empty store")
        layout.write_manifest(self._directory, index_key, dict(params), fs=self._fs)
        self._index = build_index(index_key, collection, **params)
        self.checkpoint()

    # -------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, object]:
        """Live diagnostics: index stats plus durability counters."""
        out = dict(self._index.stats())
        out["store_directory"] = str(self._directory)
        out["active_wal_seq"] = self._seq
        out["last_lsn"] = self._lsn
        out["mutations_since_checkpoint"] = self._mutations_since_checkpoint
        out["snapshots_on_disk"] = len(layout.list_snapshots(self._directory))
        out["degraded"] = self.degraded
        return out
