"""Restart logic: newest valid snapshot + idempotent WAL replay.

Recovery ladder, strongest state first:

1. load the newest snapshot whose checksum verifies; on
   :class:`~repro.core.errors.CorruptSnapshotError` fall back to the next
   older generation.  Only damage falls back: a snapshot of a format this
   build does not read raises
   :class:`~repro.core.errors.UnsupportedFormatError` out of
   :func:`recover`, which then writes nothing — skipping it would serve a
   partial store, and its next checkpoint would prune the real snapshots;
2. replay every WAL segment from the loaded snapshot's sequence onward,
   in order, *idempotently* — every record carries an LSN and the
   snapshot records the last LSN it captured, so records the snapshot
   already covers are skipped exactly (replaying them blindly could
   resurrect objects a covered delete removed); an insert whose id is
   already live or a delete of a missing id is likewise counted as
   already-applied;
3. if every snapshot on disk is damaged (or replay hits an index-specific
   failure), degrade gracefully: rebuild a
   :class:`~repro.indexes.brute.BruteForce` index from the entire
   replayable log so queries keep answering while operators restore a
   backup.

A torn tail on any segment (crash mid-append) is dropped by the WAL
scanner; the report records where the valid prefix ends so the store can
truncate before appending again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import CorruptSnapshotError, ReproError
from repro.core.model import TemporalObject
from repro.indexes.base import TemporalIRIndex
from repro.indexes.brute import BruteForce
from repro.indexes.persistence import load_index, read_header
from repro.indexes.registry import index_class
from repro.obs.instruments import recovery_instruments
from repro.obs.registry import OBS
from repro.service import layout
from repro.service.fsio import REAL_FS, FileSystem
from repro.service.wal import WalOp, op_lsn, read_wal

PathLike = Union[str, Path]

DEFAULT_INDEX_KEY = "irhint-perf"


@dataclass
class RecoveryReport:
    """What recovery did and the live index it produced."""

    index: TemporalIRIndex
    index_key: str
    #: Sequence of the snapshot the state was based on (0 = none, replayed
    #: from the empty initial state).
    snapshot_seq: int = 0
    snapshot_path: Optional[Path] = None
    corrupt_snapshots: List[Path] = field(default_factory=list)
    segments_replayed: List[Path] = field(default_factory=list)
    records_replayed: int = 0
    records_skipped: int = 0
    torn_tail: bool = False
    #: True when no snapshot was loadable and the state is a BruteForce
    #: rebuild of the surviving log (best effort, possibly partial).
    degraded: bool = False
    notes: List[str] = field(default_factory=list)
    #: Sequence number of the WAL segment new mutations should append to.
    active_seq: int = 0
    #: Length of the valid record prefix of that segment (truncate past it).
    active_valid_bytes: int = 0
    #: Highest LSN in the recovered state; the store numbers onward from it.
    last_lsn: int = 0

    def summary_lines(self) -> List[str]:
        """Human-readable report (used by ``python -m repro recover``)."""
        lines = [
            f"index: {self.index_key} ({type(self.index).__name__}), "
            f"{len(self.index)} live objects",
            f"snapshot: {self.snapshot_path or '<none>'}",
            f"replayed: {self.records_replayed} records from "
            f"{len(self.segments_replayed)} WAL segment(s) "
            f"({self.records_skipped} skipped as already applied)",
        ]
        if self.corrupt_snapshots:
            lines.append(
                "corrupt snapshots skipped: "
                + ", ".join(p.name for p in self.corrupt_snapshots)
            )
        if self.torn_tail:
            lines.append("torn WAL tail detected and dropped")
        if self.degraded:
            lines.append(
                "DEGRADED: no valid snapshot; serving a BruteForce rebuild "
                "of the surviving log"
            )
        lines.extend(self.notes)
        return lines


class UnknownRecordError(ValueError):
    """A WAL record with an unrecognised kind (version skew, not bit rot).

    Deliberately *not* a ReproError: the primary replay path must not
    silently drop mutations it cannot understand — it degrades instead.
    """


def _apply(index: TemporalIRIndex, op: WalOp) -> bool:
    """Apply one WAL record idempotently; True when it mutated the index."""
    kind = op[0]
    if kind == "insert":
        _kind, _lsn, object_id, st, end, elements = op
        if object_id in index:
            return False
        index.insert(TemporalObject(id=object_id, st=st, end=end, d=elements))
        return True
    if kind == "delete":
        object_id = op[2]
        if object_id not in index:
            return False
        index.delete(object_id)
        return True
    raise UnknownRecordError(f"unknown WAL record kind {kind!r}")


def _fresh_index(
    index_key: str, index_params: Optional[Dict[str, object]]
) -> TemporalIRIndex:
    return index_class(index_key)(**(index_params or {}))  # type: ignore[call-arg]


def _replay_segments(
    index: TemporalIRIndex,
    segments: List[Tuple[int, Path]],
    report: RecoveryReport,
    strict: bool = True,
) -> None:
    """Replay segments in order, tolerating already-applied records.

    ``strict`` governs records of unknown kind: the primary path raises
    (and the caller degrades) rather than silently dropping mutations a
    newer writer logged; the degraded path keeps whatever it understands.
    """
    for _seq, path in segments:
        scan = read_wal(path)
        if scan.torn:
            report.torn_tail = True
            report.notes.append(
                f"{path.name}: dropped {scan.dropped_bytes} trailing bytes ({scan.error})"
            )
        applied = 0
        for op in scan.records:
            try:
                lsn = op_lsn(op)
                if lsn <= report.last_lsn:
                    # The loaded snapshot (or an earlier segment) already
                    # covers this record: applying it again could resurrect
                    # an object a covered delete removed.
                    report.records_skipped += 1
                    continue
                if _apply(index, op):
                    applied += 1
                else:
                    report.records_skipped += 1
                report.last_lsn = lsn
            except UnknownRecordError:
                if strict:
                    raise
                report.records_skipped += 1
            except ReproError:
                # The same op necessarily failed at runtime too (e.g. a
                # domain mismatch) — skipping reproduces the live state.
                report.records_skipped += 1
            except (IndexError, TypeError, ValueError) as exc:
                # Structurally malformed record: version skew, not bit rot
                # (the CRC already passed).  Strict replay degrades rather
                # than silently dropping a mutation it cannot parse.
                if strict:
                    raise UnknownRecordError(f"malformed WAL record: {exc}") from exc
                report.records_skipped += 1
        report.records_replayed += applied
        report.segments_replayed.append(path)
        report.active_seq = max(report.active_seq, _seq)
        report.active_valid_bytes = scan.valid_bytes


def recover(
    directory: PathLike,
    fs: FileSystem = REAL_FS,
    index_key: Optional[str] = None,
    index_params: Optional[Dict[str, object]] = None,
) -> RecoveryReport:
    """Reconstruct the live index of a store directory after a restart.

    ``index_key``/``index_params`` apply only when the directory has no
    manifest (a store that never finished initialising); a manifest on
    disk wins.  A snapshot of a format this build does not read raises
    :class:`~repro.core.errors.UnsupportedFormatError`.  When a metrics
    registry is enabled, each ladder step is counted (``repro_recovery_*``
    — see docs/observability.md).
    """
    report = _recover(directory, fs, index_key, index_params)
    registry = OBS.registry
    if registry.enabled:
        instruments = recovery_instruments(registry)
        instruments.runs.inc()
        if report.corrupt_snapshots:
            instruments.snapshots_corrupt.inc(len(report.corrupt_snapshots))
        if report.records_replayed:
            instruments.records_replayed.inc(report.records_replayed)
        if report.records_skipped:
            instruments.records_skipped.inc(report.records_skipped)
        if report.torn_tail:
            instruments.torn_tails.inc()
        if report.degraded:
            instruments.degraded.inc()
    return report


def _recover(
    directory: PathLike,
    fs: FileSystem,
    index_key: Optional[str],
    index_params: Optional[Dict[str, object]],
) -> RecoveryReport:
    directory = layout.require_directory(directory)
    manifest = layout.read_manifest(directory)
    if manifest is not None:
        index_key = str(manifest["index_key"])
        index_params = manifest.get("index_params") or {}
    elif index_key is None:
        index_key = DEFAULT_INDEX_KEY

    snapshots = layout.list_snapshots(directory)
    segments = layout.list_wal_segments(directory)

    base: Optional[TemporalIRIndex] = None
    base_seq = 0
    base_lsn = 0
    base_path: Optional[Path] = None
    corrupt: List[Path] = []
    for seq, path in reversed(snapshots):
        try:
            base = load_index(path)
            base_lsn = int(read_header(path).get("last_lsn", 0))
        except CorruptSnapshotError:
            corrupt.append(path)
            continue
        base_seq, base_path = seq, path
        break

    if base is None and not snapshots:
        # Fresh store (or one that crashed before its first checkpoint):
        # the empty initial state plus the full log is the complete state.
        try:
            base = _fresh_index(index_key, index_params)
        except ReproError as exc:
            base = None
            degradation_reason = f"cannot construct index {index_key!r}: {exc}"
        else:
            degradation_reason = ""
    else:
        degradation_reason = "every snapshot on disk failed verification"

    if base is not None:
        report = RecoveryReport(
            index=base,
            index_key=index_key,
            snapshot_seq=base_seq,
            snapshot_path=base_path,
            corrupt_snapshots=corrupt,
            active_seq=base_seq,
            last_lsn=base_lsn,
        )
        try:
            _replay_segments(
                base, [(s, p) for s, p in segments if s >= base_seq], report
            )
        except MemoryError:  # not the index's fault: degrading would lose the store
            raise
        except Exception as exc:  # index-specific replay blow-up
            degradation_reason = f"replay failed on {index_key}: {exc}"
        else:
            return report

    # ---------------------------------------------------- graceful degradation
    brute = BruteForce()
    report = RecoveryReport(
        index=brute,
        index_key="brute",
        corrupt_snapshots=corrupt,
        degraded=True,
    )
    report.notes.append(f"degraded because: {degradation_reason}")
    if segments and segments[0][0] > 0:
        report.notes.append(
            "log is partial: earliest WAL segment is "
            f"{segments[0][1].name}; state misses older mutations"
        )
    _replay_segments(brute, segments, report, strict=False)
    return report
