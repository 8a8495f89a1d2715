"""Crash-safe live index serving.

The paper's Tables 6–7 show every composite index supporting live
insertions and tombstone deletions, and Table 5 shows that *rebuilding*
an index is the expensive step.  This package makes any registry index
durable across crashes so that the build cost is paid once:

* :mod:`repro.service.wal` — append-only, fsync'd, CRC32-framed
  write-ahead log of mutations with torn-tail detection;
* :mod:`repro.service.snapshotter` — periodic checksummed snapshots,
  written atomically, with WAL rotation and bounded retention;
* :mod:`repro.service.recovery` — restart logic: newest *valid* snapshot,
  idempotent WAL replay, and graceful degradation to a
  :class:`~repro.indexes.brute.BruteForce` rebuild as the last resort;
* :mod:`repro.service.store` — the :class:`DurableIndexStore` façade
  (``insert`` / ``delete`` / ``query`` / ``checkpoint`` / ``close``)
  behind the ``serve-net`` daemon's store tenants and the ``recover`` CLI
  command;
* :mod:`repro.service.faults` — deterministic fault injection used by the
  crash-consistency test suite.
"""

from repro.service.faults import FaultPlan, FaultyFileSystem, SimulatedCrash
from repro.service.fsio import FileSystem
from repro.service.recovery import RecoveryReport, recover
from repro.service.store import DurableIndexStore
from repro.service.wal import WalReadResult, WriteAheadLog, read_wal

__all__ = [
    "DurableIndexStore",
    "FaultPlan",
    "FaultyFileSystem",
    "FileSystem",
    "RecoveryReport",
    "SimulatedCrash",
    "WalReadResult",
    "WriteAheadLog",
    "read_wal",
    "recover",
]
