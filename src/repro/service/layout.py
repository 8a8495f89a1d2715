"""On-disk layout of a durable index store directory.

::

    store-dir/
      store.json             manifest: index key, build params, versions
      snapshot-00000002.idx  checksummed snapshots (persistence layer)
      wal-00000002.log       mutations applied *after* snapshot 2
      ...

Sequence numbers tie WAL segments to snapshots: segment ``k`` holds
exactly the mutations applied since snapshot ``k`` was written (``k = 0``
is the implicit empty initial state — there is no ``snapshot-00000000``).
Recovery therefore loads the newest valid snapshot ``k`` and replays
segments ``k, k+1, ...`` in order; if snapshot ``k+1`` is corrupt, falling
back to ``k`` replays the same mutations from the longer log instead.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.service.fsio import REAL_FS, FileSystem

PathLike = Union[str, Path]

MANIFEST_NAME = "store.json"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.idx$")
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")
_TMP_SUFFIX = ".tmp"


def snapshot_path(directory: PathLike, seq: int) -> Path:
    return Path(directory) / f"snapshot-{seq:08d}.idx"


def wal_path(directory: PathLike, seq: int) -> Path:
    return Path(directory) / f"wal-{seq:08d}.log"


def _scan(directory: PathLike, pattern: re.Pattern) -> List[Tuple[int, Path]]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = pattern.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


def list_snapshots(directory: PathLike) -> List[Tuple[int, Path]]:
    """``(seq, path)`` of every snapshot, ascending by sequence."""
    return _scan(directory, _SNAPSHOT_RE)


def list_wal_segments(directory: PathLike) -> List[Tuple[int, Path]]:
    """``(seq, path)`` of every WAL segment, ascending by sequence."""
    return _scan(directory, _WAL_RE)


def orphan_temp_files(directory: PathLike) -> List[Path]:
    """Leftover ``*.tmp`` files from a crash mid-snapshot-write."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(p for p in directory.iterdir() if p.name.endswith(_TMP_SUFFIX))


# ------------------------------------------------------------------ manifest
def write_manifest(
    directory: PathLike,
    index_key: str,
    index_params: Optional[Dict[str, object]] = None,
    fs: FileSystem = REAL_FS,
) -> None:
    """Atomically record which index class this store serves."""
    import repro

    manifest = {
        "index_key": index_key,
        "index_params": dict(index_params or {}),
        "library": repro.__version__,
    }
    fs.atomic_write(
        Path(directory) / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )


def read_manifest(directory: PathLike) -> Optional[Dict[str, object]]:
    """The store manifest, or ``None`` when absent/unreadable.

    An unreadable manifest is reported as missing rather than fatal: the
    recovery path can still degrade to a brute-force rebuild of the log.
    """
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    if not isinstance(manifest, dict) or "index_key" not in manifest:
        return None
    return manifest


def require_directory(directory: PathLike) -> Path:
    """Validate the store directory exists (created by the caller/CLI)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ReproError(f"{directory}: not a directory (create it first)")
    return directory
