"""On-disk layout of a cluster directory.

::

    cluster-dir/
      cluster.json            manifest: current generation + build config
      routing-00000001.json   routing-table generations (immutable once
      routing-00000002.json   written; the manifest names the live one)
      shards/
        g0001-s00/
          replica-0/          a DurableIndexStore directory (WAL+snapshots)
          replica-1/
        g0001-s01/ ...

The **manifest is the commit point**: ``routing-<gen>.json`` and every
shard directory that generation references are fully written and fsync'd
*before* the manifest's atomic replace points at the new generation.  A
crash anywhere mid-rebalance therefore leaves the manifest naming a
complete generation — old or new, never a mix; :func:`prune_orphans`
sweeps the partially-built leftovers on the next open.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.errors import ClusterError
from repro.cluster.routing import RoutingTable
from repro.service.fsio import REAL_FS, FileSystem

PathLike = Union[str, Path]

MANIFEST_NAME = "cluster.json"
SHARDS_DIR = "shards"
SEGMENTS_DIR = "segments"
_ROUTING_RE = re.compile(r"^routing-(\d{8})\.json$")
_TMP_SUFFIX = ".tmp"

#: Manifest format version.
MANIFEST_VERSION = 1


def routing_path(directory: PathLike, generation: int) -> Path:
    return Path(directory) / f"routing-{generation:08d}.json"


def shard_dir(directory: PathLike, shard_id: str) -> Path:
    return Path(directory) / SHARDS_DIR / shard_id


def replica_dir(directory: PathLike, shard_id: str, replica: int) -> Path:
    return shard_dir(directory, shard_id) / f"replica-{replica}"


def segments_dir(directory: PathLike) -> Path:
    """Where demoted shards' cold segments live."""
    return Path(directory) / SEGMENTS_DIR


def segment_path(directory: PathLike, shard_id: str) -> Path:
    from repro.storage.format import SEGMENT_SUFFIX

    return segments_dir(directory) / f"{shard_id}{SEGMENT_SUFFIX}"


def list_routing_generations(directory: PathLike) -> List[Tuple[int, Path]]:
    """``(generation, path)`` of every routing file, ascending."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        match = _ROUTING_RE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


# ------------------------------------------------------------------- manifest
def write_manifest(
    directory: PathLike,
    generation: int,
    *,
    index_key: str,
    index_params: Optional[Dict[str, object]] = None,
    fs: FileSystem = REAL_FS,
) -> None:
    """Atomically point the cluster at ``generation`` (the commit point)."""
    manifest = {
        "version": MANIFEST_VERSION,
        "generation": generation,
        "index_key": index_key,
        "index_params": dict(index_params or {}),
    }
    fs.atomic_write(
        Path(directory) / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )


def read_manifest(directory: PathLike) -> Dict[str, object]:
    """The cluster manifest; raises :class:`ClusterError` when invalid."""
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text("utf-8"))
    except OSError as exc:
        raise ClusterError(f"{directory}: not a cluster directory ({exc})") from exc
    except ValueError as exc:
        raise ClusterError(f"{path}: corrupt cluster manifest: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("version") != MANIFEST_VERSION
        or "generation" not in manifest
        or "index_key" not in manifest
    ):
        raise ClusterError(f"{path}: malformed cluster manifest")
    return manifest


def is_cluster_dir(directory: PathLike) -> bool:
    return (Path(directory) / MANIFEST_NAME).is_file()


# -------------------------------------------------------------- routing files
def write_routing_table(
    directory: PathLike, table: RoutingTable, fs: FileSystem = REAL_FS
) -> Path:
    """Durably write one routing generation (immutable once installed)."""
    path = routing_path(directory, table.generation)
    fs.atomic_write(path, table.to_json().encode("utf-8"))
    return path


def read_routing_table(directory: PathLike, generation: int) -> RoutingTable:
    path = routing_path(directory, generation)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ClusterError(f"{path}: missing routing generation ({exc})") from exc
    table = RoutingTable.from_json(text)
    if table.generation != generation:
        raise ClusterError(
            f"{path}: claims generation {table.generation}, expected {generation}"
        )
    return table


def current_routing_table(directory: PathLike) -> RoutingTable:
    """The generation the manifest points at."""
    manifest = read_manifest(directory)
    return read_routing_table(directory, int(manifest["generation"]))  # type: ignore[arg-type]


# ------------------------------------------------------------------ housekeeping
def prune_orphans(
    directory: PathLike,
    table: RoutingTable,
    cold: Optional[Dict[str, str]] = None,
) -> List[Path]:
    """Remove leftovers no committed generation (or tier state) references.

    Drops routing files *newer* than the current generation (a rebalance
    that crashed before its manifest commit) and shard directories the
    current table does not name (either that same crash's half-built
    shards, or shards replaced by an already-committed rebalance whose
    cleanup was interrupted).  Returns the removed paths.

    ``cold`` is the committed tier assignment (shard id → segment file
    name).  A committed-cold shard's hot directories are stale — a
    demotion that crashed after its tier commit but before the removal —
    and are swept; likewise segment files the tier state does not name
    are uncommitted demotions (or promoted leftovers) and are removed.
    """
    directory = Path(directory)
    cold = dict(cold or {})
    removed: List[Path] = []
    for generation, path in list_routing_generations(directory):
        if generation > table.generation:
            path.unlink()
            removed.append(path)
    shards_root = directory / SHARDS_DIR
    if shards_root.is_dir():
        live = set(table.shard_ids()) - set(cold)
        for entry in sorted(shards_root.iterdir()):
            if entry.is_dir() and entry.name not in live:
                shutil.rmtree(entry)
                removed.append(entry)
    segments_root = directory / SEGMENTS_DIR
    if segments_root.is_dir():
        committed = set(cold.values())
        for entry in sorted(segments_root.iterdir()):
            if entry.is_file() and entry.name not in committed:
                entry.unlink()
                removed.append(entry)
    for entry in sorted(directory.glob(f"*{_TMP_SUFFIX}")):
        entry.unlink()
        removed.append(entry)
    return removed
