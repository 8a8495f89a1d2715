"""Building and crash-safely installing cold segments.

:func:`write_segment` turns a shard's live objects into one immutable
segment file.  Every byte goes through the :mod:`repro.service.fsio`
seam — the crash matrix substitutes a
:class:`~repro.service.faults.FaultyFileSystem` and tears the write at
each boundary — and installation follows the atomic pattern the rest of
the durability layer uses: write ``<name>.tmp``, fsync, rename over the
final name, fsync the directory.  A segment file, once visible under its
final name, is therefore always complete; the *commit point* that makes
the cluster serve it is the tier-state write in
:mod:`repro.storage.tiering`, not the rename.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.core.errors import ClusterError
from repro.core.model import Element, TemporalObject
from repro.ir.blocks import runs, seal
from repro.obs.registry import OBS
from repro.service.fsio import REAL_FS, FileSystem
from repro.storage.format import (
    BlockDescriptor,
    SegmentDirectory,
    align8,
    build_footer,
    pack_block_table,
    pack_descriptions,
    pack_directory,
)

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _check_codable(obj: TemporalObject) -> None:
    for what, value in (("id", obj.id), ("timestamp", obj.st), ("timestamp", obj.end)):
        if not isinstance(value, int) or not _I64_MIN <= value <= _I64_MAX:
            raise ClusterError(
                f"object {obj.id}: {what} {value!r} is not an i64 — only "
                f"shards of i64 ids and integer times can demote to the cold tier"
            )


def build_segment(
    objects: Iterable[TemporalObject],
    *,
    shard_id: str,
    index_key: str,
    index_params: Dict[str, object],
) -> bytes:
    """Serialise ``objects`` into one complete segment image.

    Objects are catalogued in id order; per-element postings runs are
    sealed into :data:`~repro.ir.blocks.BLOCK_SIZE`-entry encoded
    blocks, described row by row in the block table.  Raises
    :class:`~repro.core.errors.ClusterError` for ids or timestamps that
    are not i64 (the domain of the block codec and of every column —
    such shards stay RAM-resident).
    """
    catalog = sorted(objects, key=lambda obj: obj.id)
    for obj in catalog:
        _check_codable(obj)

    body = bytearray()
    terms: Dict[Element, Tuple[int, int]] = {}
    descriptors: List[BlockDescriptor] = []
    postings: Dict[Element, List[Tuple[int, int, int]]] = {}
    for obj in catalog:
        for element in obj.d:
            postings.setdefault(element, []).append((obj.id, obj.st, obj.end))
    # Deterministic file layout: elements in repr order.
    for element in sorted(postings, key=repr):
        first_row = len(descriptors)
        for run in runs(postings[element]):
            block, summary = seal(run)
            descriptors.append((len(body), len(block), zlib.crc32(block)) + summary)
            body += block
        terms[element] = (first_row, len(descriptors) - first_row)

    body += b"\x00" * (align8(len(body)) - len(body))
    table_offset = len(body)
    table_blob = pack_block_table(descriptors)
    body += table_blob
    ids_offset = len(body)
    body += np.array([obj.id for obj in catalog], dtype="<i8").tobytes()
    sts_offset = len(body)
    body += np.array([obj.st for obj in catalog], dtype="<i8").tobytes()
    ends_offset = len(body)
    body += np.array([obj.end for obj in catalog], dtype="<i8").tobytes()

    descriptions_blob = pack_descriptions({obj.id: obj.d for obj in catalog})
    descriptions_offset = len(body)
    body += descriptions_blob

    directory = SegmentDirectory(
        shard_id=shard_id,
        index_key=index_key,
        index_params=dict(index_params),
        count=len(catalog),
        terms=terms,
        block_table=(table_offset, len(descriptors), zlib.crc32(table_blob)),
        catalog=(ids_offset, sts_offset, ends_offset, len(catalog)),
        descriptions=(
            descriptions_offset,
            len(descriptions_blob),
            zlib.crc32(descriptions_blob),
        ),
        span=(
            (min(obj.st for obj in catalog), max(obj.end for obj in catalog))
            if catalog
            else None
        ),
    )
    dir_blob = pack_directory(directory)
    return bytes(body) + dir_blob + build_footer(len(body), dir_blob)


def write_segment(
    path: Path,
    objects: Iterable[TemporalObject],
    *,
    shard_id: str,
    index_key: str,
    index_params: Dict[str, object],
    fs: FileSystem = REAL_FS,
) -> Path:
    """Build and atomically install a segment at ``path``.

    ``write .tmp → fsync → rename → fsync dir``: a crash at any boundary
    leaves either no file or a ``.tmp`` the recovery sweep removes —
    never a half-written segment under the final name.
    """
    payload = build_segment(
        objects, shard_id=shard_id, index_key=index_key, index_params=index_params
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fs.atomic_write(path, payload)
    registry = OBS.registry
    if registry.enabled:
        from repro.obs.instruments import storage_instruments

        instruments = storage_instruments(registry)
        instruments.segments_written.inc()
        instruments.segment_bytes_written.inc(len(payload))
    return path
