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
from typing import Dict, Iterable, List

import numpy as np

from repro.core.errors import ClusterError
from repro.core.model import Element, TemporalObject
from repro.obs.registry import OBS
from repro.service.fsio import REAL_FS, FileSystem
from repro.storage.format import (
    FORMAT_VERSION,
    MAX_ROWS,
    ROW_DTYPE,
    align8,
    build_footer,
    encode_key,
    pack_header,
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


def _term_key(element: Element) -> bytes:
    key = encode_key(element)
    if key is None:
        raise ClusterError(
            f"element {element!r} is not a str, int, bytes or tuple of those — "
            f"only shards of such elements can demote to the cold tier"
        )
    return key


def build_segment(
    objects: Iterable[TemporalObject],
    *,
    shard_id: str,
    index_key: str,
    index_params: Dict[str, object],
) -> bytes:
    """Serialise ``objects`` into one complete segment image.

    Objects are catalogued in id order; each element's postings are the
    ascending catalog rows of the objects that hold it, elements in
    encoded-key order.  Raises :class:`~repro.core.errors.ClusterError`
    for ids or timestamps that are not i64 (the domain of every column),
    for a shard of more objects than an i32 row can name, and for
    elements :func:`encode_key` cannot encode — such shards stay
    RAM-resident.
    """
    catalog = sorted(objects, key=lambda obj: obj.id)
    for obj in catalog:
        _check_codable(obj)
    if len(catalog) > MAX_ROWS:
        raise ClusterError(
            f"shard {shard_id}: {len(catalog)} objects is more than a segment's "
            f"i32 rows can name ({MAX_ROWS})"
        )

    postings: Dict[Element, List[int]] = {}
    for row, obj in enumerate(catalog):
        for element in obj.d:
            postings.setdefault(element, []).append(row)
    terms = sorted((_term_key(element), rows) for element, rows in postings.items())

    body = bytearray()

    def region(blob: bytes) -> List[int]:
        offset = len(body)
        body.extend(blob)
        return [offset, len(blob), zlib.crc32(blob)]

    rows_region = region(
        np.fromiter((row for _key, rows in terms for row in rows), dtype=ROW_DTYPE).tobytes()
    )
    body += b"\x00" * (align8(len(body)) - len(body))
    catalog_region = region(  # ids, then sts, then ends
        np.array([(obj.id, obj.st, obj.end) for obj in catalog], dtype="<i8").T.tobytes()
    )
    offsets = np.cumsum([0] + [len(rows) for _key, rows in terms], dtype="<i8")
    keys = [key for key, _rows in terms]
    width = max(map(len, keys), default=1)
    term_region = region(offsets.tobytes() + np.array(keys, dtype=f"S{width}").tobytes())

    header = {
        "version": FORMAT_VERSION,
        "shard_id": shard_id,
        "index_key": index_key,
        "index_params": dict(index_params),
        "count": len(catalog),
        "span": (
            [min(obj.st for obj in catalog), max(obj.end for obj in catalog)]
            if catalog
            else None
        ),
        "n_terms": len(terms),
        "key_width": width,
        "terms": term_region,
        "rows": rows_region,
        "catalog": catalog_region,
    }
    try:
        header_blob = pack_header(header)
    except (TypeError, ValueError) as exc:
        raise ClusterError(
            f"shard {shard_id}: index params {index_params!r} are not JSON values"
        ) from exc
    return bytes(body) + header_blob + build_footer(len(body), header_blob)


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
