"""Serving queries straight from an mmap'd segment.

:class:`SegmentReader` maps a segment file once, validates the footer and
directory, and answers Algorithm 1 (overlap ∧ containment) with **zero
full-segment decode**:

* element postings are :class:`~repro.ir.cold.ColdPostingsList` views —
  runs of rows of the block table, found through the directory's term
  table; both are copied out of the mapping once at open, and only
  blocks whose skip summary admits the query are decoded;
* membership probes bisect the raw i64 id column through
  ``memoryview.cast('q')`` (zero-copy);
* pure-temporal queries mask the endpoint columns, never a block;
* the pickled descriptions blob is read only by :meth:`objects` — the
  promotion path — and the reader records whether that ever happened
  (``descriptions_decoded``) so tests can assert the query path stayed
  lazy.  On a v3 segment nothing else unpickles either: its directory
  is a JSON header.

The reader cannot tell formats apart: :func:`~repro.storage.format.read_directory`
gives v1, v2 and v3 segments one directory shape.

Every query counts into the ``repro_storage_*`` families and runs under
a ``segment_query`` trace span.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.answer import NO_IDS, as_answer
from repro.core.errors import CorruptSegmentError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.cold import ColdPostingsList
from repro.obs.context import span
from repro.obs.registry import OBS
from repro.storage.format import read_directory, unpack_descriptions

PathLike = Union[str, Path]


class SegmentReader:
    """One open, validated, mmap'd segment."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        try:
            # analysis: allow(REP003, reason=read-only mmap source; the fsio seam covers durable writes, and mmap needs the real file descriptor)
            handle = open(self.path, "rb")
        except OSError as exc:
            raise CorruptSegmentError(f"{self.path}: cannot open ({exc})") from exc
        try:
            try:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # empty file cannot be mapped
                raise CorruptSegmentError(
                    f"{self.path}: empty or unmappable segment ({exc})"
                ) from exc
        finally:
            handle.close()
        self._view = memoryview(self._mmap)
        self._closed = False
        self._postings: Dict[Element, ColdPostingsList] = {}
        try:
            # The block table is a copy: no numpy view of the mapping
            # outlives a call, so close() can always release it.
            self.directory, self._blocks = read_directory(self._view, str(self.path))
        except CorruptSegmentError:
            self.close()
            raise
        ids_off, sts_off, ends_off, n = self.directory.catalog
        self._ids = self._view[ids_off : ids_off + 8 * n].cast("q")
        self._sts = self._view[sts_off : sts_off + 8 * n].cast("q")
        self._ends = self._view[ends_off : ends_off + 8 * n].cast("q")
        #: True once the promotion path unpickled the descriptions blob;
        #: the query path must never flip this.
        self.descriptions_decoded = False
        self._count_open(+1)

    # --------------------------------------------------------------- lifecycle
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._postings.clear()
        # Release column views before the backing mmap (mmap refuses to
        # close with exported views alive).
        for name in ("_ids", "_sts", "_ends"):
            if hasattr(self, name):
                getattr(self, name).release()
        self._view.release()
        self._mmap.close()
        self._count_open(-1)

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- basics
    @property
    def shard_id(self) -> str:
        return self.directory.shard_id

    def __len__(self) -> int:
        return self.directory.count

    def __contains__(self, object_id: int) -> bool:
        ids = self._ids
        position = bisect_left(ids, object_id)
        return position < len(ids) and ids[position] == object_id

    def object_ids(self) -> List[int]:
        """Every catalogued id, ascending (zero-copy column read)."""
        return list(self._ids)

    def size_bytes(self) -> int:
        """The mapped file size — the segment's worst-case residency."""
        return len(self._mmap)

    # ---------------------------------------------------------------- postings
    def postings(self, element: Element) -> Optional[ColdPostingsList]:
        """The element's cold postings view, or ``None`` when unindexed."""
        cached = self._postings.get(element)
        if cached is not None:
            return cached
        rows = self.directory.terms.get(element)
        if rows is None:
            return None
        first_row, n_rows = rows
        view = ColdPostingsList(
            self._view,
            self._blocks.T[first_row : first_row + n_rows],
            self._count_blocks,
        )
        self._postings[element] = view
        return view

    def term_count(self, element: Element) -> int:
        """Live entries under ``element`` (Algorithm 1 ordering key): the
        sum of its rows of the block table's count column."""
        postings = self.postings(element)
        return 0 if postings is None else len(postings)

    # ------------------------------------------------------------------- query
    def query(self, q: TimeTravelQuery) -> np.ndarray:
        """Algorithm 1 over the segment, as an answer
        (:mod:`repro.core.answer`) equal to the hot tier's for the same
        objects."""
        with span("segment_query", shard=self.shard_id, segment=self.path.name):
            self._count_query()
            if not q.d:
                return as_answer(self._pure_temporal(q.st, q.end))
            ordered = sorted(q.d, key=lambda e: (self.term_count(e), repr(e)))
            first = self.postings(ordered[0])
            if first is None:
                return NO_IDS
            candidates = first.overlapping_ids(q.st, q.end)
            for element in ordered[1:]:
                if not candidates:
                    return NO_IDS
                postings = self.postings(element)
                if postings is None:
                    return NO_IDS
                candidates = postings.intersect_sorted(candidates)
            return as_answer(candidates)

    def _pure_temporal(self, q_st, q_end) -> np.ndarray:
        """Catalog-column scan: ids of objects overlapping the window."""
        seg_lo_hi = self.directory.span
        window = exact_window(q_st, q_end)
        if seg_lo_hi is None or window is None:
            return NO_IDS
        if seg_lo_hi[0] > window[1] or seg_lo_hi[1] < window[0]:
            return NO_IDS
        ids, sts, ends = (
            np.frombuffer(column, dtype=np.int64)
            for column in (self._ids, self._sts, self._ends)
        )
        return ids[overlap_mask(sts, ends, *window)]

    # --------------------------------------------------------------- promotion
    def objects(self) -> List[TemporalObject]:
        """The full decoded shard — the promote/rebalance path only.

        This is the one deliberate full-segment decode: the descriptions
        blob is CRC-checked and decoded, and the catalog columns are
        joined back into :class:`TemporalObject` instances.
        """
        offset, length, _crc = self.directory.descriptions
        descriptions = unpack_descriptions(
            self.directory, bytes(self._view[offset : offset + length]), str(self.path)
        )
        self.descriptions_decoded = True
        ids, sts, ends = self._ids, self._sts, self._ends
        return [
            TemporalObject(
                id=ids[i], st=sts[i], end=ends[i],
                d=descriptions.get(ids[i], frozenset()),
            )
            for i in range(len(ids))
        ]

    # ----------------------------------------------------------------- metrics
    def stats(self) -> Dict[str, object]:
        return {
            "path": str(self.path),
            "shard_id": self.shard_id,
            "objects": len(self),
            "terms": len(self.directory.terms),
            "size_bytes": self.size_bytes(),
        }

    def _count_open(self, delta: int) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import storage_instruments

            storage_instruments(registry).segments_open.inc(delta)

    def _count_query(self) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import storage_instruments

            storage_instruments(registry).cold_queries.inc()

    def _count_blocks(self, decoded: int, skipped: int) -> None:
        registry = OBS.registry
        if not registry.enabled:
            return
        from repro.obs.instruments import storage_instruments

        instruments = storage_instruments(registry)
        if decoded:
            instruments.blocks_decoded.inc(decoded)
        if skipped:
            instruments.blocks_skipped.inc(skipped)
