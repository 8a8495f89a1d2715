"""Serving queries straight from an mmap'd segment.

:class:`SegmentReader` maps a segment file once, validates it whole (the
footer, the header, every region's CRC32 and the columns' structure:
:func:`~repro.storage.format.read_directory`) and answers Algorithm 1
(overlap ∧ containment) from numpy views of the mapping, with no decode
and no checksum per read:

* an element's postings are a :class:`~repro.ir.cold.ColdPostingsList` —
  its run of the rows column, found through the term table;
* a query stays in row space: the rarest term's rows gather their
  endpoints and one mask keeps the matches, each further term cuts the
  candidates with one ``searchsorted``, and the answer is the id column
  gathered at the rows left — an array of its own, never a view;
* membership probes search the id column, and pure-temporal queries mask
  the endpoint columns;
* :meth:`objects` — the promotion path — rebuilds each object's
  description from the term runs, and the reader records whether that
  ever happened (``descriptions_decoded``) so tests can assert the query
  path never builds objects.  Nothing in a segment is pickled.

Every query counts into the ``repro_storage_*`` families and runs under
a ``segment_query`` trace span.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.answer import NO_IDS, as_answer
from repro.core.errors import CorruptSegmentError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.cold import ColdPostingsList, SegmentColumns
from repro.obs.context import span
from repro.obs.registry import OBS
from repro.storage.format import ROW_DTYPE, read_directory

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
        self._closed = False
        self._postings: Dict[Element, ColdPostingsList] = {}
        try:
            with memoryview(self._mmap) as view:
                self.directory = read_directory(view, str(self.path))
        except CorruptSegmentError:
            self._mmap.close()
            raise
        rows_at, n_rows = self.directory.rows
        *catalog_at, n = self.directory.catalog
        self._columns = SegmentColumns(
            np.frombuffer(self._mmap, dtype=ROW_DTYPE, count=n_rows, offset=rows_at),
            *(np.frombuffer(self._mmap, dtype="<i8", count=n, offset=at) for at in catalog_at),
        )
        #: True once the promotion path rebuilt the objects; the query
        #: path must never flip this.
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
        # The column views go before the mapping: mmap refuses to close
        # while one is exported.  Postings views and answers hold none.
        self._columns.release()
        try:
            self._mmap.close()
        except BufferError:  # a view a traceback still holds: unmapped with it
            pass
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
        return len(self._columns.rows_of([object_id])) > 0

    def object_ids(self) -> List[int]:
        """Every catalogued id, ascending."""
        return self._columns.get()[1].tolist()

    def size_bytes(self) -> int:
        """The mapped file size — the segment's worst-case residency."""
        return len(self._mmap)

    # ---------------------------------------------------------------- postings
    def postings(self, element: Element) -> Optional[ColdPostingsList]:
        """The element's cold postings view, or ``None`` when unindexed."""
        cached = self._postings.get(element)
        if cached is not None:
            return cached
        run = self.directory.terms.get(element)
        if run is None:
            return None
        view = ColdPostingsList(self._columns, *run, self._count_run)
        self._postings[element] = view
        return view

    def term_count(self, element: Element) -> int:
        """Live entries under ``element`` (Algorithm 1 ordering key): the
        length of its run."""
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
            rows = first.overlapping_rows(q.st, q.end)
            for element in ordered[1:]:
                if not len(rows):
                    return NO_IDS
                postings = self.postings(element)
                if postings is None:
                    return NO_IDS
                rows = postings.intersect_rows(rows)
            return as_answer(self._columns.get()[1][rows])

    def _pure_temporal(self, q_st, q_end) -> np.ndarray:
        """Catalog-column scan: ids of objects overlapping the window."""
        seg_lo_hi = self.directory.span
        window = exact_window(q_st, q_end)
        if seg_lo_hi is None or window is None:
            return NO_IDS
        if seg_lo_hi[0] > window[1] or seg_lo_hi[1] < window[0]:
            return NO_IDS
        _rows, ids, sts, ends = self._columns.get()
        return ids[overlap_mask(sts, ends, *window)]

    # --------------------------------------------------------------- promotion
    def objects(self) -> List[TemporalObject]:
        """The full decoded shard — the promote/rebalance path only.

        Each object's description is the set of terms whose run holds its
        row: every term key is decoded once and its run scattered, then
        the catalog columns are joined back into :class:`TemporalObject`
        instances (an object under no term gets ``frozenset()``).
        """
        rows, ids, sts, ends = self._columns.get()
        described: List[List[Element]] = [[] for _ in range(len(ids))]
        for element, start, stop in self.directory.terms.runs():
            for row in rows[start:stop].tolist():
                described[row].append(element)
        self.descriptions_decoded = True
        return [
            TemporalObject(id=object_id, st=st, end=end, d=frozenset(elements))
            for object_id, st, end, elements in zip(
                ids.tolist(), sts.tolist(), ends.tolist(), described
            )
        ]

    # ----------------------------------------------------------------- metrics
    def _count_open(self, delta: int) -> None:
        instruments = _instruments()
        if instruments is not None:
            instruments.segments_open.inc(delta)

    def _count_query(self) -> None:
        instruments = _instruments()
        if instruments is not None:
            instruments.cold_queries.inc()

    def _count_run(self, read: bool) -> None:
        instruments = _instruments()
        if instruments is not None:
            (instruments.blocks_decoded if read else instruments.blocks_skipped).inc()


def _instruments():
    """The ``repro_storage_*`` families, or ``None`` while metrics are off."""
    registry = OBS.registry
    if not registry.enabled:
        return None
    from repro.obs.instruments import storage_instruments

    return storage_instruments(registry)
