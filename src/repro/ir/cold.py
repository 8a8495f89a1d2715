"""Cold postings: a read-only view over one term's run of a segment's rows.

A segment (:mod:`repro.storage.format`) keeps an element's postings as a
run of catalog row numbers, ascending, and the catalog as id / ``t_st`` /
``t_end`` columns.  :class:`ColdPostingsList` serves the full
:class:`~repro.ir.postings.PostingsBackend` read surface over that run,
read in place from the mapped file: an entry is a row, its endpoints are
a gather from the catalog columns, and nothing is decoded.  The reader's
query path stays in row space (:meth:`ColdPostingsList.overlapping_rows`,
:meth:`ColdPostingsList.intersect_rows`) and turns rows into ids once, at
the end.  Mutation attempts raise
:class:`~repro.core.errors.ReadOnlySegmentError` — cold shards promote
before they accept writes (:mod:`repro.storage.tiering`).

Only a :class:`~repro.storage.reader.SegmentReader` constructs one; a
tIF cannot be built on it.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ReadOnlySegmentError, UnknownObjectError
from repro.core.interval import Timestamp
from repro.ir.blocks import exact_window, overlap_mask, sorted_candidates
from repro.ir.postings import PostingsEntry

#: Metrics sink, called once per read: ``True`` when the run is read,
#: ``False`` when it is skipped (its first and last rows bracket no
#: candidate, or the window holds no i64).
RunSink = Callable[[bool], None]

_NO_ROWS = np.empty(0, dtype=np.int32)


def _read_only(what: str) -> ReadOnlySegmentError:
    return ReadOnlySegmentError(
        f"cold postings are immutable ({what} attempted); promote the "
        f"shard back to the hot tier before mutating it"
    )


class SegmentColumns:
    """The columns one open segment answers from: ``rows`` (i32, every
    term's run back to back) and the catalog's ``ids``, ``sts`` and
    ``ends`` (i64).  The reader fills them with views of its mapping and
    :meth:`release`\\ s them when it closes; the postings views it hands
    out hold this object, never a view, so closing never waits on them."""

    __slots__ = ("rows", "ids", "sts", "ends")

    def __init__(self, rows: np.ndarray, ids: np.ndarray, sts: np.ndarray, ends: np.ndarray) -> None:
        self.rows: Optional[np.ndarray] = rows
        self.ids, self.sts, self.ends = ids, sts, ends

    def get(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self.rows is None:
            raise ValueError("read of a closed segment")
        return self.rows, self.ids, self.sts, self.ends

    def release(self) -> None:
        self.rows = self.ids = self.sts = self.ends = None  # type: ignore[assignment]

    def rows_of(self, sorted_ids: Sequence[int]) -> np.ndarray:
        """The catalog rows, ascending, of the ids an ascending candidate
        list shares with the catalog."""
        wanted = sorted_candidates(sorted_ids)
        ids = self.get()[1]
        if not len(wanted) or not len(ids):
            return _NO_ROWS
        at = ids.searchsorted(wanted)
        np.minimum(at, len(ids) - 1, out=at)
        return at[ids[at] == wanted].astype(np.int32)


class ColdPostingsList:
    """Read-only postings over rows ``[start, stop)`` of a segment's rows
    column."""

    __slots__ = ("_columns", "_start", "_stop", "_sink")

    def __init__(
        self, columns: SegmentColumns, start: int, stop: int, sink: Optional[RunSink] = None
    ) -> None:
        self._columns = columns
        self._start = start
        self._stop = stop
        self._sink = sink

    def _count(self, read: bool) -> None:
        if self._sink is not None:
            self._sink(read)

    def _run(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, ids, sts, ends)``: this term's rows, then the catalog."""
        rows, ids, sts, ends = self._columns.get()
        return rows[self._start : self._stop], ids, sts, ends

    # ---------------------------------------------------------------- updates
    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        raise _read_only("add")

    def delete(self, object_id: int) -> None:
        raise _read_only("delete")

    def compact(self) -> None:
        """Compaction is a no-op: segments carry no tombstones by design."""

    # ------------------------------------------------------------- row space
    def overlapping_rows(self, q_st: Timestamp, q_end: Timestamp) -> np.ndarray:
        """The ascending rows whose interval overlaps ``[q_st, q_end]``:
        one gather of the endpoints, one mask."""
        window = exact_window(q_st, q_end)
        if window is None:
            self._count(False)
            return _NO_ROWS
        rows, _ids, sts, ends = self._run()
        self._count(True)
        return rows[overlap_mask(sts[rows], ends[rows], *window)]

    def intersect_rows(self, candidates: np.ndarray) -> np.ndarray:
        """The ascending, distinct ``candidates`` this run holds: one
        ``searchsorted``, or none when the run's first and last rows
        bracket no candidate."""
        if not len(candidates):
            return candidates
        rows = self._run()[0]
        if not len(rows) or candidates[-1] < rows[0] or candidates[0] > rows[-1]:
            self._count(False)
            return _NO_ROWS
        self._count(True)
        at = rows.searchsorted(candidates)
        np.minimum(at, len(rows) - 1, out=at)
        return candidates[rows[at] == candidates]

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        return self._stop - self._start

    def physical_len(self) -> int:
        return len(self)

    def __contains__(self, object_id: int) -> bool:
        return len(self.intersect_rows(self._columns.rows_of([object_id]))) > 0

    def entries(self) -> Iterator[PostingsEntry]:
        """Every entry in id order."""
        rows, ids, sts, ends = self._run()
        self._count(True)
        return zip(ids[rows].tolist(), sts[rows].tolist(), ends[rows].tolist())

    def ids(self) -> List[int]:
        rows, ids, _sts, _ends = self._run()
        self._count(True)
        return ids[rows].tolist()

    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]:
        """Entries overlapping ``[q_st, q_end]``, in id order."""
        rows = self.overlapping_rows(q_st, q_end)
        _rows, ids, sts, ends = self._columns.get()
        return list(zip(ids[rows].tolist(), sts[rows].tolist(), ends[rows].tolist()))

    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        return self._columns.get()[1][self.overlapping_rows(q_st, q_end)].tolist()

    def intersect_sorted(self, sorted_ids: Sequence[int]) -> List[int]:
        """The ids of an ascending candidate list (repeats allowed,
        reported once) that this list holds."""
        if not len(self):
            return []  # nothing to scan meters nothing
        rows = self.intersect_rows(self._columns.rows_of(sorted_ids))
        return self._columns.get()[1][rows].tolist()

    def span(self) -> Tuple[Timestamp, Timestamp]:
        """``[min t_st, max t_end]`` over the run."""
        rows, _ids, sts, ends = self._run()
        if not len(rows):
            raise UnknownObjectError("span() of an empty postings list")
        return int(sts[rows].min()), int(ends[rows].max())

    # ----------------------------------------------------------------- sizes
    def size_bytes(self) -> int:
        """This run's bytes of the rows column."""
        return 4 * len(self)
