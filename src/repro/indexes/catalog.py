"""The object catalog every index keeps: live id → :class:`TemporalObject`.

A **head** dict holds the caller's objects inserted since the last seal.
The **sealed** part is what unpickling and a bulk load make: id-ordered ``ids``,
``t_st``, ``t_end`` (int64 when every endpoint fits an i64 slot, else the
values) and each description as int32 codes into a first-seen term table,
cut by offsets.  A row is live while its id is in the id → row dict (made
by the first lookup by id), and becomes an object only when asked for,
never stored back.  Pickling writes head and live rows as one id-ordered
column set: the same bytes for the same objects however they arrived.
"""

from __future__ import annotations

import itertools
import pickle
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interval import Timestamp
from repro.core.model import Element, TemporalObject
from repro.ir.blocks import exact_window, overlap_mask
from repro.ir.packed import IdSorted, id_sorted

#: The sealed columns ``(ids, t_st, t_end, terms, runs, offsets)``: bytes, each
#: endpoint column bytes or a list, a tuple of elements, bytes, bytes.
_EMPTY = (b"", b"", b"", (), b"", bytes(8))

_BY_ID = attrgetter("id")


class Codes(dict):
    """Element → code, handing the next code to an element not seen yet."""

    def __missing__(self, element: Element) -> int:
        self[element] = code = len(self)
        return code


def _gather(runs: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``runs[starts[i] : starts[i] + lengths[i]]`` for every ``i``, joined."""
    bases = np.cumsum(lengths) - lengths
    return runs[np.repeat(starts - bases, lengths) + np.arange(int(lengths.sum()))]


def _descriptions(terms: tuple, runs, lengths, order, recode: bool) -> Tuple[tuple, bytes, bytes]:
    """``(terms, runs, offsets)`` as sealed: the descriptions ``runs`` cut by ``lengths``,
    put in ``order`` if any, and then, or if ``recode``, coded first-seen."""
    if order is not None:
        runs = _gather(runs, (np.cumsum(lengths) - lengths)[order], lengths[order])
        lengths = lengths[order]
    if order is not None or recode:
        seen, first = np.unique(runs, return_index=True)
        ranked = seen[np.argsort(first)]
        renumber = np.empty(len(terms), dtype=np.int64)
        renumber[ranked] = np.arange(len(ranked))
        runs, terms = renumber[runs], tuple(terms[code] for code in ranked.tolist())
    offsets = np.concatenate([np.zeros(1, np.int64), np.cumsum(lengths)])
    return terms, runs.astype(np.int32, copy=False).tobytes(), offsets.tobytes()


class Catalog:
    """Live id → :class:`TemporalObject`: a dict head over sealed columns."""

    __slots__ = (
        "_head", "_rows", "_dead", "_sealed", "_ids", "_sts", "_ends", "_terms", "_runs", "_cuts"
    )

    def __init__(self, objects: Sequence[TemporalObject] = ()) -> None:
        self._seal(*_EMPTY)
        self._head = {obj.id: obj for obj in objects}

    def __len__(self) -> int:
        return len(self._head) + len(self._ids) - self._dead

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._head or object_id in self._rows

    def __iter__(self) -> Iterator[int]:
        return itertools.chain(self._rows, self._head)

    def get(self, object_id: int) -> Optional[TemporalObject]:
        row = self._rows.get(object_id)  # a head id never has a row
        if row is None:
            return self._head.get(object_id)
        a, b = self._cuts[row : row + 2].tolist()
        d = frozenset(map(self._terms.__getitem__, self._runs[a:b].tolist()))
        return TemporalObject(self._ids.item(row), self._sts.item(row), self._ends.item(row), d)

    def object_ids(self) -> np.ndarray:
        """The live ids, ascending, as int64."""
        sealed = self._ids[self._live_rows()] if self._dead else self._ids
        if not self._head:
            return sealed
        head = np.fromiter(self._head, dtype=np.int64, count=len(self._head))
        return np.sort(np.concatenate([sealed, head]))

    def objects(self) -> List[TemporalObject]:
        """The live objects in id order (sealed rows made on the spot)."""
        return sorted(itertools.chain(map(self.get, self._rows), self._head.values()), key=_BY_ID)

    def add(self, obj: TemporalObject) -> None:
        """Hold ``obj`` (its id must not be live)."""
        self._head[obj.id] = obj

    def discard(self, object_id: int) -> None:
        """Forget a live id."""
        if self._head.pop(object_id, None) is None:
            del self._rows[object_id]
            self._dead += 1

    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> np.ndarray:
        """Ascending ids of the live objects overlapping ``[q_st, q_end]``."""
        if self._sts.dtype == object:  # Python's exact order, value by value
            mask = (self._sts <= q_end) & (self._ends >= q_st)
        elif (window := exact_window(q_st, q_end)) is not None:
            mask = overlap_mask(self._sts, self._ends, *window)
        else:
            mask = np.zeros(len(self._ids), bool)
        found = self._ids[mask]
        if self._dead:
            found = found[np.isin(found, self._ids[self._live_rows()], assume_unique=True)]
        head = [obj.id for obj in self._head.values() if obj.st <= q_end and q_st <= obj.end]
        return np.sort(np.concatenate([found, np.array(head, dtype=np.int64)])) if head else found

    def pairs(self) -> Tuple[List[Element], np.ndarray, np.ndarray]:
        """``(terms, codes, ids)``: each live (object, element) pair as a code and an id."""
        rows, head = self._live_rows(), list(self._head.values())
        codes, runs, lengths = self._runs_of(rows, head)
        owners = np.concatenate([self._ids[rows], np.fromiter(self._head, np.int64, len(head))])
        return list(codes), runs, np.repeat(owners, lengths)

    # ---------------------------------------------------------------- sealing
    @classmethod
    def sealed(cls, held: IdSorted, terms: Sequence[Element], codes, lengths) -> "Catalog":
        """Sealed rows alone, from a bulk load's columns (``held``, and the
        descriptions in its given order as :attr:`BuildColumns.descriptions`)."""
        catalog = cls.__new__(cls)
        described = _descriptions(tuple(terms), codes, lengths, held.order, False)
        catalog._seal(*(column.tobytes() for column in held[:3]), *described)
        return catalog

    # Head and live rows as one canonical id-ordered column set; the terms pickle
    # apart, so equal elements pickle alike whichever object the catalog holds.
    def __getstate__(self) -> tuple:
        if not self._head and not self._dead:  # the canonical columns, as sealed
            ids, sts, ends, terms, runs, offsets = self._sealed
            return ids, sts, ends, pickle.dumps(terms, pickle.HIGHEST_PROTOCOL), runs, offsets
        rows, head = self._live_rows(), sorted(self._head.values(), key=_BY_ID)
        ids = self._ids[rows].tolist() + [obj.id for obj in head]
        sts = self._sts[rows].tolist() + [obj.st for obj in head]
        ends = self._ends[rows].tolist() + [obj.end for obj in head]
        # The one test the bulk load applies (BuildColumns.by_id).
        held = id_sorted(ids, sts, ends)
        if held is not None:
            order = held.order
            ids, sts, ends = (column.tobytes() for column in held[:3])
        else:  # an endpoint no i64 slot holds: the values themselves
            order = np.argsort(np.array(ids, dtype=np.int64), kind="stable")
            ids = np.array(ids, dtype=np.int64)[order].tobytes()
            sts, ends = ([column[i] for i in order.tolist()] for column in (sts, ends))
        codes, runs, lengths = self._runs_of(rows, head)
        # Coded first-seen, so the bytes depend on the live objects alone:
        # the head's codes extend the sealed ones unless a row was deleted.
        terms, runs, offsets = _descriptions(tuple(codes), runs, lengths, order, self._dead > 0)
        return ids, sts, ends, pickle.dumps(terms, pickle.HIGHEST_PROTOCOL), runs, offsets

    def __setstate__(self, state: tuple) -> None:
        self._seal(*state[:3], pickle.loads(state[3]), *state[4:])

    def _seal(self, *sealed) -> None:
        ids, sts, ends, terms, runs, offsets = self._sealed = sealed
        self._ids = np.frombuffer(ids, dtype=np.int64)
        self._sts, self._ends = (
            np.frombuffer(c, np.int64) if isinstance(c, bytes) else np.array(c, object)
            for c in (sts, ends)
        )
        self._terms = terms
        self._runs = np.frombuffer(runs, dtype=np.int32)
        self._cuts = np.frombuffer(offsets, dtype=np.int64)
        self._dead = 0  # sealed rows discarded
        self._head: Dict[int, TemporalObject] = {}

    def __getattr__(self, name: str) -> Dict[int, int]:
        # Only an unset slot gets here: the id → row dict, made on first use.
        if name != "_rows":
            raise AttributeError(name)
        self._rows = dict(zip(self._ids.tolist(), range(len(self._ids))))
        return self._rows

    def _live_rows(self) -> np.ndarray:
        """The live sealed rows, ascending (the row dict keeps id order)."""
        if not self._dead:
            return np.arange(len(self._ids))
        return np.fromiter(self._rows.values(), dtype=np.int64, count=len(self._rows))

    def _runs_of(self, rows: np.ndarray, head: List[TemporalObject]) -> Tuple[Codes, Any, Any]:
        """Codes that extend the sealed terms; the descriptions of ``rows``
        and then of ``head`` as runs of them, joined; and the runs' lengths."""
        codes = Codes(zip(self._terms, itertools.count()))
        descriptions = [obj.d for obj in head]
        sealed = np.diff(self._cuts)[rows]
        lengths = np.concatenate([sealed, np.fromiter(map(len, descriptions), np.int64, len(head))])
        head_runs = map(codes.__getitem__, itertools.chain.from_iterable(descriptions))
        runs = [_gather(self._runs, self._cuts[rows], sealed), np.fromiter(head_runs, np.int32)]
        return codes, np.concatenate(runs), lengths
