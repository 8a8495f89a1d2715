"""The base temporal inverted file index **tIF** (paper Section 2.2).

The plain inverted index with time-aware postings: no temporal partitioning
at all.  Queries run Algorithm 1 — scan the least frequent query element's
list applying the full overlap predicate, then merge-intersect the remaining
id-sorted lists.  The paper's Slicing and Sharding baselines and our
HINT-based methods all start from this structure.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.ir.inverted import TemporalInvertedFile


class TIF(TemporalIRIndex):
    """Base temporal inverted file (Algorithm 1)."""

    name = "tIF"

    def __init__(self) -> None:
        super().__init__()
        self._tif = TemporalInvertedFile()

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        self._tif.add_object(obj.id, obj.st, obj.end, obj.d)

    def _delete_impl(self, obj: TemporalObject) -> None:
        self._tif.delete_object(obj.id, obj.d)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> "np.ndarray | List[int]":
        ordered = self.order_query_elements(q)
        return self._tif.query(q.st, q.end, ordered)

    def work_bound(self, q: TimeTravelQuery) -> Optional[int]:
        """The query elements' live list lengths, summed: the first scan
        plus every intersection read at most that many entries.
        A pure-temporal query scans the catalog instead, and is unbounded."""
        if q.is_pure_temporal:
            return None
        return sum(self._tif.list_length(element) for element in q.d)

    # -------------------------------------------------------------- inspection
    @property
    def inverted_file(self) -> TemporalInvertedFile:
        """The underlying structure (tests, diagnostics)."""
        return self._tif

    def size_bytes(self) -> int:
        return self._tif.size_bytes()

    def stats(self) -> dict:
        out = super().stats()
        out["postings_entries"] = self._tif.n_entries()
        return out
