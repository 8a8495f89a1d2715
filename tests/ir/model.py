"""The postings tests' reference model, and the layouts they sweep.

A dict of live ``id → (st, end)``, answered in sorted id order: nothing
about tombstones, blocks or columns, so every postings layout is checked
against semantics that cannot share its bugs.  It covers the surface the
harness in ``test_postings_property.py`` compares: ``add`` (overwrite and
revive are one assignment), ``delete`` (``UnknownObjectError`` when not
live), ``len``/``bool``, ``in``, ``entries``, ``ids``, ``overlapping``,
``overlapping_ids``, ``intersect_sorted`` and ``span``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.errors import UnknownObjectError
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import PackedPostingsList


def _spilled() -> PackedPostingsList:
    """A packed list whose columns are Python lists, as after a non-i64
    value arrived: every corner must hold on that path too."""
    postings = PackedPostingsList()
    postings._spill()
    return postings


#: Every mutable layout a corner case runs on; ``list`` is packed's
#: spilled storage.
SWEEP: Dict[str, Callable] = {
    "compressed": CompressedPostingsList,
    "list": _spilled,
    "packed": PackedPostingsList,
}


class PostingsModel:
    def __init__(self) -> None:
        self.live: Dict[int, Tuple] = {}

    def add(self, object_id, st, end) -> None:
        self.live[object_id] = (st, end)

    def delete(self, object_id) -> None:
        if object_id not in self.live:
            raise UnknownObjectError(object_id)
        del self.live[object_id]

    def __len__(self) -> int:
        return len(self.live)

    def __contains__(self, object_id) -> bool:
        return object_id in self.live

    def entries(self) -> List[Tuple]:
        return [(oid, *self.live[oid]) for oid in sorted(self.live)]

    def ids(self) -> List[int]:
        return sorted(self.live)

    def overlapping(self, q_st, q_end) -> List[Tuple]:
        """Closed intervals: ``q_st <= end and st <= q_end``."""
        return [e for e in self.entries() if q_st <= e[2] and e[1] <= q_end]

    def overlapping_ids(self, q_st, q_end) -> List[int]:
        return [entry[0] for entry in self.overlapping(q_st, q_end)]

    def intersect_sorted(self, sorted_ids) -> List[int]:
        """Live ids among the candidates, each once, ascending."""
        return sorted(set(sorted_ids) & self.live.keys())

    def span(self) -> Tuple:
        if not self.live:
            raise UnknownObjectError("span() of an empty postings list")
        entries = self.entries()
        return min(e[1] for e in entries), max(e[2] for e in entries)
