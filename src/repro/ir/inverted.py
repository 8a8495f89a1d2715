"""The base temporal inverted file **tIF** (paper Section 2.2, Algorithm 1).

A tIF maps every dictionary element to a time-aware postings list.  Queries
follow Algorithm 1: order the query elements by ascending frequency, scan the
least frequent element's list applying the temporal overlap predicate, then
shrink the candidate set by merge-intersecting the remaining (id-sorted)
lists.

The performance irHINT (Section 4.1) is this structure plus a time-first
table on its long lists: it replaces the first scan and shares
:meth:`TemporalInvertedFile.intersect`.

Inside a sampled request trace (:mod:`repro.obs.context`) each phase —
the first scan, then every intersection — is recorded as an event carrying
``entries_scanned``, ``candidates_after`` and ``structures_touched``: the
numbers ``explain()`` renders and a daemon trace shows.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.interval import Timestamp
from repro.core.model import Element
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import PostingsBackend
from repro.obs.context import event, tracing_active
from repro.utils.memory import CONTAINER_BYTES


#: ``backend=`` → list class.  Every index builds on ``packed``; only the
#: benchmark ledger's codec probe builds ``compressed``.
_LAYOUTS: Dict[str, Callable[[], PostingsBackend]] = {
    "packed": PackedPostingsList,
    "compressed": CompressedPostingsList,
}


class TemporalInvertedFile:
    """Element → postings-list map with Algorithm 1 querying.

    Lists are :class:`~repro.ir.packed.PackedPostingsList`.
    ``backend="compressed"`` builds them block-compressed instead, for the
    ledger's codec probe; both honour the
    :class:`~repro.ir.postings.PostingsBackend` surface Algorithm 1 reads.
    """

    __slots__ = ("_lists", "_backend")

    def __init__(self, backend: str = "packed") -> None:
        if backend not in _LAYOUTS:
            raise ConfigurationError(
                f"unknown postings backend {backend!r}; "
                f"available: {', '.join(sorted(_LAYOUTS))}"
            )
        self._backend = backend
        self._lists: Dict[Element, PostingsBackend] = {}

    # ---------------------------------------------------------------- updates
    def add_object(
        self, object_id: int, st: Timestamp, end: Timestamp, description: Iterable[Element]
    ) -> None:
        """Add one ``⟨id, st, end⟩`` entry to the list of every element in ``d``."""
        lists = self._lists
        for element in description:
            postings = lists.get(element)
            if postings is None:
                postings = lists[element] = _LAYOUTS[self._backend]()
            postings.add(object_id, st, end)

    def load(self, runs: Iterable[Tuple[Element, PostingsBackend]]) -> None:
        """Fill an empty file with ready-made ``(element, list)`` runs (a
        bulk load), in their order."""
        self._lists.update(runs)

    def delete_object(self, object_id: int, description: Iterable[Element]) -> None:
        """Tombstone the object's entry in every element list of ``d``."""
        for element in description:
            postings = self._lists.get(element)
            if postings is not None and object_id in postings:
                postings.delete(object_id)

    def compact(self) -> None:
        """Compact every postings list (drop tombstones, seal tails).

        Call after a bulk load or a delete burst; answers are unchanged.
        Packed lists drop tombstoned slots; compressed ones also seal
        their uncompressed tail into encoded blocks.
        """
        for postings in self._lists.values():
            postings.compact()

    # ------------------------------------------------------------------ reads
    def postings(self, element: Element) -> Optional[PostingsBackend]:
        """The postings list of ``element`` or ``None``."""
        return self._lists.get(element)

    def elements(self) -> List[Element]:
        """All indexed elements (unspecified order)."""
        return list(self._lists)

    def list_length(self, element: Element) -> int:
        """Live length of an element's list (0 when absent) — the local
        frequency used to order query elements inside a division."""
        postings = self._lists.get(element)
        return len(postings) if postings is not None else 0

    def n_entries(self) -> int:
        """Total live entries across all lists (replication-sensitive size)."""
        return sum(len(postings) for postings in self._lists.values())

    def __len__(self) -> int:
        return len(self._lists)

    def __bool__(self) -> bool:
        return bool(self._lists)

    # ------------------------------------------------------------------ query
    def order_elements_locally(self, elements: Iterable[Element]) -> List[Element]:
        """Order query elements by ascending local list length.

        Inside a division the global dictionary frequencies are a poor proxy,
        so the per-division tIFs of irHINT order by their own list lengths
        (same intent as Algorithm 1 line 2: scan the most selective list
        first).  Deterministic tie-break on ``repr``.
        """
        return sorted(elements, key=lambda e: (self.list_length(e), repr(e)))

    def query(
        self,
        q_st: Timestamp,
        q_end: Timestamp,
        ordered_elements: Sequence[Element],
    ) -> "np.ndarray | List[int]":
        """Algorithm 1: scan the first list, intersect with the rest.

        ``ordered_elements`` must be non-empty and already sorted by
        ascending frequency (global or local — the caller decides which
        applies).  Returns live object ids sorted ascending, unboxed as
        :meth:`intersect` leaves them.  Inside a sampled request trace
        each phase is recorded as an event.
        """
        first = self._lists.get(ordered_elements[0])
        if first is None:
            if tracing_active():
                event(f"scan I[{ordered_elements[0]}] (absent)")
            return []
        candidates: "np.ndarray | List[int]"
        if isinstance(first, PackedPostingsList):
            candidates = first.scan_ids(q_st, q_end)
        else:
            candidates = first.overlapping_ids(q_st, q_end)
        if tracing_active():
            event(
                f"scan I[{ordered_elements[0]}]",
                entries_scanned=len(first),
                candidates_after=len(candidates),
                structures_touched=1,
            )
        return self.intersect(candidates, ordered_elements[1:])

    def intersect(
        self,
        candidates: "np.ndarray | List[int]",
        elements: Sequence[Element],
    ) -> "np.ndarray | List[int]":
        """Algorithm 1 lines 7–9: shrink ascending ``candidates`` by the
        list of each of ``elements`` in turn.

        Candidates that arrive as an int64 array (a kernel-sized packed
        first list) stay one through every packed list whose kernel
        engages and are never boxed: the answer leaves as that array, or
        as a list where a scalar path or a compressed list (which is
        handed a list) took over.
        """
        traced = tracing_active()
        for element in elements:
            if not len(candidates):
                return []
            postings = self._lists.get(element)
            if postings is None:
                if traced:
                    event(f"∩ I[{element}] (absent)")
                return []
            if isinstance(postings, PackedPostingsList):
                candidates = postings.intersect_sorted(candidates)
            else:
                if isinstance(candidates, np.ndarray):
                    candidates = candidates.tolist()
                candidates = postings.intersect_sorted(candidates)
            if traced:
                event(
                    f"∩ I[{element}]",
                    entries_scanned=len(postings),
                    candidates_after=len(candidates),
                    structures_touched=1,
                )
        return candidates

    # ------------------------------------------------------------------ sizes
    def size_bytes(self) -> int:
        """Modelled size: all lists plus the directory overhead."""
        total = CONTAINER_BYTES  # the element directory itself
        for postings in self._lists.values():
            total += postings.size_bytes()
        return total
