"""Time-aware postings lists (paper Section 2.2): the shared surface.

A postings list ``I[e]`` stores one ``⟨o.id, [o.t_st, o.t_end]⟩`` entry per
object whose description contains element ``e``.  Entries are kept ordered by
object id — the standard IR layout that makes merge intersections possible
(Algorithm 1).  Every index stores them in
:class:`~repro.ir.packed.PackedPostingsList`, flat columns that are the
closest CPython analogue of the paper's packed C++ arrays;
:class:`PostingsBackend` is the surface it shares with the block layouts
(:mod:`repro.ir.compressed`, :mod:`repro.ir.cold`).

Deletions are *logical*: a tombstone flag marks an entry dead and scans skip
it, exactly the strategy the paper adopts in Section 5.5 ("we place
tombstones for a logical deletion").
"""

from __future__ import annotations

from typing import Iterator, List, Protocol, Tuple

from repro.core.interval import Timestamp

#: One materialised postings entry.
PostingsEntry = Tuple[int, Timestamp, Timestamp]


class PostingsBackend(Protocol):
    """The full ⟨id, st, end⟩ postings surface.

    ``packed``, ``compressed`` and the read-only ``cold`` view answer every
    method here alike (the property harness in ``tests/ir`` checks them
    against one in-test model); ``cold`` refuses the updates.
    """

    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None: ...
    def delete(self, object_id: int) -> None: ...
    def __len__(self) -> int: ...
    def __contains__(self, object_id: int) -> bool: ...
    def physical_len(self) -> int: ...
    def entries(self) -> Iterator[PostingsEntry]: ...
    def ids(self) -> List[int]: ...
    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]: ...
    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]: ...
    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]: ...
    def span(self) -> Tuple[Timestamp, Timestamp]: ...
    def size_bytes(self) -> int: ...
    def compact(self) -> None: ...
