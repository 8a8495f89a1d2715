"""A 1D grid over the time domain — the substrate of Slicing (paper §2.2, §6.2).

The domain is divided into ``k`` equal, pairwise-disjoint partitions; every
interval is replicated into each partition it overlaps.  Range queries visit
the partitions overlapping the query interval and discard the duplicates the
replication creates with the **reference value** method [25]: an (object,
query) pair is reported only by the partition containing
``max(o.t_st, q.t_st)``.

This structure is what tIF+Slicing applies to each postings list;
:class:`GridLayout` is the boundary arithmetic ``tif_slicing`` and
``tif_hint_slicing`` share.  A grid is laid over the span it is built for
plus :data:`DOMAIN_SLACK` head-room; an object ending past it makes those
indexes re-slice everything they hold over the grown span, and the
head-room makes the growth geometric, so its cost is amortised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.errors import ConfigurationError
from repro.core.interval import Timestamp

#: Head-room a slicing grid keeps above the span it is laid over, as a
#: share of that span.
DOMAIN_SLACK = 0.25


@dataclass(frozen=True, slots=True)
class GridLayout:
    """Uniform division of ``[lo, hi]`` into ``n_slices`` slices.

    Slice ``i`` covers ``[boundary(i), boundary(i+1))`` with the final slice
    closed on the right; timestamps outside the domain clamp to the edge
    slices (monotone, so replication and reference checks stay consistent).
    """

    lo: Timestamp
    hi: Timestamp
    n_slices: int

    def __post_init__(self) -> None:
        if self.n_slices < 1:
            raise ConfigurationError(f"n_slices must be >= 1, got {self.n_slices}")
        if self.lo > self.hi:
            raise ConfigurationError(f"grid lo {self.lo!r} exceeds hi {self.hi!r}")

    @classmethod
    def spanning(cls, lo: Timestamp, hi: Timestamp, n_slices: int) -> "GridLayout":
        """A grid over ``[lo, hi]`` plus the :data:`DOMAIN_SLACK` head-room."""
        span = hi - lo
        return cls(lo, hi + span * DOMAIN_SLACK if span else hi + 1, n_slices)

    @property
    def width(self) -> float:
        """Slice width (0-length domains behave as width 1)."""
        span = self.hi - self.lo
        return (span / self.n_slices) if span else 1.0

    def slice_of(self, t: Timestamp) -> int:
        """Slice index of a timestamp (clamped)."""
        if t <= self.lo:
            return 0
        if t >= self.hi:
            return self.n_slices - 1
        index = int((t - self.lo) / self.width)
        return min(index, self.n_slices - 1)

    def slice_range(self, st: Timestamp, end: Timestamp) -> Tuple[int, int]:
        """Slices overlapped by ``[st, end]`` (inclusive index range)."""
        return self.slice_of(st), self.slice_of(end)

    def slice_bounds(self, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` bounds of a slice; the last slice's hi is +inf-like."""
        lo = self.lo + index * self.width
        if index == self.n_slices - 1:
            return lo, float("inf")
        return lo, self.lo + (index + 1) * self.width
