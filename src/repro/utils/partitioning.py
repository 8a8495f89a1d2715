"""Shared partitioning primitives: staircase chains and time boundaries.

Two layers of the system partition temporal data and both lean on the
same greedy *staircase* pass:

* :class:`~repro.indexes.tif_sharding.TIFSharding` decomposes each
  postings list into ideal shards — maximal chains in which entries
  sorted by ``t_st`` also have non-decreasing ``t_end`` (the staircase
  property), so a query scans one contiguous stretch per chain;
* the cluster layer's ``TimeRangePartitioner``
  (:mod:`repro.cluster.partitioners`) cuts the *time domain* into shard
  ranges.  Cutting where the staircase breaks — where a freshly started
  object ends before everything currently open — puts the cut between
  two populations of objects that rarely overlap, so fewer objects
  straddle a shard boundary and cross-shard de-duplication stays cheap.

The chain decomposition is the classic patience pass: chains are kept
ordered by strictly decreasing last ``t_end`` and each entry goes to the
first chain able to take it, found by binary search.  The number of
chains produced is minimal (Dilworth: it equals the maximum number of
entries that pairwise violate the staircase order).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.interval import Timestamp


def staircase_chain_assignment(ends: Sequence[Timestamp]) -> List[int]:
    """Greedy first-fit chain index for each entry, in input order.

    ``ends`` are the ``t_end`` values of entries **already sorted by
    ``(t_st, id)``** — the caller owns that ordering.  Returns one chain
    index per entry; chain ``k`` is created the first time index ``k``
    appears, so chain indexes are dense and first-seen-ordered (the
    property :func:`chain_break_positions` and the tIF+Sharding shard
    builder both rely on).
    """
    # Minus the last end per chain, strictly increasing: the first chain
    # whose last end is <= end is the first whose negation is >= -end.
    tops: List[Timestamp] = []
    assignment: List[int] = []
    for end in ends:
        chain = bisect_left(tops, -end)
        if chain == len(tops):
            tops.append(-end)
        else:
            tops[chain] = -end
        assignment.append(chain)
    return assignment


def chain_break_positions(assignment: Sequence[int]) -> List[int]:
    """Positions that opened a *new* chain (excluding position 0).

    These are the staircase breaks: the entry at such a position ends
    before every chain's current last end, i.e. a short-lived newcomer
    that overlaps none of the open staircases' tails.
    """
    breaks: List[int] = []
    seen = -1
    for position, chain in enumerate(assignment):
        if chain > seen:
            seen = chain
            if position:
                breaks.append(position)
    return breaks


def quantile_boundaries(values: Sequence[Timestamp], n_parts: int) -> List[Timestamp]:
    """Up to ``n_parts - 1`` cut points splitting sorted ``values`` evenly.

    ``values`` must be sorted ascending.  Each returned boundary is one of
    the input values; duplicates (from heavy value repetition) are
    collapsed, so fewer than ``n_parts - 1`` boundaries can come back.
    A boundary ``b`` means "everything ``>= b`` goes right", so boundaries
    equal to the minimum value are dropped (they would leave an empty
    left part).
    """
    if n_parts < 1:
        raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
    if not values or n_parts == 1:
        return []
    n = len(values)
    boundaries: List[Timestamp] = []
    for k in range(1, n_parts):
        value = values[min(n - 1, (k * n) // n_parts)]
        if value > values[0] and (not boundaries or value > boundaries[-1]):
            boundaries.append(value)
    return boundaries


def staircase_time_boundaries(
    intervals: Sequence[Tuple[Timestamp, Timestamp]], n_parts: int
) -> List[Timestamp]:
    """Time-domain cut points for ``n_parts`` shards, staircase-aligned.

    Quantile targets over the interval starts give balanced shard sizes;
    each target is then snapped to the nearest *staircase break* (see
    :func:`chain_break_positions`) within half a part's width, so cuts
    fall between object populations that barely overlap.  Targets with no
    break nearby keep their quantile value — balance wins over alignment.

    Returns strictly increasing boundaries; ``boundary b`` means objects
    starting at ``t >= b`` belong to the right-hand shard.
    """
    if n_parts < 1:
        raise ConfigurationError(f"n_parts must be >= 1, got {n_parts}")
    if not intervals or n_parts == 1:
        return []
    ordered = sorted(intervals)
    starts = [st for st, _end in ordered]
    targets = quantile_boundaries(starts, n_parts)
    if not targets:
        return []
    assignment = staircase_chain_assignment([end for _st, end in ordered])
    break_starts = sorted({starts[i] for i in chain_break_positions(assignment)})
    span = starts[-1] - starts[0]
    tolerance = span / (2 * n_parts) if span else 0
    boundaries: List[Timestamp] = []
    for target in targets:
        snapped = _nearest(break_starts, target)
        value = target
        if snapped is not None and abs(snapped - target) <= tolerance:
            value = snapped
        if value > starts[0] and (not boundaries or value > boundaries[-1]):
            boundaries.append(value)
    return boundaries


def _nearest(sorted_values: List[Timestamp], target: Timestamp) -> Optional[Timestamp]:
    """The element of ``sorted_values`` closest to ``target`` (ties: lower)."""
    if not sorted_values:
        return None
    from bisect import bisect_left

    pos = bisect_left(sorted_values, target)
    candidates = sorted_values[max(0, pos - 1) : pos + 1]
    return min(candidates, key=lambda v: abs(v - target))
