"""The partitioner: build a :class:`RoutingTable` generation from data.

``TimeRangePartitioner`` cuts the time domain into contiguous start-time
ranges using the shared staircase machinery of
:mod:`repro.utils.partitioning` — the same greedy pass tIF+Sharding uses
for its ideal shards, lifted one level up so cuts land between object
populations that barely overlap (fewer boundary-straddling duplicates).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.errors import ClusterError
from repro.core.interval import Timestamp
from repro.core.model import TemporalObject
from repro.cluster.routing import RoutingTable, ShardSpec
from repro.utils.partitioning import staircase_time_boundaries


def shard_id(generation: int, ordinal: int) -> str:
    """Shard ids carry the generation that created them (``g0001-s00``) so
    a rebalance can add new shards next to surviving old ones without
    directory collisions."""
    return f"g{generation:04d}-s{ordinal:02d}"


class TimeRangePartitioner:
    """Staircase-aligned, balanced start-time ranges.

    Parameters
    ----------
    n_shards:
        Target shard count; heavy timestamp repetition can yield fewer
        (boundaries collapse), never more.
    n_replicas:
        Replicas per shard the table advertises.
    """

    def __init__(self, n_shards: int = 4, n_replicas: int = 1) -> None:
        if n_shards < 1:
            raise ClusterError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.n_replicas = n_replicas

    def table(
        self, objects: Iterable[TemporalObject], generation: int = 1
    ) -> RoutingTable:
        intervals = [(obj.st, obj.end) for obj in objects]
        boundaries = staircase_time_boundaries(intervals, self.n_shards)
        return self.table_from_boundaries(boundaries, generation)

    def table_from_boundaries(
        self, boundaries: Sequence[Timestamp], generation: int = 1
    ) -> RoutingTable:
        """A table from explicit cut points (used by rebalance split/merge)."""
        edges: List[Optional[Timestamp]] = [None, *boundaries, None]
        specs = [
            ShardSpec(shard_id(generation, i), lo=lo, hi=hi)
            for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
        ]
        return RoutingTable(generation, specs, self.n_replicas)

