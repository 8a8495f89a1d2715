"""Online rebalancing: detect hot/oversized shards, split or merge them.

Detection reads two signals: shard object counts (always available from
the live catalogs) and the ``repro_cluster_shard_queries_total`` counter
(when metrics are enabled) — a shard drawing a disproportionate share of
queries is *hot* even if it is not large.  The planner proposes at most
one action per pass:

* **split** the most overloaded shard at a staircase-aligned
  boundary inside its range;
* **merge** the lightest pair of adjacent shards when both are far below
  the mean (keeps the shard count from ratcheting up forever).

Application follows the generation protocol (see ``docs/cluster.md``):
new shards are fully built and checkpointed, the new routing table is
written, and only then does the manifest's atomic replace commit the new
generation.  A crash at any point leaves the manifest naming a complete
generation — old or new, never a mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import ClusterError
from repro.core.interval import Timestamp
from repro.cluster.group import ShardGroup
from repro.cluster.routing import RoutingTable, ShardSpec
from repro.cluster.partitioners import shard_id as make_shard_id
from repro.obs.registry import OBS
from repro.utils.partitioning import staircase_time_boundaries

#: A shard this many times the mean size (or query share) is overloaded.
DEFAULT_SPLIT_FACTOR = 2.0

#: Two adjacent shards jointly below this fraction of the mean merge.
DEFAULT_MERGE_FACTOR = 0.5

#: Never split a shard smaller than this (splitting dust helps nobody).
DEFAULT_MIN_SPLIT_OBJECTS = 16


@dataclass(frozen=True)
class RebalancePlan:
    """One proposed action; ``kind`` is ``split``, ``merge`` or ``none``."""

    kind: str
    shard_ids: List[str] = field(default_factory=list)
    boundary: Optional[Timestamp] = None  # the split point, for splits
    reason: str = ""

    @property
    def is_noop(self) -> bool:
        return self.kind == "none"


def query_share(shard_ids: List[str]) -> Dict[str, float]:
    """Per-shard query counts from the metrics registry (0.0 when off).

    This is the cluster's single heat signal: the rebalancer reads it to
    find overloaded shards and the tiering controller
    (:func:`repro.storage.tiering.plan_tiering`) reads the *same* counter
    to find shards cold enough to demote — cold shards keep counting
    because the router increments per planned shard regardless of tier.
    """
    registry = OBS.registry
    if not registry.enabled:
        return {shard_id: 0.0 for shard_id in shard_ids}
    return {
        shard_id: registry.sample_value(
            "repro_cluster_shard_queries_total", (shard_id,)
        )
        for shard_id in shard_ids
    }


#: Backwards-compatible private alias (pre-tiering callers).
_query_share = query_share


def plan_rebalance(
    table: RoutingTable,
    group: ShardGroup,
    *,
    split_factor: float = DEFAULT_SPLIT_FACTOR,
    merge_factor: float = DEFAULT_MERGE_FACTOR,
    min_split_objects: int = DEFAULT_MIN_SPLIT_OBJECTS,
) -> RebalancePlan:
    """Propose at most one split or merge for the current generation."""
    ordered = sorted(table.shards, key=lambda s: (s.lo is not None, s.lo))
    sizes = {
        spec.shard_id: len(group.replica_set(spec.shard_id).primary_index())
        for spec in ordered
    }
    queries = query_share(list(sizes))
    # Cold shards are immutable segments: splitting or merging one means
    # a full decode + rebuild, which is the tiering controller's job
    # (promote first), not the rebalancer's.
    cold = {
        spec.shard_id
        for spec in ordered
        if getattr(group.replica_set(spec.shard_id), "is_cold", False)
    }
    mean_size = sum(sizes.values()) / len(sizes)
    total_queries = sum(queries.values())
    mean_queries = total_queries / len(queries) if total_queries else 0.0

    # Overload score: worst of the size ratio and the query-share ratio.
    def overload(spec: ShardSpec) -> float:
        size_ratio = sizes[spec.shard_id] / mean_size if mean_size else 0.0
        query_ratio = (
            queries[spec.shard_id] / mean_queries if mean_queries else 0.0
        )
        return max(size_ratio, query_ratio)

    candidates = [
        spec
        for spec in ordered
        if spec.shard_id not in cold
        and overload(spec) >= split_factor
        and sizes[spec.shard_id] >= min_split_objects
    ]
    if candidates:
        victim = max(candidates, key=overload)
        boundary = split_boundary(victim, group)
        if boundary is not None:
            size_ratio = sizes[victim.shard_id] / mean_size if mean_size else 0.0
            return RebalancePlan(
                "split",
                shard_ids=[victim.shard_id],
                boundary=boundary,
                reason=(
                    f"{victim.shard_id} holds {sizes[victim.shard_id]} objects "
                    f"({size_ratio:.1f}× mean) and served "
                    f"{queries[victim.shard_id]:.0f} queries"
                ),
            )

    mergeable = [
        i
        for i in range(len(ordered) - 1)
        if ordered[i].shard_id not in cold and ordered[i + 1].shard_id not in cold
    ]
    if mergeable:
        lightest = min(
            mergeable,
            key=lambda i: sizes[ordered[i].shard_id] + sizes[ordered[i + 1].shard_id],
        )
        pair = ordered[lightest], ordered[lightest + 1]
        combined = sizes[pair[0].shard_id] + sizes[pair[1].shard_id]
        if combined <= merge_factor * mean_size:
            return RebalancePlan(
                "merge",
                shard_ids=[pair[0].shard_id, pair[1].shard_id],
                reason=(
                    f"{pair[0].shard_id}+{pair[1].shard_id} hold only "
                    f"{combined} objects ({mean_size:.0f} mean per shard)"
                ),
            )
    return RebalancePlan("none", reason="no shard is overloaded or underloaded")


def split_boundary(spec: ShardSpec, group: ShardGroup) -> Optional[Timestamp]:
    """A cut strictly inside ``spec``'s range, or None if none exists.

    Prefers a staircase-aligned boundary (via
    :func:`~repro.utils.partitioning.staircase_time_boundaries` over the
    shard's live objects); when every staircase break falls outside the
    range — heavily-overlapping hot bands have almost no breaks — falls
    back to the median in-range start, which still halves the shard's
    population even if it cuts through a few lifespans.
    """

    def inside(boundary: Timestamp) -> bool:
        return (spec.lo is None or boundary > spec.lo) and (
            spec.hi is None or boundary < spec.hi
        )

    objects = group.replica_set(spec.shard_id).primary_index().objects()
    intervals = [(obj.st, obj.end) for obj in objects]
    for boundary in staircase_time_boundaries(intervals, 2):
        if inside(boundary):
            return boundary
    starts = sorted({st for st, _end in intervals if inside(st)})
    if not starts:
        return None
    return starts[len(starts) // 2]


def next_table(table: RoutingTable, plan: RebalancePlan) -> RoutingTable:
    """The successor routing table a plan commits to (generation + 1).

    Surviving shards keep their ids (and directories); the shards a split
    or merge creates are named after the *new* generation, so old and new
    never collide on disk.
    """
    if plan.is_noop:
        raise ClusterError("cannot build a table from a no-op plan")
    generation = table.generation + 1
    ordered = sorted(table.shards, key=lambda s: (s.lo is not None, s.lo))
    specs: List[ShardSpec] = []
    ordinal = 0

    def fresh(lo: Optional[Timestamp], hi: Optional[Timestamp]) -> ShardSpec:
        nonlocal ordinal
        spec = ShardSpec(make_shard_id(generation, ordinal), lo=lo, hi=hi)
        ordinal += 1
        return spec

    if plan.kind == "split":
        (victim_id,) = plan.shard_ids
        if plan.boundary is None:
            raise ClusterError("split plan has no boundary")
        for spec in ordered:
            if spec.shard_id == victim_id:
                specs.append(fresh(spec.lo, plan.boundary))
                specs.append(fresh(plan.boundary, spec.hi))
            else:
                specs.append(spec)
    elif plan.kind == "merge":
        left_id, right_id = plan.shard_ids
        skip_next = False
        for i, spec in enumerate(ordered):
            if skip_next:
                skip_next = False
                continue
            if (
                spec.shard_id == left_id
                and i + 1 < len(ordered)
                and ordered[i + 1].shard_id == right_id
            ):
                specs.append(fresh(spec.lo, ordered[i + 1].hi))
                skip_next = True
            else:
                specs.append(spec)
        if len(specs) != len(ordered) - 1:
            raise ClusterError(
                f"merge plan names non-adjacent shards {plan.shard_ids}"
            )
    else:
        raise ClusterError(f"unknown rebalance kind {plan.kind!r}")
    return RoutingTable(generation, specs, table.n_replicas)
