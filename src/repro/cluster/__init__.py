"""Time-partitioned shard clusters: partitioning, routing, rebalancing.

The :class:`TemporalCluster` façade is the entry point::

    from repro.cluster import TemporalCluster

    cluster = TemporalCluster.create(path, collection, n_shards=4)
    ids = cluster.query(q)
    cluster.rebalance()

See ``docs/cluster.md`` for the architecture and the crash-consistency
protocol behind routing-generation swaps.
"""

from repro.cluster.cluster import DEFAULT_CACHE_SIZE, TemporalCluster
from repro.cluster.group import ReplicaSet
from repro.cluster.partitioners import TimeRangePartitioner
from repro.cluster.rebalance import RebalancePlan, next_table, plan_rebalance
from repro.cluster.router import ClusterRouter, PartialResult, merge_shard_results
from repro.cluster.routing import TIME_RANGE, RoutingTable, ShardSpec

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "PartialResult",
    "RebalancePlan",
    "ReplicaSet",
    "RoutingTable",
    "ShardSpec",
    "TIME_RANGE",
    "TemporalCluster",
    "TimeRangePartitioner",
    "ClusterRouter",
    "merge_shard_results",
    "next_table",
    "plan_rebalance",
]
