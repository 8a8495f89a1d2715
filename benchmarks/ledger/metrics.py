"""The metric catalogue: every name the ledger prints, with unit and direction.

``BENCHMARK.json`` at the repository root is written from these tables
(``python -m benchmarks.ledger calibrate`` prints the bounds to paste);
the smoke test fails when the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: name → the one-line reason the workload exists.
WORKLOADS: Dict[str, str] = {
    "index-query": (
        "in-process build_index + index.query: ir/intervals/indexes do all the work, "
        "serving layers none; index and postings-kernel changes must show here"
    ),
    "daemon-query": (
        "same collection and queries through a serve-net child over TCP: the gap to "
        "index-query is server+service overhead; setup_s is daemon recovery time"
    ),
    "cold-tier": (
        "time-range cluster with every bounded shard demoted and a segment cache smaller "
        "than the working set: storage/ir.cold/ir.codec and the router do the work"
    ),
    "live-ingest": (
        "durable store taking inserts and deletes beside queries on the structures "
        "index-query reads: a read win bought with slower updates shows here"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by (BENCHMARK.json).
    bound: float


#: What a user of the system sees.  One bound per metric: the largest
#: calibrated bound over the four workloads (README, "Measured spreads") —
#: for every timing that is the contract's ceiling, because the reference
#: box runs a fifth slower for minutes at a time.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_s", "ops/s", "higher", 0.25),
    EndToEnd("p50_us", "us", "lower", 0.25),
    EndToEnd("p99_us", "us", "lower", 0.25),
    EndToEnd("rss_mb", "MiB", "lower", 0.05),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end number this layer metric should move (``workload/metric``).
    moves: str


#: One row per rung or count of the traced run.  A traced run prints all
#: of them; those whose layer the workload never reaches read 0.
PER_LAYER: List[PerLayer] = [
    # ---------------------------------------------------------------- ir
    PerLayer("ir.scan_us", "us", "lower", "index-query/ops_s"),
    PerLayer("ir.intersect_us", "us", "lower", "index-query/ops_s"),
    PerLayer("ir.compressed_scan_us", "us", "lower", "cold-tier/ops_s"),
    PerLayer("ir.compressed_bytes_per_entry", "B/entry", "lower", "cold-tier/ops_s"),
    # --------------------------------------------------------- intervals
    PerLayer("intervals.hint_range_us", "us", "lower", "index-query/p50_us"),
    PerLayer("intervals.hint_insert_us", "us", "lower", "live-ingest/p50_us"),
    # ----------------------------------------------------------- indexes
    PerLayer("indexes.build_s", "s", "lower", "index-query/setup_s"),
    PerLayer("indexes.query_us", "us", "lower", "index-query/ops_s"),
    PerLayer("indexes.insert_us", "us", "lower", "live-ingest/ops_s"),
    PerLayer("indexes.delete_us", "us", "lower", "live-ingest/ops_s"),
    PerLayer("indexes.size_mb", "MiB", "lower", "index-query/rss_mb"),
    PerLayer("indexes.results_per_query", "count", "lower", "guards workload drift"),
    # ----------------------------------------------------------- service
    PerLayer("service.query_self_us", "us", "lower", "daemon-query/p50_us"),
    PerLayer("service.query_p50_us", "us", "lower", "live-ingest/ops_s"),
    PerLayer("service.query_p99_us", "us", "lower", "live-ingest/ops_s"),
    PerLayer("service.insert_self_us", "us", "lower", "live-ingest/p50_us"),
    PerLayer("service.wal_bytes_per_op", "B/op", "lower", "live-ingest/p50_us"),
    PerLayer("service.checkpoint_s", "s", "lower", "live-ingest/setup_s"),
    PerLayer("service.snapshot_mb", "MiB", "lower", "live-ingest/setup_s"),
    PerLayer("service.recover_s", "s", "lower", "daemon-query/setup_s"),
    # -------------------------------------------------------------- exec
    PerLayer("exec.batch_self_us", "us", "lower", "daemon-query/ops_s"),
    PerLayer("exec.cache_hit_us", "us", "lower", "daemon-query/ops_s"),
    # ----------------------------------------------------------- cluster
    PerLayer("cluster.create_s", "s", "lower", "cold-tier/setup_s"),
    PerLayer("cluster.open_s", "s", "lower", "cold-tier/setup_s"),
    PerLayer("cluster.route_self_us", "us", "lower", "cold-tier/p50_us"),
    PerLayer("cluster.shards_visited", "count", "lower", "cold-tier/ops_s"),
    # ----------------------------------------------------------- storage
    PerLayer("storage.demote_s", "s", "lower", "cold-tier/setup_s"),
    PerLayer("storage.segment_mb", "MiB", "lower", "cold-tier/rss_mb"),
    PerLayer("storage.segment_open_ms", "ms", "lower", "cold-tier/p99_us"),
    PerLayer("storage.reader_query_us", "us", "lower", "cold-tier/p50_us"),
    PerLayer("storage.miss_penalty_ms", "ms", "lower", "cold-tier/p99_us"),
    PerLayer("storage.cache_hit_ratio", "ratio", "higher", "cold-tier/ops_s"),
    PerLayer("storage.cache_evictions", "count", "lower", "cold-tier/ops_s"),
    PerLayer("storage.blocks_decoded_per_query", "count", "lower", "cold-tier/ops_s"),
    PerLayer("storage.blocks_skipped_per_query", "count", "higher", "cold-tier/ops_s"),
    PerLayer("storage.resident_mb", "MiB", "lower", "cold-tier/rss_mb"),
    # ------------------------------------------------------------ server
    PerLayer("server.start_s", "s", "lower", "daemon-query/setup_s"),
    PerLayer("server.roundtrip_self_us", "us", "lower", "daemon-query/p50_us"),
    PerLayer("server.cpu_us_per_op", "us", "lower", "daemon-query/ops_s"),
    PerLayer("server.bytes_per_response", "B", "lower", "daemon-query/ops_s"),
    PerLayer("server.batch_us_per_query", "us", "lower", "daemon-query/ops_s"),
    PerLayer("server.insert_roundtrip_us", "us", "lower", "daemon-query/ops_s"),
    PerLayer("server.shed_ratio", "ratio", "lower", "daemon-query/ops_s"),
    # ------------------------------------------------------------- trace
    PerLayer("trace.overhead_pct", "%", "lower", "every workload/ops_s"),
]

E2E_UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
LAYER_UNITS: Dict[str, str] = {m.name: m.unit for m in PER_LAYER}
