"""The repository's metric catalog: every instrument name in one place.

Instrumentation sites fetch their bundle through
:meth:`~repro.obs.registry.MetricsRegistry.bundle`, so construction happens
once per registry and the names below are the single source of truth for
``docs/observability.md``.  Buckets: latency histograms use the default
log-scale bounds; the byte-size histogram uses log-scale byte bounds.
"""

from __future__ import annotations

from typing import Tuple

from repro.obs.registry import MetricsRegistry

#: Log-scale byte buckets: 64 B … 4 GiB, ×4 steps.
BYTE_BUCKETS: Tuple[float, ...] = tuple(64.0 * 4.0**i for i in range(14))

#: Log-scale batch-size buckets: 1 … 262 144 queries, ×4 steps.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = tuple(4.0**i for i in range(10))


class QueryInstruments:
    """Aggregate query-path accounting (labelled by index method name)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.queries = registry.counter(
            "repro_queries_total", "Time-travel IR queries answered.", ("index",)
        )
        self.seconds = registry.histogram(
            "repro_query_seconds", "Query latency in seconds.", ("index",)
        )
        self.results = registry.counter(
            "repro_query_results_total",
            "Result object ids returned across all queries.",
            ("index",),
        )
        self.pure_temporal = registry.counter(
            "repro_pure_temporal_queries_total",
            "Queries with an empty element set (q.d = ∅).",
            ("index",),
        )


def query_instruments(registry: MetricsRegistry) -> QueryInstruments:
    return registry.bundle("query", QueryInstruments)


class WalInstruments:
    """Write-ahead-log durability accounting."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.appends = registry.counter(
            "repro_wal_appends_total", "WAL records appended."
        )
        self.bytes_written = registry.counter(
            "repro_wal_bytes_written_total", "Framed WAL bytes written."
        )
        self.append_seconds = registry.histogram(
            "repro_wal_append_seconds",
            "Latency of one durable WAL append (write + flush/fsync).",
        )
        self.fsync_seconds = registry.histogram(
            "repro_wal_fsync_seconds", "Latency of the per-record fsync alone."
        )


def wal_instruments(registry: MetricsRegistry) -> WalInstruments:
    return registry.bundle("wal", WalInstruments)


class SnapshotInstruments:
    """Checkpoint/snapshot accounting."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.written = registry.counter(
            "repro_snapshots_written_total", "Snapshots atomically installed."
        )
        self.pruned = registry.counter(
            "repro_snapshot_files_pruned_total",
            "Snapshot/WAL files removed by retention pruning.",
        )
        self.write_seconds = registry.histogram(
            "repro_snapshot_write_seconds",
            "Latency of one snapshot write (serialise + fsync + rename).",
        )
        self.bytes = registry.gauge(
            "repro_snapshot_bytes", "Size of the most recent snapshot blob."
        )


def snapshot_instruments(registry: MetricsRegistry) -> SnapshotInstruments:
    return registry.bundle("snapshot", SnapshotInstruments)


class RecoveryInstruments:
    """Recovery-ladder step counters (see docs/operations.md)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.runs = registry.counter(
            "repro_recovery_runs_total", "Recovery procedures executed."
        )
        self.snapshots_corrupt = registry.counter(
            "repro_recovery_corrupt_snapshots_total",
            "Snapshot generations skipped because verification failed.",
        )
        self.records_replayed = registry.counter(
            "repro_recovery_records_replayed_total",
            "WAL records applied during replay.",
        )
        self.records_skipped = registry.counter(
            "repro_recovery_records_skipped_total",
            "WAL records skipped as already applied (LSN-covered or no-op).",
        )
        self.torn_tails = registry.counter(
            "repro_recovery_torn_tails_total",
            "Recoveries that dropped a damaged WAL tail.",
        )
        self.degraded = registry.counter(
            "repro_recovery_degraded_total",
            "Recoveries that fell back to the BruteForce rebuild.",
        )


def recovery_instruments(registry: MetricsRegistry) -> RecoveryInstruments:
    return registry.bundle("recovery", RecoveryInstruments)


class StoreInstruments:
    """Durable-store serving accounting."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.mutations = registry.counter(
            "repro_store_mutations_total",
            "Durable mutations applied, by kind.",
            ("kind",),
        )
        self.checkpoints = registry.counter(
            "repro_store_checkpoints_total", "Checkpoints taken."
        )
        self.checkpoint_seconds = registry.histogram(
            "repro_store_checkpoint_seconds",
            "Latency of one checkpoint (snapshot + WAL rotation + prune).",
        )
        self.mutations_since_checkpoint = registry.gauge(
            "repro_store_mutations_since_checkpoint",
            "Mutations accumulated since the last checkpoint.",
        )


def store_instruments(registry: MetricsRegistry) -> StoreInstruments:
    return registry.bundle("store", StoreInstruments)


class ExecInstruments:
    """Batch-executor accounting."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.batches = registry.counter(
            "repro_exec_batches_total",
            "Query batches executed.",
        )
        self.queries = registry.counter(
            "repro_exec_queries_total",
            "Queries submitted through the batch executor.",
        )
        self.deduped = registry.counter(
            "repro_exec_deduped_queries_total",
            "Duplicate queries answered by batch-level deduplication.",
        )
        self.batch_seconds = registry.histogram(
            "repro_exec_batch_seconds",
            "Wall-clock latency of one executed batch.",
        )
        self.batch_size = registry.histogram(
            "repro_exec_batch_size",
            "Queries per submitted batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )


def exec_instruments(registry: MetricsRegistry) -> ExecInstruments:
    return registry.bundle("exec", ExecInstruments)


class CacheInstruments:
    """Result-cache accounting (hits/misses/evictions)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.hits = registry.counter(
            "repro_cache_hits_total", "Result-cache lookups served from cache."
        )
        self.misses = registry.counter(
            "repro_cache_misses_total",
            "Result-cache lookups that missed (absent, or cached at another data version).",
        )
        self.evictions = registry.counter(
            "repro_cache_evictions_total",
            "Entries evicted by the LRU capacity bound.",
        )
        self.entries = registry.gauge(
            "repro_cache_entries", "Live entries in the most recently touched cache."
        )


def cache_instruments(registry: MetricsRegistry) -> CacheInstruments:
    return registry.bundle("cache", CacheInstruments)


#: Linear shards-visited buckets: 1 … 16 shards per query.
SHARD_COUNT_BUCKETS: Tuple[float, ...] = tuple(float(i) for i in range(1, 17))


class ClusterInstruments:
    """Shard-cluster accounting: routing, failover, rebalancing."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.queries = registry.counter(
            "repro_cluster_queries_total",
            "Queries routed through the cluster scatter-gather path.",
        )
        self.shards_visited = registry.histogram(
            "repro_cluster_shards_visited",
            "Shards visited per routed query (broadcast = shard count).",
            buckets=SHARD_COUNT_BUCKETS,
        )
        self.shard_queries = registry.counter(
            "repro_cluster_shard_queries_total",
            "Sub-queries served, by shard (the rebalancer's heat signal).",
            ("shard",),
        )
        self.cross_shard_duplicates = registry.counter(
            "repro_cluster_cross_shard_duplicates_total",
            "Boundary-straddling result ids deduplicated at merge time.",
        )
        self.replica_failovers = registry.counter(
            "repro_cluster_replica_failovers_total",
            "Reads that skipped a dead replica and failed over.",
        )
        self.mutations = registry.counter(
            "repro_cluster_mutations_total",
            "Mutations routed to owning shards, by kind.",
            ("kind",),
        )
        self.mutation_shards = registry.histogram(
            "repro_cluster_mutation_shards",
            "Owning shards touched per routed mutation.",
            buckets=SHARD_COUNT_BUCKETS,
        )
        self.rebalances = registry.counter(
            "repro_cluster_rebalances_total",
            "Routing-generation swaps applied, by kind (split/merge).",
            ("kind",),
        )
        self.routing_generation = registry.gauge(
            "repro_cluster_routing_generation",
            "Committed routing-table generation of the serving cluster.",
        )
        self.shards = registry.gauge(
            "repro_cluster_shards", "Shards in the serving routing table."
        )


def cluster_instruments(registry: MetricsRegistry) -> ClusterInstruments:
    return registry.bundle("cluster", ClusterInstruments)


class ServerInstruments:
    """Network daemon accounting: admission, deadlines, degradation."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_server_requests_total",
            "Requests received by the network daemon, by verb.",
            ("verb",),
        )
        self.request_seconds = registry.histogram(
            "repro_server_request_seconds",
            "End-to-end request latency (admission + execution), by verb.",
            ("verb",),
        )
        self.errors = registry.counter(
            "repro_server_errors_total",
            "Error responses sent, by structured error code.",
            ("code",),
        )
        self.shed = registry.counter(
            "repro_server_shed_total",
            "Requests shed by admission control (queue at capacity).",
        )
        self.deadline_exceeded = registry.counter(
            "repro_server_deadline_exceeded_total",
            "Requests that hit their deadline before completing.",
        )
        self.partial_results = registry.counter(
            "repro_server_partial_results_total",
            "Query responses returned with complete=false.",
        )
        self.connections = registry.counter(
            "repro_server_connections_total", "Client connections accepted."
        )
        self.open_connections = registry.gauge(
            "repro_server_open_connections", "Currently open client connections."
        )
        self.slow_client_closes = registry.counter(
            "repro_server_slow_client_closes_total",
            "Connections closed because a response write timed out.",
        )
        self.inflight = registry.gauge(
            "repro_server_inflight_requests", "Requests currently executing."
        )
        self.queued = registry.gauge(
            "repro_server_queued_requests",
            "Admitted requests waiting for an execution slot.",
        )
        self.bytes_read = registry.counter(
            "repro_server_bytes_read_total", "Framed request bytes read."
        )
        self.bytes_written = registry.counter(
            "repro_server_bytes_written_total", "Framed response bytes written."
        )
        self.drains = registry.counter(
            "repro_server_drains_total",
            "Graceful drains executed (SIGTERM / shutdown verb).",
        )
        self.injected_faults = registry.counter(
            "repro_server_injected_net_faults_total",
            "Network fault actions executed by the injector, by action.",
            ("action",),
        )


def server_instruments(registry: MetricsRegistry) -> ServerInstruments:
    return registry.bundle("server", ServerInstruments)


#: Distinct tenants carried with full fidelity in tenant-labelled families;
#: past this, new tenants collapse into the ``__other__`` overflow bucket
#: (see :class:`~repro.obs.metrics.MetricFamily`).  A chaos run minting
#: hundreds of throwaway tenants therefore cannot explode the registry.
TENANT_LABEL_CAP = 64


class TenantInstruments:
    """Per-tenant serving + SLO accounting (overflow-guarded labels)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.requests = registry.counter(
            "repro_tenant_requests_total",
            "Work requests finished, by tenant and outcome "
            "(ok/partial/error/shed/deadline).",
            ("tenant", "outcome"),
            max_label_sets=TENANT_LABEL_CAP * 5,
            overflow="tenant",
        )
        self.request_seconds = registry.histogram(
            "repro_tenant_request_seconds",
            "End-to-end request latency, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.latency_p50 = registry.gauge(
            "repro_tenant_latency_p50_seconds",
            "Rolling-window p50 request latency, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.latency_p99 = registry.gauge(
            "repro_tenant_latency_p99_seconds",
            "Rolling-window p99 request latency, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.error_rate = registry.gauge(
            "repro_tenant_error_rate",
            "Rolling-window error-response fraction, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.shed_rate = registry.gauge(
            "repro_tenant_shed_rate",
            "Rolling-window admission-shed fraction, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.partial_rate = registry.gauge(
            "repro_tenant_partial_rate",
            "Rolling-window partial-result fraction, by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )
        self.burn_rate = registry.gauge(
            "repro_tenant_slo_burn_rate",
            "Rolling-window SLO-violating fraction over the error budget "
            "(1.0 = burning budget exactly as fast as it accrues), by tenant.",
            ("tenant",),
            max_label_sets=TENANT_LABEL_CAP,
            overflow="tenant",
        )


def tenant_instruments(registry: MetricsRegistry) -> TenantInstruments:
    return registry.bundle("tenant", TenantInstruments)


class TraceInstruments:
    """Distributed-tracing plane accounting."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.sampled = registry.counter(
            "repro_traces_sampled_total",
            "Requests traced by the head-based sampling decision.",
        )
        self.forced = registry.counter(
            "repro_traces_forced_total",
            "Unsampled requests force-captured because they ended in an "
            "error or deadline miss.",
        )
        self.buffer_traces = registry.gauge(
            "repro_trace_buffer_traces",
            "Finished traces currently held in the in-memory buffer.",
        )
        self.buffer_dropped = registry.counter(
            "repro_trace_buffer_dropped_total",
            "Traces evicted from the bounded buffer to make room.",
        )
        self.slow_queries = registry.counter(
            "repro_slow_queries_total",
            "Requests logged by the slow-query log (latency over threshold).",
        )


def trace_instruments(registry: MetricsRegistry) -> TraceInstruments:
    return registry.bundle("dist_trace", TraceInstruments)


class StorageInstruments:
    """Cold-segment tier accounting: writes, serving, cache, tiering."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.segments_written = registry.counter(
            "repro_storage_segments_written_total",
            "Cold segments atomically installed.",
        )
        self.segment_bytes_written = registry.counter(
            "repro_storage_segment_bytes_written_total",
            "Bytes written into installed cold segments.",
        )
        self.segments_open = registry.gauge(
            "repro_storage_segments_open", "Segment readers currently mmap'd."
        )
        self.cold_queries = registry.counter(
            "repro_storage_cold_queries_total",
            "Queries answered from mmap'd segments.",
        )
        self.blocks_decoded = registry.counter(
            "repro_storage_blocks_decoded_total",
            "Term runs of a segment's rows column read on the cold path.",
        )
        self.blocks_skipped = registry.counter(
            "repro_storage_blocks_skipped_total",
            "Term runs skipped: their first and last rows bracket no candidate.",
        )
        self.cache_hits = registry.counter(
            "repro_storage_cache_hits_total",
            "Segment-cache leases served by an already-open reader.",
        )
        self.cache_misses = registry.counter(
            "repro_storage_cache_misses_total",
            "Segment-cache leases that had to mmap the segment.",
        )
        self.cache_evictions = registry.counter(
            "repro_storage_cache_evictions_total",
            "Readers closed by the byte-budget LRU bound.",
        )
        self.cache_bytes = registry.gauge(
            "repro_storage_cache_bytes",
            "Mapped bytes resident in the segment cache.",
        )
        self.demotions = registry.counter(
            "repro_storage_demotions_total",
            "Shards demoted from the hot tier to a cold segment.",
        )
        self.promotions = registry.counter(
            "repro_storage_promotions_total",
            "Shards promoted from a cold segment back to the hot tier.",
        )
        self.cold_shards = registry.gauge(
            "repro_storage_cold_shards", "Shards currently served cold."
        )


def storage_instruments(registry: MetricsRegistry) -> StorageInstruments:
    return registry.bundle("storage", StorageInstruments)


def register_catalog(registry: MetricsRegistry) -> MetricsRegistry:
    """Materialise every family of the catalog (zero-valued).

    ``repro stats --metrics`` uses this so a fresh dump is a complete,
    scrape-parseable document rather than an empty string.
    """
    query_instruments(registry)
    wal_instruments(registry)
    snapshot_instruments(registry)
    recovery_instruments(registry)
    store_instruments(registry)
    exec_instruments(registry)
    cache_instruments(registry)
    cluster_instruments(registry)
    server_instruments(registry)
    tenant_instruments(registry)
    trace_instruments(registry)
    storage_instruments(registry)
    return registry
