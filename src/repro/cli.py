"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``  synthesise a dataset (synthetic / eclog / wikipedia) to a file
``stats``     print a collection's Table 3 characteristics, or (with
              ``--metrics``) dump the metric catalog / an exported metrics
              file in Prometheus text or JSON; ``--traces`` / ``--slow-log``
              / ``--slo`` read those views live from a serve-net daemon
``build``     build an index over a saved collection; print time and size
``query``     answer one time-travel IR query against a chosen index
``explain``   same, but print the per-phase evaluation trace
``bench``     run one of the paper's experiments (or ``all``)
``recover``   replay a store directory's snapshots + WAL; print a report
``cluster``   shard-cluster operations: build / query / rebalance /
              status (see ``docs/cluster.md``)
``tier``      cold-tier operations: demote / promote / auto / status
              (see ``docs/storage.md``)
``serve-net`` run the resilient asyncio network daemon over a
              multi-tenant root (see ``docs/server.md``); the only server
``client``    talk to a running serve-net daemon: query / insert / delete /
              status / metrics / shutdown / ping
``top``       live per-tenant SLO / daemon health view over a running
              serve-net daemon's ``introspect`` verb
``lint``      run the repro.analysis invariant checks (REP001-REP007)
              over source paths (see ``docs/static-analysis.md``)

A command that fails with a typed ``ReproError`` prints ``error: <message>``
to stderr and exits 1; ``client`` prints a JSON error document instead.

Examples
--------
::

    python -m repro generate --dataset eclog --n 5000 --out /tmp/ec.bin
    python -m repro stats /tmp/ec.bin
    python -m repro stats --metrics --metrics-file /tmp/store.prom
    python -m repro build /tmp/ec.bin --index irhint-perf
    python -m repro query /tmp/ec.bin --index irhint-perf \
        --start 100000 --end 500000 --elements /uri/3,/uri/9
    python -m repro query /tmp/ec.bin --index irhint-perf \
        --batch-file /tmp/workload.jsonl --cache-size 1024
    python -m repro serve-net /tmp/tenants --create acme \
        --trace-sample-rate 0.1 --slow-query-ms 250 --metrics-file /tmp/store.prom
    python -m repro client insert --tenant acme --object-id 1 --start 0 --end 5
    python -m repro client query --tenant acme --start 0 --end 9
    python -m repro client metrics
    python -m repro top --port 7421 --iterations 1
    python -m repro stats --traces --port 7421 --trace-id 7f3a...
    python -m repro stats --slow-log --port 7421 --limit 5
    python -m repro cluster build /tmp/cluster --data /tmp/ec.bin --shards 4
    python -m repro cluster query /tmp/cluster --start 100000 --end 500000
    python -m repro cluster rebalance /tmp/cluster --dry-run
    python -m repro tier demote /tmp/cluster g0001-s00
    python -m repro tier status /tmp/cluster
    python -m repro bench fig8 --scale tiny
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.errors import ReproError
from repro.core.model import make_query
from repro.indexes.registry import available_indexes, build_index
from repro.storage.cache import DEFAULT_SEGMENT_CACHE_BYTES
from repro.utils.timing import timed

_EXPERIMENTS = [
    "table3", "fig7", "fig8", "fig9", "fig10",
    "table5", "fig11", "fig12", "table6", "table7", "all",
]

#: ``repro.bench.config.SCALES``' names: only ``bench`` imports the harness.
_SCALES = ("large", "medium", "small", "tiny")


def _parse_number(text: str) -> float:
    """Accept ints and floats from the command line."""
    value = float(text)
    return int(value) if value.is_integer() else value


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets.eclog import generate_eclog
    from repro.datasets.io import save
    from repro.datasets.synthetic import generate_synthetic
    from repro.datasets.wikipedia import generate_wikipedia

    if args.dataset == "synthetic":
        collection = generate_synthetic(
            cardinality=args.n,
            dict_size=max(2, args.n // 3),
            seed=args.seed,
        )
    elif args.dataset == "eclog":
        collection = generate_eclog(n_sessions=args.n, seed=args.seed)
    else:
        collection = generate_wikipedia(n_revisions=args.n, seed=args.seed)
    save(collection, args.out)
    print(f"wrote {len(collection)} objects to {args.out}")
    return 0


def _metrics_registry(metrics_file: Optional[str]):
    """The registry to dump: a parsed export, or the zero-valued catalog."""
    from repro.obs.exposition import registry_from_prometheus
    from repro.obs.instruments import register_catalog
    from repro.obs.registry import MetricsRegistry

    if metrics_file:
        return registry_from_prometheus(
            Path(metrics_file).read_text(encoding="utf-8")
        )
    return register_catalog(MetricsRegistry(enabled=True))


def _trace_tree_lines(doc: dict, indent: str = "  ") -> List[str]:
    """Render one trace document as an indented span tree."""
    spans = list(doc.get("spans", []))
    known = {s.get("span_id") for s in spans}
    children: dict = {}
    roots: List[dict] = []
    for s in spans:
        parent = s.get("parent_id")
        if parent in known:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    lines = [
        f"trace {doc.get('trace_id')} status={doc.get('status')} "
        f"{doc.get('duration_ms', 0.0):.2f} ms"
        + (" (forced)" if doc.get("forced") else "")
    ]
    attrs = doc.get("attrs") or {}
    if attrs:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        lines.append(f"{indent}{rendered}")

    def walk(span: dict, depth: int) -> None:
        extra = {
            k: v
            for k, v in (span.get("attrs") or {}).items()
        }
        suffix = "".join(f" {k}={v}" for k, v in sorted(extra.items()))
        status = span.get("status", "ok")
        marker = "" if status == "ok" else f" [{status}]"
        lines.append(
            f"{indent * (depth + 1)}{span.get('name')}  "
            f"+{span.get('offset_ms', 0.0):.2f} ms  "
            f"{span.get('duration_ms', 0.0):.2f} ms{marker}{suffix}"
        )
        for child in sorted(
            children.get(span.get("span_id"), []),
            key=lambda s: s.get("offset_ms", 0.0),
        ):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda s: s.get("offset_ms", 0.0)):
        walk(root, 0)
    return lines


def _slo_table_lines(tenants: dict) -> List[str]:
    """Render the per-tenant SLO snapshot as an aligned table."""
    header = (
        f"{'tenant':<20} {'n':>6} {'qps':>7} {'p50ms':>8} {'p99ms':>8} "
        f"{'err%':>6} {'shed%':>6} {'part%':>6} {'ddl%':>6} {'burn':>6}"
    )
    lines = [header]
    for tenant, stats in sorted(tenants.items()):
        lines.append(
            f"{tenant:<20} {stats.get('count', 0):>6} "
            f"{stats.get('qps', 0.0):>7.1f} "
            f"{stats.get('p50_ms', 0.0):>8.2f} {stats.get('p99_ms', 0.0):>8.2f} "
            f"{stats.get('error_rate', 0.0) * 100:>6.1f} "
            f"{stats.get('shed_rate', 0.0) * 100:>6.1f} "
            f"{stats.get('partial_rate', 0.0) * 100:>6.1f} "
            f"{stats.get('deadline_rate', 0.0) * 100:>6.1f} "
            f"{stats.get('burn_rate', 0.0):>6.2f}"
        )
    if not tenants:
        lines.append("(no requests in the window)")
    return lines


def _daemon_stats(args: argparse.Namespace) -> int:
    """The ``stats`` daemon views: traces / slow log / SLOs."""
    import json

    from repro.server import DaemonClient

    with DaemonClient(
        args.host or "127.0.0.1", args.port or 7421, timeout=args.timeout
    ) as client:
        if args.traces:
            view = client.introspect(
                "traces",
                limit=args.limit,
                trace_id=args.trace_id,
                tenant=args.tenant,
                min_duration_ms=args.min_duration_ms,
            )
            if args.format == "json":
                print(json.dumps(view, indent=2, sort_keys=True))
                return 0
            print(
                f"# {view['buffered']} buffered, {view['dropped']} dropped, "
                f"sample rate {view['sample_rate']}"
            )
            for doc in view["traces"]:
                for line in _trace_tree_lines(doc):
                    print(line)
            if not view["traces"]:
                print("(no matching traces buffered)")
            return 0
        if args.slow_log:
            view = client.introspect("slow_log", limit=args.limit)
            if args.format == "json":
                print(json.dumps(view, indent=2, sort_keys=True))
                return 0
            threshold = view.get("threshold_ms")
            print(
                f"# {view['logged']} slow queries logged "
                f"(threshold {threshold} ms)"
            )
            from datetime import datetime, timezone

            for entry in view["entries"]:
                stamp = datetime.fromtimestamp(
                    float(entry.get("ts_utc", 0.0)), tz=timezone.utc
                ).strftime("%Y-%m-%dT%H:%M:%SZ")
                print(
                    f"{stamp}  {entry.get('tenant')}/"
                    f"{entry.get('verb')}  {entry.get('duration_ms', 0.0):.2f} ms  "
                    f"queue {entry.get('queue_wait_ms', 0.0):.2f} ms  "
                    f"lock {entry.get('lock_wait_ms', 0.0):.2f} ms  "
                    f"status={entry.get('status')}  "
                    f"trace={entry.get('trace_id')}"
                )
                for name, ms in sorted((entry.get("phases") or {}).items()):
                    print(f"    {name}: {ms:.2f} ms")
            if not view["entries"]:
                print("(slow-query log is empty)")
            return 0
        # --slo
        view = client.introspect("slo")
        if args.format == "json":
            print(json.dumps(view, indent=2, sort_keys=True))
            return 0
        print(
            f"# horizon {view['horizon_s']}s, latency SLO "
            f"{view['latency_slo_ms']} ms, error budget {view['error_budget']}"
        )
        for line in _slo_table_lines(view["tenants"]):
            print(line)
        return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.traces or args.slow_log or args.slo:
        return _daemon_stats(args)
    if args.host is not None or args.port is not None:
        print(
            "error: --host/--port select a live --traces, --slow-log or --slo "
            "view; for live metrics run `repro client metrics`",
            file=sys.stderr,
        )
        return 2
    if args.metrics or args.metrics_file:
        from repro.obs.exposition import render_json, render_prometheus

        registry = _metrics_registry(args.metrics_file)
        if args.format == "json":
            print(render_json(registry))
        else:
            print(render_prometheus(registry), end="")
        return 0
    if args.data is None:
        print(
            "error: a collection file is required unless --metrics is given",
            file=sys.stderr,
        )
        return 2
    from repro.datasets.io import load
    from repro.datasets.stats import table3_rows

    collection = load(args.data)
    width = max(len(label) for label, _v in table3_rows(collection))
    for label, value in table3_rows(collection):
        print(f"{label:<{width}}  {value}")
    return 0


def _source(args: argparse.Namespace):
    """The collection ``args.data`` names, and ``args.index``'s parameters."""
    from repro.bench.tuned import tuned
    from repro.datasets.io import load

    return load(args.data), (tuned(args.index) if args.tuned else {})


def _build(args: argparse.Namespace):
    snapshot = getattr(args, "snapshot", None)
    if snapshot:
        from repro.indexes.persistence import load_index

        with timed() as watch:
            index = load_index(snapshot)
        return None, index, watch.elapsed
    collection, params = _source(args)
    with timed() as watch:
        index = build_index(args.index, collection, **params)
    return collection, index, watch.elapsed


def _cmd_build(args: argparse.Namespace) -> int:
    _collection, index, seconds = _build(args)
    print(f"built {args.index} in {seconds:.3f}s")
    for key, value in index.stats().items():
        print(f"  {key}: {value}")
    if args.save:
        from repro.indexes.persistence import save_index

        save_index(index, args.save)
        print(f"snapshot written to {args.save}")
    return 0


def _make_query_from_args(args: argparse.Namespace):
    if args.start is None or args.end is None:
        raise SystemExit("error: --start and --end are required (unless --batch-file)")
    elements = [e for e in (args.elements or "").split(",") if e]
    return make_query(args.start, args.end, set(elements))


def _cmd_query(args: argparse.Namespace) -> int:
    if args.batch_file:
        return _cmd_query_batch(args)
    _collection, index, _seconds = _build(args)
    q = _make_query_from_args(args)
    with timed() as watch:
        result = index.query(q)
    ms = watch.elapsed * 1000
    print(f"{len(result)} results in {ms:.2f} ms")
    limit = args.limit if args.limit > 0 else len(result)
    print(result[:limit].tolist())
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    """Run a saved workload as one batch through the executor."""
    from repro.exec import QueryExecutor
    from repro.queries.io import load_queries

    queries = load_queries(args.batch_file)
    if not queries:
        print(f"error: {args.batch_file} holds no queries", file=sys.stderr)
        return 2
    _collection, index, _seconds = _build(args)
    executor = QueryExecutor(index, cache_size=args.cache_size)
    results = executor.run(queries)
    report = executor.last_report
    assert report is not None
    print(report.summary())
    total_ids = sum(len(r) for r in results)
    print(f"{total_ids} result ids across the batch")
    if executor.cache is not None:
        cache = executor.cache.stats()
        print(
            f"cache: {cache['entries']}/{cache['capacity']} entries, "
            f"{cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['evictions']} evictions"
        )
    limit = args.limit if args.limit > 0 else len(results)
    for q, result in list(zip(queries, results))[:limit]:
        elements = ",".join(sorted(str(e) for e in q.d))
        print(f"  [{q.st}, {q.end}] {{{elements}}}: {len(result)} ids")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.indexes.explain import explain as explain_query

    _collection, index, _seconds = _build(args)
    print(explain_query(index, _make_query_from_args(args)).render())
    return 0


#: Counters printed by ``repro recover`` (and asserted on by its tests).
_RECOVERY_COUNTERS = (
    "repro_recovery_runs_total",
    "repro_recovery_corrupt_snapshots_total",
    "repro_recovery_records_replayed_total",
    "repro_recovery_records_skipped_total",
    "repro_recovery_torn_tails_total",
    "repro_recovery_degraded_total",
)


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.obs.registry import isolated_registry
    from repro.service.recovery import recover
    from repro.service.store import DurableIndexStore

    with isolated_registry() as registry:
        report = recover(args.directory)
        for line in report.summary_lines():
            print(line)
        print("recovery counters:")
        for name in _RECOVERY_COUNTERS:
            print(f"  {name} {int(registry.sample_value(name))}")
    if args.checkpoint:
        with DurableIndexStore.open(args.directory) as store:
            path = store.checkpoint()
            print(f"checkpointed recovered state to {path.name}")
    return 0


def _cmd_cluster_build(args: argparse.Namespace) -> int:
    from repro.cluster import TemporalCluster

    collection, params = _source(args)
    with timed() as watch:
        cluster = TemporalCluster.create(
            args.directory,
            collection,
            index_key=args.index,
            index_params=params,
            n_shards=args.shards,
            n_replicas=args.replicas,
            wal_fsync=not args.no_fsync,
        )
    with cluster:
        print(
            f"built {args.shards}-shard time-range cluster "
            f"({args.replicas} replicas) over {len(collection)} objects "
            f"in {watch.elapsed:.3f}s"
        )
        for line in cluster.status_lines():
            print(line)
    return 0


def _cmd_cluster_query(args: argparse.Namespace) -> int:
    from repro.cluster import TemporalCluster

    with TemporalCluster.open(
        args.directory, wal_fsync=not args.no_fsync
    ) as cluster:
        if args.batch_file:
            from repro.queries.io import load_queries

            queries = load_queries(args.batch_file)
            if not queries:
                print(f"error: {args.batch_file} holds no queries", file=sys.stderr)
                return 2
            with timed() as watch:
                results = [cluster.query(q) for q in queries]
            total = sum(len(r) for r in results)
            print(
                f"{len(queries)} queries in "
                f"{watch.elapsed * 1000:.2f} ms; {total} result ids"
            )
            limit = args.limit if args.limit > 0 else len(results)
            for q, result in list(zip(queries, results))[:limit]:
                elements = ",".join(sorted(str(e) for e in q.d))
                print(f"  [{q.st}, {q.end}] {{{elements}}}: {len(result)} ids")
            return 0
        q = _make_query_from_args(args)
        planned = cluster.router.plan(q)
        with timed() as watch:
            result = cluster.query(q)
        print(
            f"{len(result)} results in {watch.elapsed * 1000:.2f} ms "
            f"({len(planned)}/{len(cluster.table.shards)} shards: "
            f"{', '.join(planned)})"
        )
        limit = args.limit if args.limit > 0 else len(result)
        print(result[:limit].tolist())
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.cluster import TemporalCluster

    with TemporalCluster.open(args.directory, wal_fsync=True) as cluster:
        for line in cluster.status_lines():
            print(line)
    return 0


def _cmd_cluster_rebalance(args: argparse.Namespace) -> int:
    from repro.cluster import TemporalCluster

    thresholds = {
        "split_factor": args.split_factor,
        "merge_factor": args.merge_factor,
        "min_split_objects": args.min_split_objects,
    }
    with TemporalCluster.open(
        args.directory, wal_fsync=not args.no_fsync
    ) as cluster:
        if args.dry_run:
            plan = cluster.plan_rebalance(**thresholds)
            print(f"plan: {plan.kind} ({plan.reason})")
            if not plan.is_noop:
                print(f"  shards: {', '.join(plan.shard_ids)}")
                if plan.boundary is not None:
                    print(f"  boundary: {plan.boundary}")
            return 0
        plan = cluster.rebalance(**thresholds)
        if plan.is_noop:
            print(f"nothing to do: {plan.reason}")
        else:
            print(
                f"applied {plan.kind} of {', '.join(plan.shard_ids)} "
                f"→ generation {cluster.table.generation} "
                f"({len(cluster.table.shards)} shards)"
            )
            print(f"  reason: {plan.reason}")
    return 0


def _cmd_tier(args: argparse.Namespace) -> int:
    from repro.cluster import TemporalCluster

    with TemporalCluster.open(
        args.directory, wal_fsync=not args.no_fsync,
        segment_cache_bytes=args.segment_cache_bytes,
    ) as cluster:
        command = args.tier_command
        if command == "demote":
            segment = cluster.demote(args.shard_id)
            print(
                f"demoted {args.shard_id} → {segment} "
                f"({segment.stat().st_size} bytes)"
            )
        elif command == "promote":
            cluster.promote(args.shard_id)
            print(f"promoted {args.shard_id} back to the hot tier")
        elif command == "auto":
            plan = cluster.auto_tier()
            if plan.is_noop:
                print(f"nothing to do: {plan.reason}")
            else:
                print(f"applied: {plan.reason}")
        else:  # status
            tiers = cluster.stats()["tiers"]
            print(f"tiers: {tiers['hot']} hot, {tiers['cold']} cold")
            for stats in cluster.tier_status():
                if stats.get("tier") == "cold":
                    print(
                        f"  {stats['shard_id']}: cold, {stats['objects']} objects, "
                        f"{stats['segment_bytes']} segment bytes"
                    )
                else:
                    print(
                        f"  {stats['shard_id']}: hot, {stats['objects']} objects, "
                        f"{stats['live_replicas']}/{stats['replicas']} replicas live"
                    )
            cache = cluster.segment_cache.stats()
            print(
                f"segment cache: {cache['resident_bytes']}/{cache['budget_bytes']} "
                f"bytes resident, {cache['hits']} hits, {cache['misses']} misses, "
                f"{cache['evictions']} evictions"
            )
    return 0


def _cmd_serve_net(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.exposition import render_prometheus
    from repro.obs.instruments import register_catalog
    from repro.obs.registry import OBS, MetricsRegistry, set_registry
    from repro.server import QueryDaemon, ServerConfig, TenantRegistry

    metrics_file = args.metrics_file
    previous_registry = None
    if metrics_file:
        previous_registry = set_registry(
            register_catalog(MetricsRegistry(enabled=True))
        )
    try:
        registry = TenantRegistry.open_root(
            args.root, wal_fsync=not args.no_fsync
        )
        for name in args.create or []:
            if name not in registry:
                registry.create_store_tenant(
                    name, index_key=args.index, wal_fsync=not args.no_fsync
                )
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            default_deadline_ms=args.default_deadline_ms,
            max_deadline_ms=args.max_deadline_ms,
            write_timeout=args.write_timeout,
            drain_timeout=args.drain_timeout,
            retry_after_ms=args.retry_after_ms,
            trace_sample_rate=args.trace_sample_rate,
            trace_buffer=args.trace_buffer,
            trace_seed=args.trace_seed,
            slow_query_ms=(
                args.slow_query_ms if args.slow_query_ms >= 0 else None
            ),
            slow_log_path=args.slow_log_path,
        )

        async def serve() -> dict:
            daemon = QueryDaemon(registry, config)
            await daemon.start()
            # Parseable by harnesses driving an ephemeral port (--port 0).
            print(
                f"# serving {len(registry)} tenant(s) "
                f"[{', '.join(registry.names()) or '(none)'}]"
            )
            print(f"# listening on {config.host}:{daemon.port}", flush=True)
            report = await daemon.run_until_drained()
            print(
                f"# drained: {report['in_flight_at_drain']} in flight, "
                f"{report['abandoned']} abandoned"
            )
            return report

        asyncio.run(serve())
        if metrics_file:
            Path(metrics_file).write_text(
                render_prometheus(OBS.registry), encoding="utf-8"
            )
    finally:
        if previous_registry is not None:
            set_registry(previous_registry)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.server import DaemonClient, ServerError, TransportError
    from repro.utils.retry import RetryPolicy

    policy = RetryPolicy(max_attempts=max(1, args.retries + 1))
    with DaemonClient(
        args.host, args.port, timeout=args.timeout, retry=policy
    ) as client:
        try:
            verb = args.client_verb
            kwargs = {"deadline_ms": args.deadline_ms}
            if verb == "query":
                result = client.query(
                    args.tenant, args.start, args.end,
                    [e for e in args.elements.split(",") if e], **kwargs,
                )
            elif verb == "insert":
                result = client.insert(
                    args.tenant, args.object_id, args.start, args.end,
                    [e for e in args.elements.split(",") if e], **kwargs,
                )
            elif verb == "delete":
                result = client.delete(args.tenant, args.object_id, **kwargs)
            elif verb == "status":
                result = client.status()
            elif verb == "metrics":
                print(client.metrics()["body"], end="")
                return 0
            elif verb == "shutdown":
                result = client.shutdown()
            else:  # ping
                result = client.ping()
        except ServerError as exc:
            print(
                json.dumps({"error": {"code": exc.code, "message": str(exc)}}),
                file=sys.stderr,
            )
            return 1
        except TransportError as exc:
            print(json.dumps({"error": {"code": "transport", "message": str(exc)}}),
                  file=sys.stderr)
            return 1
    # Answers arrive as int64 arrays; the document lists their ids.
    print(json.dumps(result, indent=2, sort_keys=True, default=lambda ids: ids.tolist()))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live per-tenant SLO / daemon health view (``repro top``)."""
    import time as time_mod

    from repro.server import DaemonClient

    with DaemonClient(args.host, args.port, timeout=args.timeout) as client:
        iteration = 0
        while True:
            view = client.introspect("top")
            daemon = view["daemon"]
            if iteration:
                print()
            print(
                f"daemon {args.host}:{args.port}  "
                f"executing={daemon['executing']} waiting={daemon['waiting']} "
                f"connections={daemon['open_connections']} "
                f"draining={daemon['draining']}"
            )
            print(
                f"traces buffered={daemon['traces_buffered']} "
                f"dropped={daemon['traces_dropped']} "
                f"sample_rate={daemon['sample_rate']} "
                f"slow_queries={daemon['slow_queries']} "
                f"(threshold {daemon['slow_query_ms']} ms)"
            )
            for line in _slo_table_lines(view["tenants"]):
                print(line)
            sys.stdout.flush()
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            try:
                time_mod.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import importlib

    name = args.experiment
    module = importlib.import_module(f"repro.bench.experiments.{name}")
    module.run(scale=args.scale, seed=args.seed)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_paths, rule_catalog

    catalog = rule_catalog()
    if args.list_rules:
        for code, rule in catalog.items():
            print(f"{code}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0
    rules = None
    if args.rules:
        selected = []
        for code in args.rules.split(","):
            code = code.strip().upper()
            if code not in catalog:
                print(
                    f"unknown rule {code!r}; available: "
                    f"{', '.join(catalog)}",
                    file=sys.stderr,
                )
                return 2
            selected.append(catalog[code])
        rules = selected
    paths = args.paths or ["src"]
    report = analyze_paths(paths, rules)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast indexing for temporal information retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesise a dataset to a file")
    p.add_argument("--dataset", choices=["synthetic", "eclog", "wikipedia"], required=True)
    p.add_argument("--n", type=int, default=5000, help="number of objects")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help=".jsonl or binary path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "stats",
        help="Table 3 characteristics of a collection, or metric dumps",
    )
    p.add_argument("data", nargs="?", help="collection file (.jsonl or binary)")
    p.add_argument(
        "--metrics", action="store_true",
        help="dump the metric catalog instead of collection statistics",
    )
    p.add_argument(
        "--metrics-file",
        help="render this exported Prometheus text file (implies --metrics)",
    )
    p.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus",
        help="metric / view exposition format (default: prometheus text)",
    )
    daemon_group = p.add_argument_group(
        "live daemon views (require a running serve-net daemon)"
    )
    daemon_group.add_argument(
        "--host", default=None, help="daemon host (default 127.0.0.1)"
    )
    daemon_group.add_argument(
        "--port", type=int, default=None, help="daemon port (default 7421)"
    )
    daemon_group.add_argument("--timeout", type=float, default=5.0)
    daemon_group.add_argument(
        "--traces", action="store_true",
        help="print buffered distributed traces as indented span trees",
    )
    daemon_group.add_argument(
        "--slow-log", action="store_true",
        help="print the daemon's slow-query log",
    )
    daemon_group.add_argument(
        "--slo", action="store_true",
        help="print the per-tenant SLO window snapshot",
    )
    daemon_group.add_argument(
        "--trace-id", help="with --traces: only this trace"
    )
    daemon_group.add_argument(
        "--tenant", help="with --traces: only this tenant's traces"
    )
    daemon_group.add_argument(
        "--limit", type=int, default=None, help="entries to fetch (default 20)"
    )
    daemon_group.add_argument(
        "--min-duration-ms", type=float, default=None,
        help="with --traces: only traces at least this slow",
    )
    p.set_defaults(func=_cmd_stats)

    def add_index_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("data", help="collection file")
        p.add_argument("--index", choices=available_indexes(), default="irhint-perf")
        p.add_argument(
            "--tuned",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="apply the paper's tuned parameters (default: yes)",
        )
        p.add_argument(
            "--snapshot", help="load this index snapshot instead of building"
        )

    p = sub.add_parser("build", help="build an index; print time and stats")
    add_index_args(p)
    p.add_argument("--save", help="write an index snapshot to this path")
    p.set_defaults(func=_cmd_build)

    for name, func, help_ in (
        ("query", _cmd_query, "answer one time-travel IR query"),
        ("explain", _cmd_explain, "trace one query's evaluation"),
    ):
        p = sub.add_parser(name, help=help_)
        add_index_args(p)
        single = p.add_argument_group("single query")
        single.add_argument(
            "--start", type=_parse_number, help="query interval start"
        )
        single.add_argument("--end", type=_parse_number, help="query interval end")
        single.add_argument("--elements", default="", help="comma-separated q.d")
        if name == "query":
            p.add_argument("--limit", type=int, default=20, help="ids to print (0 = all)")
            batch = p.add_argument_group("batched execution (repro.exec)")
            batch.add_argument(
                "--batch-file",
                help="JSONL query workload (repro.queries.io) to run as one batch",
            )
            batch.add_argument(
                "--cache-size", type=int, default=0,
                help="keep an LRU result cache of this capacity",
            )
        p.set_defaults(func=func)

    p = sub.add_parser("recover", help="recover a store directory; print a report")
    p.add_argument("directory", help="store directory")
    p.add_argument(
        "--checkpoint", action="store_true",
        help="write a fresh snapshot of the recovered state",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser(
        "cluster", help="shard-cluster operations (build/query/rebalance/status)"
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)

    def add_cluster_dir(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("directory", help="cluster directory")
        cp.add_argument(
            "--no-fsync", action="store_true",
            help="skip per-record WAL fsync in the shard stores",
        )

    cp = cluster_sub.add_parser("build", help="partition a collection into shards")
    add_cluster_dir(cp)
    cp.add_argument("--data", required=True, help="collection file to partition")
    cp.add_argument("--index", choices=available_indexes(), default="irhint-perf")
    cp.add_argument(
        "--tuned",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="apply the paper's tuned parameters (default: yes)",
    )
    cp.add_argument("--shards", type=int, default=4, help="number of shards")
    cp.add_argument("--replicas", type=int, default=1, help="replicas per shard")
    cp.set_defaults(func=_cmd_cluster_build)

    cp = cluster_sub.add_parser("query", help="scatter-gather a query (or a batch)")
    add_cluster_dir(cp)
    cp.add_argument("--start", type=_parse_number, help="query interval start")
    cp.add_argument("--end", type=_parse_number, help="query interval end")
    cp.add_argument("--elements", default="", help="comma-separated q.d")
    cp.add_argument("--limit", type=int, default=20, help="ids to print (0 = all)")
    cp.add_argument(
        "--batch-file", help="JSONL query workload to run as one batch"
    )
    cp.set_defaults(func=_cmd_cluster_query)

    cp = cluster_sub.add_parser(
        "rebalance", help="split a hot shard or merge cold neighbours"
    )
    add_cluster_dir(cp)
    cp.add_argument("--dry-run", action="store_true", help="plan only, do not apply")
    cp.add_argument("--split-factor", type=float, default=2.0)
    cp.add_argument("--merge-factor", type=float, default=0.5)
    cp.add_argument("--min-split-objects", type=int, default=16)
    cp.set_defaults(func=_cmd_cluster_rebalance)

    cp = cluster_sub.add_parser("status", help="print routing table and shard health")
    add_cluster_dir(cp)
    cp.set_defaults(func=_cmd_cluster_status)

    p = sub.add_parser(
        "tier", help="cold-tier operations (demote/promote/auto/status)"
    )
    tier_sub = p.add_subparsers(dest="tier_command", required=True)

    def add_tier_dir(tp: argparse.ArgumentParser) -> None:
        tp.add_argument("directory", help="cluster directory")
        tp.add_argument(
            "--no-fsync", action="store_true",
            help="skip per-record WAL fsync in the shard stores",
        )
        tp.add_argument(
            "--segment-cache-bytes", type=int,
            default=DEFAULT_SEGMENT_CACHE_BYTES,
            help="byte budget for resident cold segments",
        )

    tp = tier_sub.add_parser(
        "demote", help="freeze one hot shard into an mmap-served segment"
    )
    add_tier_dir(tp)
    tp.add_argument("shard_id", help="shard to demote")
    tp.set_defaults(func=_cmd_tier)

    tp = tier_sub.add_parser(
        "promote", help="rebuild one cold shard's durable hot replicas"
    )
    add_tier_dir(tp)
    tp.add_argument("shard_id", help="shard to promote")
    tp.set_defaults(func=_cmd_tier)

    tp = tier_sub.add_parser(
        "auto", help="plan from query heat and apply every movement"
    )
    add_tier_dir(tp)
    tp.set_defaults(func=_cmd_tier)

    tp = tier_sub.add_parser("status", help="per-shard tier and cache view")
    add_tier_dir(tp)
    tp.set_defaults(func=_cmd_tier)

    p = sub.add_parser(
        "serve-net",
        help="run the resilient asyncio network daemon over a tenant root",
    )
    p.add_argument("root", help="tenant root directory (created if missing)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421, help="0 = ephemeral")
    p.add_argument(
        "--create", action="append", metavar="NAME",
        help="create this empty store tenant if missing (repeatable)",
    )
    p.add_argument("--index", choices=available_indexes(), default="irhint-perf")
    p.add_argument("--max-inflight", type=int, default=8)
    p.add_argument("--max-queue", type=int, default=16)
    p.add_argument("--default-deadline-ms", type=int, default=2000)
    p.add_argument("--max-deadline-ms", type=int, default=60000)
    p.add_argument("--write-timeout", type=float, default=5.0)
    p.add_argument("--drain-timeout", type=float, default=10.0)
    p.add_argument("--retry-after-ms", type=int, default=50)
    p.add_argument(
        "--no-fsync", action="store_true",
        help="skip per-record WAL fsync in tenant stores",
    )
    p.add_argument(
        "--metrics-file",
        help="enable metrics; export Prometheus text here after the drain",
    )
    p.add_argument(
        "--trace-sample-rate", type=float, default=0.01,
        help="head-based trace sampling rate in [0, 1] (default 0.01; "
        "errors and deadline misses are always captured)",
    )
    p.add_argument(
        "--trace-buffer", type=int, default=256,
        help="in-memory trace ring capacity served by introspect",
    )
    p.add_argument(
        "--trace-seed", type=int, default=None,
        help="seed the sampling RNG (deterministic traces for tests)",
    )
    p.add_argument(
        "--slow-query-ms", type=float, default=500.0,
        help="slow-query log threshold; 0 logs every request, negative disables",
    )
    p.add_argument(
        "--slow-log-path",
        help="also append slow-query/event JSONL records to this file",
    )
    p.set_defaults(func=_cmd_serve_net)

    p = sub.add_parser("client", help="talk to a serve-net daemon")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument("--retries", type=int, default=3, help="retry attempts after the first")
    p.add_argument("--deadline-ms", type=int, default=None)
    client_sub = p.add_subparsers(dest="client_verb", required=True)
    for verb in ("ping", "status", "metrics", "shutdown"):
        client_sub.add_parser(verb)
    cq = client_sub.add_parser("query")
    cq.add_argument("--tenant", required=True)
    cq.add_argument("--start", type=_parse_number, required=True)
    cq.add_argument("--end", type=_parse_number, required=True)
    cq.add_argument("--elements", default="", help="comma-separated q.d")
    ci = client_sub.add_parser("insert")
    ci.add_argument("--tenant", required=True)
    ci.add_argument("--object-id", type=int, required=True)
    ci.add_argument("--start", type=_parse_number, required=True)
    ci.add_argument("--end", type=_parse_number, required=True)
    ci.add_argument("--elements", default="", help="comma-separated elements")
    cd = client_sub.add_parser("delete")
    cd.add_argument("--tenant", required=True)
    cd.add_argument("--object-id", type=int, required=True)
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser(
        "top", help="live per-tenant SLO / daemon health view over introspect"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument(
        "--interval", type=float, default=2.0, help="seconds between refreshes"
    )
    p.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many refreshes (0 = until interrupted)",
    )
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser("bench", help="run a paper experiment")
    p.add_argument("experiment", choices=_EXPERIMENTS)
    p.add_argument("--scale", choices=_SCALES, default="small")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "lint",
        help="run the repro.analysis invariant checks (REP001-REP007)",
    )
    p.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: src)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--rules",
        help="comma-separated rule codes to run (default: all)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog with rationales and exit",
    )
    p.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (also used directly by tests)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
