"""``cold-tier``: routed queries over a cluster whose bounded shards are cold.

Every bounded shard is demoted to an mmap'd segment and the segment
cache is budgeted below the cold working set, so ``storage``,
``ir.cold``/``ir.codec`` and the router do the work and the hot indexes
little.  Queries are recency-skewed so the cache's miss ratio sits inside
[0.03, 0.20] and repeats exactly for a seed.  The median query is
answered by the hot shard; the slowest percent are not the misses (5 ms)
but scans of frequent terms' cold postings (11–19 ms), which ``mixed``
includes.
``setup_s`` is ``TemporalCluster.open`` of the already-tiered directory.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.cluster import TemporalCluster
from repro.indexes.registry import build_index
from repro.ir.inverted import TemporalInvertedFile
from repro.obs.instruments import cluster_instruments
from repro.obs.registry import isolated_registry
from repro.storage.cache import SegmentCache
from repro.storage.reader import SegmentReader

from benchmarks.ledger import data, quiet
from benchmarks.ledger.spans import Ledger, median_us, self_us
from benchmarks.ledger.workload import Workload, overlapping_ids

#: Queries per pass.
N_QUERIES = 2_250
N_SHARDS = 8
#: A query whose oldest shard is ``age`` shards behind the hot newest one
#: (age 0) is drawn with weight ``SKEW ** -age``.  At the issue's 2, 44 %
#: of the queries touch only the hot shard and the median query sits on
#: the boundary between a hot answer (60 µs) and a cold one (900 µs),
#: where the latency quantiles are steepest: ``p50_us`` then moved 18 %
#: from seed to seed.  At 4 the share is 70 % and the median is a hot
#: answer; the cold 30 % still take 95 % of a pass's time.
SKEW = 4.0
#: Cold segments the cache budget covers (the newest ones).  Tuned once
#: with ``SKEW`` for a miss ratio inside ``MISS_BAND``.
RESIDENT_SEGMENTS = 2
MISS_BAND = (0.03, 0.20)


def create_cluster(directory: Path, coll) -> TemporalCluster:
    return TemporalCluster.create(
        directory, coll, index_key=data.METHOD, index_params=data.PARAMS,
        partitioner="time-range", n_shards=N_SHARDS, n_replicas=1,
        wal_fsync=False, cache_size=0,
    )


def demote_bounded(cluster: TemporalCluster) -> List[Path]:
    """Demote every shard that can be; segment paths, oldest first."""
    return [
        cluster.demote(spec.shard_id) for spec in cluster.table.shards if spec.hi is not None
    ]


def build_tiered(directory: Path, cardinality: int) -> List[Path]:
    """Create the cluster all-hot, then demote; called through ``in_child``."""
    with create_cluster(directory, data.collection(cardinality)) as cluster:
        return demote_bounded(cluster)


class ColdTier(Workload):
    name = "cold-tier"
    pass_seconds = 1.5
    top_rung = "cluster.query"
    n_rungs = 6

    def prepare(self) -> None:
        self.directory = self.cfg.scratch / "cluster"
        self.segments = data.in_child(build_tiered, self.directory, self.cfg.cardinality)
        self.segment_bytes = [path.stat().st_size for path in self.segments]
        self.budget = sum(self.segment_bytes[-RESIDENT_SEGMENTS:])
        with TemporalCluster.open(self.directory, cache_size=0, wal_fsync=False) as cluster:
            table = cluster.table
        # Recency skew: most traffic asks about the recent past.
        ids = table.shard_ids()
        self.queries = data.sample_queries(
            self.coll, self.cfg.seed, N_QUERIES,
            age=lambda q: len(ids) - 1 - ids.index(table.shards_for_query(q)[0].shard_id),
            skew=SKEW,
        )
        self.steps = [("query", q) for q in self.queries]
        self.cluster = None
        #: (hits, misses, evictions) of the segment cache, per timed pass.
        self.cache_passes: List[Tuple[int, int, int]] = []
        self.open_s = 0.0

    def set_up(self) -> None:
        started = time.perf_counter()
        self.cluster = TemporalCluster.open(self.directory, cache_size=0, wal_fsync=False)
        self.cluster.segment_cache.budget_bytes = self.budget
        self.open_s = time.perf_counter() - started

    def tear_down(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def target(self) -> object:
        return self.cluster

    def run_pass(self) -> quiet.Pass:
        cache = self.cluster.segment_cache
        before = cache.stats()
        one = quiet.replay(self.ops)
        after = cache.stats()
        self.cache_passes.append(
            tuple(after[key] - before[key] for key in ("hits", "misses", "evictions"))
        )
        return one

    def warm_up(self) -> quiet.Pass:
        # Fills the cache of a fresh ``open``: its counts are not a pass's.
        return quiet.replay(self.ops)

    def _steady_cache(self) -> Tuple[int, int, int]:
        """One pass's cache counts once the LRU state repeats (the last pass)."""
        return self.cache_passes[-1]

    def notes(self) -> Dict[str, object]:
        hits, misses, _ = self._steady_cache()
        ratio = misses / (hits + misses)
        repeats = len(set(self.cache_passes)) == 1
        out: Dict[str, object] = {
            "queries_per_pass": len(self.steps),
            "shards": len(self.segments) + 1,
            "cold_segments_bytes": self.segment_bytes,
            "segment_cache_budget_bytes": self.budget,
            "segment_cache_miss_ratio": f"{ratio:.4f} (repeats exactly: {repeats})",
        }
        if not MISS_BAND[0] <= ratio <= MISS_BAND[1]:
            out["WARNING"] = f"miss ratio outside {MISS_BAND}: p50/p99 may sit on a mode boundary"
        return out

    # --------------------------------------------------------------- tracing
    def trace(self, ledger: Ledger, top: Sequence[quiet.Pass]) -> Dict[str, float]:
        cluster = self.cluster
        hits, misses, evictions = self._steady_cache()
        top_seconds = sum(quiet.quiet_us(top)) / 1e6  # quiet, like the rungs

        # cluster: the router's own cost, on an all-hot twin of the cluster.
        started = time.perf_counter()
        twin = create_cluster(self.cfg.scratch / "twin", self.coll)
        create_s = time.perf_counter() - started
        try:
            hot_rung = ledger.rung("cluster.query.hot", None, data.bind(twin, self.steps))
            started = time.perf_counter()
            twin_segments = demote_bounded(twin)
            demote_s = time.perf_counter() - started
            segment_mb = sum(path.stat().st_size for path in twin_segments) / 2**20
        finally:
            twin.close()
        index = build_index(data.METHOD, self.coll, **data.PARAMS)
        index_rung = ledger.rung("indexes.query", "cluster.query.hot", data.bind(index, self.steps))
        route_self = self_us(hot_rung, index_rung)

        # storage: the miss cost (open) and the hit cost (resident query).
        opened: List[SegmentReader] = []

        def open_segment(path: Path) -> SegmentReader:
            opened.append(SegmentReader(path))
            return opened[-1]

        def open_pass() -> quiet.Pass:
            one = quiet.replay([(open_segment, path) for path in self.segments])
            while opened:
                opened.pop().close()
            return one

        open_rung = ledger.rung("storage.segment_open", "cluster.query", run_pass=open_pass)
        open_us = median_us(open_rung)
        ids = cluster.table.shard_ids()
        lookups = [
            (self.segments[ids.index(spec.shard_id)], q)
            for q in self.queries
            for spec in cluster.table.shards_for_query(q)
            if spec.hi is not None
        ]
        readers = {path: SegmentReader(path) for path in self.segments}
        try:
            reader_rung = ledger.rung(
                "storage.reader_query", "storage.lease_query",
                [(readers[path].query, q) for path, q in lookups],
            )
        finally:
            for reader in readers.values():
                reader.close()
        # The same lookups through a cache of the workload's budget: the
        # storage layer as the router sees it, misses and all.
        cache = SegmentCache(self.budget)

        def lease_query(lookup):
            with cache.lease(lookup[0]) as reader:
                return reader.query(lookup[1])

        try:
            quiet.replay([(lease_query, lookup) for lookup in lookups])  # reach the steady LRU state
            # Which lookups miss in that state: the LRU order repeats, so one
            # untimed replay tells for all.
            missed = []
            for i, lookup in enumerate(lookups):
                before = cache.stats()["misses"]
                lease_query(lookup)
                if cache.stats()["misses"] > before:
                    missed.append(i)
            lease_rung = ledger.rung(
                "storage.lease_query", "cluster.query",
                [(lease_query, lookup) for lookup in lookups],
            )
        finally:
            cache.close()
        resident_us = quiet.quiet_us(reader_rung)
        leased_us = quiet.quiet_us(lease_rung)
        resident_s = sum(resident_us) / 1e6
        # What a miss costs on top of the same lookup served resident.
        miss_penalty_ms = statistics.median(leased_us[i] - resident_us[i] for i in missed) / 1e3

        # Exact counts: one replay with the metrics registry on.
        with isolated_registry() as registry:
            quiet.replay(self.ops)
            visited = cluster_instruments(registry).shards_visited
            shards_visited = visited.sum / visited.count
            decoded = registry.sample_value("repro_storage_blocks_decoded_total")
            skipped = registry.sample_value("repro_storage_blocks_skipped_total")

        # ir: the rarest-term scan on the compressed backend, whose block
        # codec the cold segments share (only the scanned lists are built).
        dictionary = self.coll.dictionary
        rarest = [min(q.d, key=lambda e: (dictionary.frequency(e), repr(e))) for q in self.queries]
        scanned = set(rarest)
        tif = TemporalInvertedFile(backend="compressed")
        for obj in self.coll.objects():
            tif.add_object(obj.id, obj.st, obj.end, obj.d & scanned)
        tif.compact()
        scan_rung = ledger.rung(
            "ir.compressed_scan", "storage.reader_query",
            [(overlapping_ids, (tif.postings(e), q.st, q.end)) for e, q in zip(rarest, self.queries)],
        )

        n = len(self.queries)
        layers = {
            "ir.compressed_scan_us": median_us(scan_rung),
            "ir.compressed_bytes_per_entry": tif.size_bytes() / tif.n_entries(),
            "indexes.query_us": median_us(index_rung),
            "cluster.create_s": create_s,
            "cluster.open_s": self.open_s,
            "cluster.route_self_us": route_self,
            "cluster.shards_visited": shards_visited,
            "storage.demote_s": demote_s,
            "storage.segment_mb": segment_mb,
            "storage.segment_open_ms": open_us / 1e3,
            "storage.reader_query_us": resident_s / len(lookups) * 1e6,
            "storage.miss_penalty_ms": miss_penalty_ms,
            "storage.cache_hit_ratio": hits / (hits + misses),
            "storage.cache_evictions": float(evictions),
            "storage.blocks_decoded_per_query": decoded / n,
            "storage.blocks_skipped_per_query": skipped / n,
            "storage.resident_mb": cluster.segment_cache.resident_bytes / 2**20,
        }
        # Reconciliation: the storage layer (every cold lookup served
        # resident, plus what the misses cost on top), the hot shard
        # (priced at the whole collection's index, an upper bound) and
        # routing must explain one pass.
        hot_s = sum(
            us
            for us, q in zip(quiet.quiet_us(index_rung), self.queries)
            if cluster.table.shards_for_query(q)[-1].hi is None
        ) / 1e6
        explained = (
            resident_s + len(missed) * miss_penalty_ms / 1e3 + hot_s + n * route_self / 1e6
        )
        residual = (explained - top_seconds) / top_seconds
        print(f"#   reconciliation: {len(lookups)} cold lookups x "
              f"{layers['storage.reader_query_us']:.0f} us resident, {len(missed)} misses x "
              f"{miss_penalty_ms:.2f} ms, hot-shard queries ({hot_s:.3f} s) and routing explain "
              f"{explained:.3f} s of the {top_seconds:.3f} s pass "
              f"(residual {residual:+.1%}, limit 15%)")
        if abs(residual) > 0.15:
            print("#   WARNING: cold-tier rungs do not reconcile with the pass time")
        print(f"#   of a miss's {miss_penalty_ms:.2f} ms, SegmentReader(path) is {open_us / 1e3:.2f} ms; "
              "the rest is first-touch parsing of postings entries in the re-opened segment")
        return layers
