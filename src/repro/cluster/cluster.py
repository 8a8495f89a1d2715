"""The cluster façade: a durable, rebalancing group of index shards.

:class:`TemporalCluster` composes the pieces of this package — a
versioned :class:`~repro.cluster.routing.RoutingTable`, one
:class:`~repro.cluster.group.ReplicaSet` of durable replicas per shard,
and the :class:`~repro.cluster.router.ClusterRouter` that holds both —
behind the same query/insert/delete surface a single index exposes, plus
:meth:`rebalance`.

Every path that makes a generation — :meth:`create`, :meth:`rebalance`,
:meth:`demote`, :meth:`promote` — builds what it needs, commits, and then
serves what it built through a new router; only :meth:`open` recovers
stores from disk.

Generation swaps are wait-free for readers: :meth:`query` grabs the
current router once (one attribute read) and a query caught mid-swap on
a just-closed store fails over and retries against the fresh router, so
rebalancing never drops queries.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.collection import Collection
from repro.core.errors import ClusterError
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.cluster import layout
from repro.cluster.group import ReplicaSet, open_replica
from repro.cluster.partitioners import TimeRangePartitioner
from repro.cluster.rebalance import (
    RebalancePlan,
    next_table,
    plan_rebalance,
)
from repro.cluster.router import ClusterRouter, PartialResult
from repro.cluster.routing import TIME_RANGE, RoutingTable
from repro.obs.registry import OBS
from repro.service.fsio import REAL_FS, FileSystem
from repro.storage import tiering
from repro.storage.cache import DEFAULT_SEGMENT_CACHE_BYTES, SegmentCache
from repro.storage.tiering import TieringPlan
from repro.storage.writer import write_segment
from repro.utils.locks import make_lock

PathLike = Union[str, Path]

#: Default per-shard result-cache capacity.
DEFAULT_CACHE_SIZE = 256


class TemporalCluster:
    """Time-partitioned, replicated shards with scatter-gather serving.

    Use :meth:`create` to lay a new cluster down on disk or :meth:`open`
    to recover an existing one; both return a serving cluster.
    """

    def __init__(
        self,
        directory: Path,
        router: ClusterRouter,
        *,
        index_key: str,
        index_params: Dict[str, object],
        cache_size: int,
        wal_fsync: bool,
        fs: FileSystem,
        segment_cache: Optional[SegmentCache] = None,
        tier_state: Optional[tiering.TierState] = None,
    ) -> None:
        self._directory = Path(directory)
        self._router = router
        self._index_key = index_key
        self._index_params = index_params
        self._cache_size = cache_size
        self._wal_fsync = wal_fsync
        self._fs = fs
        self._swap_lock = make_lock("cluster.swap")
        self._closed = False
        self._segments = segment_cache or SegmentCache()
        self._tier_state = tier_state or tiering.TierState()
        # Recovered cold shards were built before this cluster object
        # existed; wire their write-triggered promotion hook now.
        for replica_set in router.replica_sets.values():
            if isinstance(replica_set, tiering.ColdShard):
                replica_set._on_promote = self._promote_for_write
        self._set_gauges()

    # --------------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls,
        directory: PathLike,
        collection: Collection,
        *,
        index_key: str = "irhint-perf",
        index_params: Optional[Dict[str, object]] = None,
        partitioner: str = TIME_RANGE,
        n_shards: int = 4,
        n_replicas: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        wal_fsync: bool = True,
        fs: FileSystem = REAL_FS,
        segment_cache_bytes: int = DEFAULT_SEGMENT_CACHE_BYTES,
    ) -> "TemporalCluster":
        """Partition ``collection``, build every shard, commit generation 1.

        The cluster serves the replica sets it built: nothing it has just
        written is read back.
        """
        directory = Path(directory)
        if layout.is_cluster_dir(directory):
            raise ClusterError(f"{directory}: already a cluster directory")
        # Kept for benchmarks/ledger/wl_cold_tier.py, which passes it.
        if partitioner != TIME_RANGE:
            raise ClusterError(
                f"unknown partitioner {partitioner!r}; only {TIME_RANGE!r} exists"
            )
        table = TimeRangePartitioner(n_shards, n_replicas).table(
            collection, generation=1
        )
        directory.mkdir(parents=True, exist_ok=True)
        params = dict(index_params or {})
        built = _open_shards(
            directory,
            table.n_replicas,
            _place(table, table.shard_ids(), collection.objects()),
            index_key=index_key,
            index_params=params,
            wal_fsync=wal_fsync,
            fs=fs,
            cache_size=cache_size,
        )
        try:
            layout.write_routing_table(directory, table, fs=fs)
            layout.write_manifest(
                directory, table.generation, index_key=index_key,
                index_params=params, fs=fs,
            )
        except BaseException:
            for replica_set in built.values():
                replica_set.close()
            raise
        return cls(
            directory,
            ClusterRouter(table, built),
            index_key=index_key,
            index_params=params,
            cache_size=cache_size,
            wal_fsync=wal_fsync,
            fs=fs,
            segment_cache=SegmentCache(segment_cache_bytes),
        )

    @classmethod
    def open(
        cls,
        directory: PathLike,
        *,
        cache_size: int = DEFAULT_CACHE_SIZE,
        wal_fsync: bool = True,
        fs: FileSystem = REAL_FS,
        segment_cache_bytes: int = DEFAULT_SEGMENT_CACHE_BYTES,
    ) -> "TemporalCluster":
        """Recover the committed generation; sweep mid-rebalance leftovers.

        Tier-aware: the committed ``tiers.json`` decides which shards are
        served cold.  The sweep removes whichever artefact a crashed
        demotion/promotion stranded on its non-committed side — an
        uncommitted segment file, or a committed-cold shard's stale hot
        directories — so every shard comes back servable from exactly one
        tier.
        """
        directory = Path(directory)
        manifest = layout.read_manifest(directory)
        table = layout.read_routing_table(directory, int(manifest["generation"]))  # type: ignore[arg-type]
        state = tiering.read_tier_state(directory)
        cold_map = tiering.validate_cold_map(directory, table, state)
        cold_names = {shard_id: path.name for shard_id, path in cold_map.items()}
        layout.prune_orphans(directory, table, cold=cold_names)
        if cold_names != state.cold:
            # Entries for shards a committed rebalance replaced: fold the
            # pruned view back into the commit point.
            state = tiering.TierState(cold=cold_names)
            tiering.write_tier_state(directory, state, fs=fs)
        index_key = str(manifest["index_key"])
        index_params = dict(manifest.get("index_params") or {})  # type: ignore[arg-type]
        segment_cache = SegmentCache(segment_cache_bytes)
        cold_shards = tiering.open_cold_shards(
            cold_map, segment_cache, cache_size=cache_size
        )
        hot_sets = _open_shards(
            directory,
            table.n_replicas,
            {
                shard_id: None
                for shard_id in table.shard_ids()
                if shard_id not in cold_shards
            },
            index_key=index_key,
            index_params=index_params,
            wal_fsync=wal_fsync,
            fs=fs,
            cache_size=cache_size,
        )
        return cls(
            directory,
            ClusterRouter(table, {**cold_shards, **hot_sets}),
            index_key=index_key,
            index_params=index_params,
            cache_size=cache_size,
            wal_fsync=wal_fsync,
            fs=fs,
            segment_cache=segment_cache,
            tier_state=state,
        )

    def close(self) -> None:
        if not self._closed:
            for replica_set in self._router.replica_sets.values():
                replica_set.close()
            self._segments.close()
            self._closed = True

    def __enter__(self) -> "TemporalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- serving
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def router(self) -> ClusterRouter:
        """The current-generation router (atomic snapshot read)."""
        return self._router

    @property
    def table(self) -> RoutingTable:
        return self._router.table

    def query(self, q: TimeTravelQuery) -> np.ndarray:
        """Scatter-gather one query through :meth:`query_partial` (so it
        retries once across a generation swap); an incomplete answer raises
        the first refusing shard's own :class:`ShardUnavailableError`."""
        result = self.query_partial(q)
        if result.unavailable:
            raise result.unavailable[0]
        return result.ids

    def query_partial(
        self, q: TimeTravelQuery, deadline: Optional[float] = None
    ) -> "PartialResult":
        """Deadline-aware scatter-gather (see :meth:`ClusterRouter.query_partial`).

        An incomplete answer caught mid-generation-swap retries once
        against the fresh router — swap-induced store closures must not
        masquerade as dead shards.
        """
        router = self._router
        result = router.query_partial(q, deadline)
        if not result.complete and self._router is not router:
            return self._router.query_partial(q, deadline)
        return result

    def insert(self, obj: TemporalObject) -> None:
        self._router.insert(obj)

    def delete(self, obj: Union[TemporalObject, int]) -> None:
        self._router.delete(obj)

    def __len__(self) -> int:
        return len(self._router)

    # -------------------------------------------------------------- rebalancing
    def plan_rebalance(self, **thresholds: float) -> RebalancePlan:
        """Inspect the current generation; propose (don't apply) one action."""
        return plan_rebalance(self._router, **thresholds)

    def rebalance(self, plan: Optional[RebalancePlan] = None, **thresholds: float) -> RebalancePlan:
        """Apply ``plan`` (or plan one now); swap in the next generation.

        Protocol — every step before the manifest write is invisible to a
        crash-recovering :meth:`open`:

        1. build + checkpoint the shards the plan creates (new dirs);
        2. durably write ``routing-<gen+1>.json``;
        3. **commit**: atomically replace ``cluster.json``;
        4. swap the in-process router (readers retry across the swap);
        5. close and remove the replaced shards' directories.
        """
        with self._swap_lock:
            old = self._router
            if plan is None:
                plan = plan_rebalance(old, **thresholds)
            if plan.is_noop:
                return plan
            new_table = next_table(old.table, plan)
            survivors = {
                spec.shard_id: old.replica_sets[spec.shard_id]
                for spec in new_table.shards
                if spec.shard_id in old.replica_sets
            }
            created = [
                spec.shard_id
                for spec in new_table.shards
                if spec.shard_id not in survivors
            ]
            replaced = [
                shard_id
                for shard_id in old.table.shard_ids()
                if shard_id not in survivors
            ]
            cold = [shard_id for shard_id in replaced if old.replica_sets[shard_id].is_cold]
            if cold:
                # The planner's own rule: a segment is rebuilt by promotion.
                raise ClusterError(
                    f"{', '.join(cold)}: cold shards cannot be split or merged; "
                    f"promote first"
                )
            objects = _collect_objects(old, replaced)
            new_sets = self._build(_place(new_table, created, objects))
            layout.write_routing_table(self._directory, new_table, fs=self._fs)
            # The commit point: after this replace, open() recovers the new
            # generation; before it, the old one.
            layout.write_manifest(
                self._directory,
                new_table.generation,
                index_key=self._index_key,
                index_params=self._index_params,
                fs=self._fs,
            )
            self._router = ClusterRouter(new_table, {**survivors, **new_sets})
            for shard_id in replaced:
                old.replica_sets[shard_id].close()
                shard_path = layout.shard_dir(self._directory, shard_id)
                if shard_path.exists():
                    shutil.rmtree(shard_path)
            self._count_rebalance(plan)
            self._set_gauges()
            return plan

    # ------------------------------------------------------------------ tiering
    @property
    def segment_cache(self) -> SegmentCache:
        return self._segments

    @property
    def tier_state(self) -> tiering.TierState:
        return self._tier_state

    def plan_tiering(self, **thresholds) -> TieringPlan:
        """Heat-driven tier proposal (propose, don't apply)."""
        return tiering.plan_tiering(self._router, **thresholds)

    def auto_tier(self, **thresholds) -> TieringPlan:
        """Plan from query heat and apply every proposed movement."""
        plan = self.plan_tiering(**thresholds)
        for shard_id in plan.promote:
            self.promote(shard_id)
        for shard_id in plan.demote:
            self.demote(shard_id)
        return plan

    def demote(self, shard_id: str) -> Path:
        """Demote one hot shard to an immutable cold segment.

        Protocol — mirror of :meth:`rebalance`, with ``tiers.json`` as the
        commit point:

        1. write + atomically install ``segments/<shard>.seg`` (the full
           shard: catalog columns and each term's run of catalog rows);
        2. **commit**: atomically replace ``tiers.json`` naming the segment;
        3. swap the in-process router to one serving the shard cold;
        4. close the replica stores and remove the shard's hot directories.

        A crash before step 2 leaves an orphan segment (swept on open, the
        shard stays hot); after it, stale hot directories (swept on open,
        the shard comes back cold).
        """
        with self._swap_lock:
            replica_set = self._router.replica_set(shard_id)
            if getattr(replica_set, "is_cold", False):
                raise ClusterError(f"{shard_id}: already cold")
            objects = replica_set.primary_index().objects()
            segment_path = layout.segment_path(self._directory, shard_id)
            write_segment(
                segment_path,
                objects,
                shard_id=shard_id,
                index_key=self._index_key,
                index_params=self._index_params,
                fs=self._fs,
            )
            state = tiering.TierState(
                cold={**self._tier_state.cold, shard_id: segment_path.name}
            )
            tiering.write_tier_state(self._directory, state, fs=self._fs)
            # Committed: everything below is repaired by open() if we die.
            cold_shard = tiering.ColdShard(
                shard_id,
                segment_path,
                self._segments,
                cache_size=self._cache_size,
                on_promote=self._promote_for_write,
            )
            self._swap_shard(shard_id, cold_shard)
            self._tier_state = state
            replica_set.close()
            shard_path = layout.shard_dir(self._directory, shard_id)
            if shard_path.exists():
                shutil.rmtree(shard_path)
            self._count_tiering("demote")
            self._set_gauges()
            return segment_path

    def promote(self, shard_id: str):
        """Promote one cold shard back to durable hot replicas.

        Inverse protocol: rebuild + checkpoint every replica from the
        segment, **commit** by rewriting ``tiers.json`` without the shard,
        swap the router, then drop the segment.  A crash before the commit
        leaves half-built replica directories (swept on open — the shard
        is still committed-cold); after it, an orphan segment (swept on
        open, the shard is hot).
        """
        with self._swap_lock:
            replica_set = self._router.replica_set(shard_id)
            if not getattr(replica_set, "is_cold", False):
                raise ClusterError(f"{shard_id}: not a cold shard")
            return self._promote_locked(shard_id, replica_set)

    def _promote_locked(self, shard_id: str, cold_shard):
        segment_path = cold_shard.segment_path
        with self._segments.lease(segment_path) as reader:
            objects = reader.objects()
        new_set = self._build({shard_id: objects})[shard_id]
        state = tiering.TierState(
            cold={
                other: name
                for other, name in self._tier_state.cold.items()
                if other != shard_id
            }
        )
        tiering.write_tier_state(self._directory, state, fs=self._fs)
        # Committed: the shard is hot even if we die before the cleanup.
        self._swap_shard(shard_id, new_set)
        self._tier_state = state
        cold_shard.retire_to(new_set)
        self._segments.discard(segment_path)
        segment_path.unlink(missing_ok=True)
        self._count_tiering("promote")
        self._set_gauges()
        return new_set

    def _promote_for_write(self, shard_id: str):
        """The cold shard's write hook: promote (or find) the hot tier.

        Two racing writers both land here; the second finds the shard
        already hot and just gets the replica set back.
        """
        with self._swap_lock:
            replica_set = self._router.replica_set(shard_id)
            if not getattr(replica_set, "is_cold", False):
                return replica_set
            return self._promote_locked(shard_id, replica_set)

    def _swap_shard(self, shard_id: str, replacement) -> None:
        """Install a new serving object for one shard (lock held).

        Same table, same generation — only the tier of one shard changed —
        so this swaps the router exactly like a rebalance does and readers
        caught mid-swap retry against the fresh router.
        """
        old = self._router
        self._router = ClusterRouter(
            old.table, {**old.replica_sets, shard_id: replacement}
        )

    def _build(
        self, shards: Dict[str, List[TemporalObject]]
    ) -> Dict[str, ReplicaSet]:
        """Build + checkpoint the replicas of new shards (rebalance, promote)."""
        return _open_shards(
            self._directory,
            self.table.n_replicas,
            shards,
            index_key=self._index_key,
            index_params=self._index_params,
            wal_fsync=self._wal_fsync,
            fs=self._fs,
            cache_size=self._cache_size,
        )

    def tier_status(self) -> List[Dict[str, object]]:
        """One entry per shard: tier, object count, and byte footprint."""
        return self._router.shard_stats()

    # ---------------------------------------------------------------- replicas
    def kill_replica(self, shard_id: str, replica: int) -> None:
        """Fault injection: take one replica of a hot shard out."""
        self._router.replica_set(shard_id).kill(replica)

    def revive_replica(self, shard_id: str, replica: int) -> None:
        """Rebuild a dead replica from a live peer and rejoin it."""
        self._router.replica_set(shard_id).revive(
            replica,
            layout.replica_dir(self._directory, shard_id, replica),
            index_key=self._index_key,
            index_params=self._index_params,
            wal_fsync=self._wal_fsync,
            fs=self._fs,
        )

    # ----------------------------------------------------------------- metrics
    def _count_tiering(self, kind: str) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import storage_instruments

            instruments = storage_instruments(registry)
            if kind == "demote":
                instruments.demotions.inc()
            else:
                instruments.promotions.inc()

    def _count_rebalance(self, plan: RebalancePlan) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cluster_instruments

            cluster_instruments(registry).rebalances.labels(plan.kind).inc()

    def _set_gauges(self) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cluster_instruments, storage_instruments

            instruments = cluster_instruments(registry)
            instruments.routing_generation.set(self.table.generation)
            instruments.shards.set(len(self.table.shards))
            storage_instruments(registry).cold_shards.set(
                len(self._tier_state.cold)
            )

    # -------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, object]:
        """Cluster-level diagnostics plus one entry per shard."""
        cold = len(self._tier_state.cold)
        return {
            "directory": str(self._directory),
            "generation": self.table.generation,
            "shards": len(self.table.shards),
            "replicas_per_shard": self.table.n_replicas,
            "objects": len(self),
            "index_key": self._index_key,
            "tiers": {"hot": len(self.table.shards) - cold, "cold": cold},
            "segment_cache": self._segments.stats(),
            "shard_stats": self._router.shard_stats(),
        }

    def status_lines(self) -> List[str]:
        """Human-readable ``cluster status`` output."""
        out = [f"cluster at {self._directory} ({self._index_key})"]
        out.extend(self.table.describe())
        for stats in self._router.shard_stats():
            if stats.get("tier") == "cold":
                out.append(
                    f"  {stats['shard_id']}: {stats['objects']} objects, "
                    f"cold ({stats['segment_bytes']} segment bytes)"
                )
            else:
                out.append(
                    f"  {stats['shard_id']}: {stats['objects']} objects, "
                    f"{stats['live_replicas']}/{stats['replicas']} replicas live"
                )
        return out


def _collect_objects(
    router: ClusterRouter, shard_ids: List[str]
) -> List[TemporalObject]:
    """Distinct live objects held by ``shard_ids`` (boundary dedup)."""
    seen: Dict[int, TemporalObject] = {}
    for shard_id in shard_ids:
        for obj in router.replica_set(shard_id).primary_index().objects():
            seen[obj.id] = obj
    return [seen[object_id] for object_id in sorted(seen)]


def _place(
    table: RoutingTable, shard_ids: List[str], objects: Sequence[TemporalObject]
) -> Dict[str, List[TemporalObject]]:
    """Each of ``shard_ids`` with the subset of ``objects`` its spec claims."""
    placed: Dict[str, List[TemporalObject]] = {}
    for shard_id in shard_ids:
        spec = table.spec(shard_id)
        placed[shard_id] = [obj for obj in objects if spec.overlaps(obj.st, obj.end)]
    return placed


def _open_shards(
    directory: Path,
    n_replicas: int,
    shards: Mapping[str, Optional[Sequence[TemporalObject]]],
    *,
    index_key: str,
    index_params: Dict[str, object],
    wal_fsync: bool,
    fs: FileSystem,
    cache_size: int,
) -> Dict[str, ReplicaSet]:
    """One open :class:`ReplicaSet` per shard of ``shards``.

    Every replica goes through :func:`~repro.cluster.group.open_replica`
    in its own WAL/snapshot directory: a shard given objects is
    bootstrapped (and checkpointed) from them, one given ``None`` recovers
    whatever its directories hold.
    """
    sets: Dict[str, ReplicaSet] = {}
    for shard_id, objects in shards.items():
        collection = None if objects is None else Collection(objects)
        stores = [
            open_replica(
                layout.replica_dir(directory, shard_id, replica),
                collection,
                index_key=index_key,
                index_params=index_params,
                wal_fsync=wal_fsync,
                fs=fs,
            )
            for replica in range(n_replicas)
        ]
        sets[shard_id] = ReplicaSet(shard_id, stores, cache_size=cache_size)
    return sets
