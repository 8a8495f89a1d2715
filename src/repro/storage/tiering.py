"""Tier state, the cold shard façade, and the heat-driven tier planner.

The cold tier's **commit point** is ``tiers.json`` in the cluster
directory: a shard is cold exactly when the committed tier state names
its segment.  Demotion writes the segment *first* (atomic install
through the fsio seam), then commits the state; promotion rebuilds the
durable replica stores first, then commits.  A crash at any fsio
boundary therefore leaves the shard servable from exactly one tier, and
:meth:`~repro.cluster.layout.prune_orphans` (tier-aware since this
package landed) sweeps whichever half-built artefact the crash stranded
— an uncommitted segment, or the shard directories of a committed-cold
shard.

:class:`ColdShard` mirrors the :class:`~repro.cluster.group.ReplicaSet`
surface the router talks to — ``query``/``insert``/``delete``/
``primary_index``/``stats``/``cache``/``close`` — so routing, batching,
failover-retry and heat accounting treat both tiers identically.  Writes
to a cold shard trigger promotion through the owning cluster's callback
and then land on the promoted replica set.

:func:`plan_tiering` reads the same per-shard query-heat counter the
rebalancer uses (``repro_cluster_shard_queries_total``) and proposes
which shards to demote (cold, rarely queried) and promote (cold but hot
again).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.core.errors import (
    ClusterError,
    CorruptSegmentError,
    ReadOnlySegmentError,
    ShardUnavailableError,
)
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.exec.cache import ResultCache
from repro.obs.context import span
from repro.service.fsio import REAL_FS, FileSystem
from repro.storage.cache import SegmentCache
from repro.storage.reader import SegmentReader

PathLike = Union[str, Path]

#: The tier-state file: the cold tier's commit point.
TIERS_NAME = "tiers.json"

#: Tier-state format version.
TIERS_VERSION = 1

#: Shards below this fraction of total query heat are demotion candidates.
DEFAULT_DEMOTE_SHARE = 0.05

#: Cold shards above this fraction of total query heat promote back.
DEFAULT_PROMOTE_SHARE = 0.25

#: Heat decisions need at least this many counted queries to act on.
DEFAULT_MIN_QUERIES = 20


# ------------------------------------------------------------------ tier state
@dataclass
class TierState:
    """The committed tier assignment: shard id → segment file name."""

    cold: Dict[str, str] = field(default_factory=dict)

    def is_cold(self, shard_id: str) -> bool:
        return shard_id in self.cold


def tiers_path(directory: PathLike) -> Path:
    return Path(directory) / TIERS_NAME


def read_tier_state(directory: PathLike) -> TierState:
    """The committed tier state (missing file → everything is hot)."""
    path = tiers_path(directory)
    try:
        raw = path.read_text("utf-8")
    except OSError:
        return TierState()
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise ClusterError(f"{path}: corrupt tier state: {exc}") from exc
    if (
        not isinstance(payload, dict)
        or payload.get("version") != TIERS_VERSION
        or not isinstance(payload.get("cold"), dict)
    ):
        raise ClusterError(f"{path}: malformed tier state")
    return TierState(cold={str(k): str(v) for k, v in payload["cold"].items()})


def write_tier_state(
    directory: PathLike, state: TierState, fs: FileSystem = REAL_FS
) -> None:
    """Atomically commit the tier assignment (write-temp + fsync + rename)."""
    payload = {
        "version": TIERS_VERSION,
        "cold": dict(sorted(state.cold.items())),
    }
    fs.atomic_write(
        tiers_path(directory),
        json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
    )


# ------------------------------------------------------------------ cold shard
class ColdIndexView:
    """The duck-typed stand-in for a replica's in-memory index.

    Serves the probes the router and rebalancer actually make against
    ``primary_index()`` — membership, length, ids, full objects, and
    direct queries (the batch path) — all through the segment cache.
    """

    def __init__(self, shard: "ColdShard") -> None:
        self._shard = shard

    def __len__(self) -> int:
        with self._shard.lease() as reader:
            return len(reader)

    def __contains__(self, object_id: int) -> bool:
        with self._shard.lease() as reader:
            return object_id in reader

    def object_ids(self) -> List[int]:
        with self._shard.lease() as reader:
            return reader.object_ids()

    def objects(self) -> List[TemporalObject]:
        """Full decode — promotion and rebalance bookkeeping only."""
        with self._shard.lease() as reader:
            return reader.objects()

    def query(self, q: TimeTravelQuery) -> List[int]:
        return self._shard.query(q)


class ColdShard:
    """One demoted shard: an immutable segment behind the ReplicaSet surface."""

    #: The tier marker routing/rebalancing code keys off (ReplicaSet: False).
    is_cold = True

    def __init__(
        self,
        shard_id: str,
        segment_path: Path,
        segment_cache: SegmentCache,
        *,
        cache_size: int = 0,
        on_promote: Optional[Callable[[str], object]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.segment_path = Path(segment_path)
        self._segments = segment_cache
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_size) if cache_size else None
        )
        self._on_promote = on_promote
        #: Set when this shard promoted mid-flight: late callers follow.
        self._successor = None

    # ------------------------------------------------------------------- state
    @property
    def n_replicas(self) -> int:
        return 0

    def live_replicas(self) -> List[int]:
        return []

    def is_dead(self, replica: int) -> bool:
        return True

    def kill(self, replica: int) -> None:
        raise ClusterError(
            f"{self.shard_id}: cold shards have no replicas to kill"
        )

    def revive(self, *args: object, **kwargs: object) -> None:
        raise ClusterError(
            f"{self.shard_id}: cold shards have no replicas to revive"
        )

    def lease(self):
        """A pinned :class:`SegmentReader` lease for this shard's segment."""
        return self._segments.lease(self.segment_path)

    # ------------------------------------------------------------------- reads
    def query(self, q: TimeTravelQuery) -> List[int]:
        successor = self._successor
        if successor is not None:
            return successor.query(q)
        cache = self.cache
        if cache is not None:
            hit = cache.get(q)
            if hit is not None:
                return hit
        with span("cold_shard", shard=self.shard_id):
            try:
                with self.lease() as reader:
                    result = reader.query(q)
            except (OSError, ClusterError, CorruptSegmentError) as exc:
                # The segment vanished under us (promotion swapped tiers
                # mid-flight, surfacing as CorruptSegmentError from the
                # reader's open): raise the standard failover error so
                # the cluster's router-swap retry resolves it.
                raise ShardUnavailableError(
                    f"{self.shard_id}: cold segment unavailable: {exc}",
                    shard_id=self.shard_id,
                ) from exc
        if cache is not None:
            cache.put(q, result)
        return result

    # ------------------------------------------------------------------ writes
    def insert(self, obj: TemporalObject) -> None:
        self._hot_tier("insert").insert(obj)

    def delete(self, object_id: int) -> None:
        self._hot_tier("delete").delete(object_id)

    def _hot_tier(self, op: str):
        """The promoted replica set this write must land on."""
        if self._successor is not None:
            return self._successor
        if self._on_promote is None:
            raise ReadOnlySegmentError(
                f"{self.shard_id}: {op} on a cold shard with no promotion "
                f"hook; demote/promote through the owning cluster"
            )
        return self._on_promote(self.shard_id)

    def retire_to(self, successor) -> None:
        """Promotion finished: route every late caller to the hot tier."""
        self._successor = successor

    # -------------------------------------------------------------- inspection
    def primary_index(self) -> ColdIndexView:
        successor = self._successor
        if successor is not None:
            return successor.primary_index()
        return ColdIndexView(self)

    def stats(self) -> Dict[str, object]:
        with self.lease() as reader:
            out: Dict[str, object] = {
                "shard_id": self.shard_id,
                "replicas": 0,
                "live_replicas": 0,
                "objects": len(reader),
                "tier": "cold",
                "segment_bytes": reader.size_bytes(),
            }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    def close(self) -> None:
        """Nothing to flush: segments are immutable and cache-owned."""


# --------------------------------------------------------------------- planner
@dataclass(frozen=True)
class TieringPlan:
    """Heat-driven tier movements: shard ids to demote and to promote."""

    demote: List[str] = field(default_factory=list)
    promote: List[str] = field(default_factory=list)
    reason: str = ""

    @property
    def is_noop(self) -> bool:
        return not self.demote and not self.promote


def plan_tiering(
    table,
    group,
    *,
    demote_share: float = DEFAULT_DEMOTE_SHARE,
    promote_share: float = DEFAULT_PROMOTE_SHARE,
    min_queries: int = DEFAULT_MIN_QUERIES,
    keep_hot: int = 1,
) -> TieringPlan:
    """Propose tier movements from the rebalancer's heat counter.

    A hot shard whose share of counted queries is at most ``demote_share``
    is demotion-worthy — except the newest time-range shard (its upper
    bound is open: fresh inserts land there) and the last ``keep_hot``
    hot shards.  A cold shard drawing at least ``promote_share`` promotes
    back.  With metrics disabled, or fewer than ``min_queries`` counted,
    the plan is a no-op: no heat signal, no movement.
    """
    from repro.cluster.rebalance import query_share

    shard_ids = list(table.shard_ids())
    heat = query_share(shard_ids)
    total = sum(heat.values())
    if total < min_queries:
        return TieringPlan(reason=f"only {total:.0f} counted queries (< {min_queries})")

    cold_ids = {
        shard_id
        for shard_id in shard_ids
        if getattr(group.replica_set(shard_id), "is_cold", False)
    }
    open_ended = {spec.shard_id for spec in table.shards if spec.hi is None}
    hot_ids = [shard_id for shard_id in shard_ids if shard_id not in cold_ids]

    demote = [
        shard_id
        for shard_id in hot_ids
        if shard_id not in open_ended and heat[shard_id] / total <= demote_share
    ]
    # Never drain the hot tier entirely.
    demote.sort(key=lambda shard_id: heat[shard_id])
    max_demotions = max(0, len(hot_ids) - keep_hot)
    demote = demote[:max_demotions]

    promote = [
        shard_id
        for shard_id in sorted(cold_ids)
        if heat[shard_id] / total >= promote_share
    ]
    reasons = []
    if demote:
        reasons.append(
            f"demote {', '.join(demote)} (≤ {demote_share:.0%} of {total:.0f} queries)"
        )
    if promote:
        reasons.append(
            f"promote {', '.join(promote)} (≥ {promote_share:.0%} of {total:.0f} queries)"
        )
    return TieringPlan(
        demote=demote,
        promote=promote,
        reason="; ".join(reasons) or "every shard is in its right tier",
    )


# -------------------------------------------------------------------- recovery
def validate_cold_map(
    directory: PathLike, table, state: TierState
) -> Dict[str, Path]:
    """The committed cold shards with their segment paths, verified.

    Entries for shards the routing table no longer names are dropped
    (their segments are swept by the orphan prune); a committed-cold
    shard whose segment file is missing is unrecoverable data loss and
    raises loudly rather than serving a silently empty shard.
    """
    from repro.cluster import layout

    live = set(table.shard_ids())
    cold: Dict[str, Path] = {}
    for shard_id, name in state.cold.items():
        if shard_id not in live:
            continue
        path = layout.segments_dir(directory) / name
        if not path.is_file():
            raise ClusterError(
                f"{shard_id}: tier state names segment {name!r} but the "
                f"file is missing — cold shard is unservable"
            )
        cold[shard_id] = path
    return cold


def open_cold_shards(
    cold_map: Dict[str, Path],
    segment_cache: SegmentCache,
    *,
    cache_size: int = 0,
    on_promote: Optional[Callable[[str], object]] = None,
) -> Dict[str, ColdShard]:
    """Validated :class:`ColdShard` façades for every committed segment.

    Each segment's envelope (footer, directory checksum) is verified by
    opening it once through the cache — recovery refuses to serve a
    corrupt cold tier instead of failing at first query.
    """
    shards: Dict[str, ColdShard] = {}
    for shard_id, path in sorted(cold_map.items()):
        with segment_cache.lease(path) as reader:
            if reader.shard_id != shard_id:
                raise ClusterError(
                    f"{path}: segment claims shard {reader.shard_id!r}, "
                    f"tier state says {shard_id!r}"
                )
        shards[shard_id] = ColdShard(
            shard_id,
            path,
            segment_cache,
            cache_size=cache_size,
            on_promote=on_promote,
        )
    return shards


def build_replica_set(
    directory: PathLike,
    shard_id: str,
    objects: List[TemporalObject],
    *,
    n_replicas: int,
    index_key: str,
    index_params: Dict[str, object],
    wal_fsync: bool,
    fs: FileSystem = REAL_FS,
    cache_size: int = 0,
):
    """Build + checkpoint fresh durable replicas for a promoted shard.

    Mirrors the cluster's shard-build path: every replica gets its own
    WAL/snapshot directory and is bootstrapped (checkpointed) before the
    tier commit makes it authoritative.
    """
    from repro.cluster import layout
    from repro.cluster.group import ReplicaSet
    from repro.core.collection import Collection
    from repro.service.store import DurableIndexStore

    collection = Collection(objects)
    stores = []
    for replica in range(n_replicas):
        replica_path = layout.replica_dir(directory, shard_id, replica)
        replica_path.mkdir(parents=True, exist_ok=True)
        store = DurableIndexStore.open(
            replica_path,
            index_key=index_key,
            index_params=index_params,
            wal_fsync=wal_fsync,
            fs=fs,
        )
        if len(collection):
            store.bootstrap(collection, index_key, **index_params)
        stores.append(store)
    return ReplicaSet(shard_id, stores, cache_size=cache_size)
