"""Replica sets: N durable replicas per shard, read failover, revival.

Each shard of a routing table is served by a :class:`ReplicaSet` — one
:class:`~repro.service.DurableIndexStore` per replica, each in its own
WAL/snapshot directory under the cluster layout, opened (and, for a new
shard, bootstrapped) by :func:`open_replica`.  Mutations fan out to
every live replica (each replica is independently crash-safe); reads are
answered by the first replica that serves without raising, rotating past
dead ones and counting the failover.

A *killed* replica (fault injection, or a store that raised) stops
receiving writes and is therefore stale; :meth:`ReplicaSet.revive`
rebuilds it from a healthy peer before it rejoins the read set.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.core.errors import ReproError, ShardUnavailableError
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.exec.cache import ResultCache
from repro.obs.context import event, span
from repro.obs.registry import OBS
from repro.service.fsio import REAL_FS, FileSystem
from repro.service.store import DurableIndexStore
from repro.utils.locks import make_lock
from repro.utils.retry import RetryPolicy, retry_call

#: Backoff for the revive rebuild-from-peer path: a peer that dies
#: mid-copy is marked dead and the copy retries against the next one.
REVIVE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.1)


def open_replica(
    path: Path,
    collection: Optional[Collection] = None,
    *,
    index_key: str,
    index_params: Dict[str, object],
    wal_fsync: bool,
    fs: FileSystem = REAL_FS,
) -> DurableIndexStore:
    """Open the replica store at ``path``, bootstrapped with ``collection``.

    The one replica build: create, rebalance and promote make every
    replica of a new shard through it, revive rebuilds a dead one, and
    open recovers each hot replica through it with no collection.  The
    bootstrap checkpoints, so a new replica is crash-consistent before any
    commit names it.
    """
    path.mkdir(parents=True, exist_ok=True)
    store = DurableIndexStore.open(
        path,
        index_key=index_key,
        index_params=index_params,
        wal_fsync=wal_fsync,
        fs=fs,
    )
    if collection is not None and len(collection):
        store.bootstrap(collection, index_key, **index_params)
    return store


class ReplicaSet:
    """One shard's replicas plus its shared result cache."""

    #: Tier marker: hot replica sets serve from in-RAM indexes.  The cold
    #: counterpart (:class:`repro.storage.tiering.ColdShard`) carries the
    #: same serving surface with ``is_cold = True``; routing, batching and
    #: planning key off this attribute instead of the concrete type.
    is_cold = False

    def __init__(
        self,
        shard_id: str,
        stores: Sequence[DurableIndexStore],
        cache_size: int = 0,
    ) -> None:
        if not stores:
            raise ShardUnavailableError(
                f"{shard_id}: no replicas", shard_id=shard_id
            )
        self.shard_id = shard_id
        self.stores: List[DurableIndexStore] = list(stores)
        self._dead = [False] * len(self.stores)
        # Serialises mutations against revival: an insert may not slip
        # between "copy the peer's objects" and "rejoin the rebuilt
        # replica", or the revived store would silently miss it.
        self._write_lock = make_lock("cluster.group-write")
        self.cache: Optional[ResultCache] = ResultCache(cache_size) if cache_size else None

    # ------------------------------------------------------------------- state
    @property
    def n_replicas(self) -> int:
        return len(self.stores)

    def live_replicas(self) -> List[int]:
        return [i for i, dead in enumerate(self._dead) if not dead]

    def is_dead(self, replica: int) -> bool:
        return self._dead[replica]

    @property
    def version(self) -> tuple:
        """The shard's data version: its replicas' index versions.

        A write through any replica, or a revived replica's new index,
        changes it, so the shard's cached answers stop matching.
        """
        return tuple(store.index.version for store in self.stores)

    def kill(self, replica: int) -> None:
        """Fault injection: take one replica out (closes its store)."""
        self._dead[replica] = True
        store = self.stores[replica]
        if not store.closed:
            store.close()

    # ------------------------------------------------------------------- reads
    def query(self, q: TimeTravelQuery) -> np.ndarray:
        """Answer from the first replica that serves; cache-aware.

        Dead replicas are skipped; a replica that raises mid-read is
        marked dead (its store state is suspect) and the read fails over
        to the next one.  Only when every replica refuses does the shard
        surface :class:`ShardUnavailableError`.
        """
        cache = self.cache
        if cache is not None:
            version = self.version
            hit = cache.get(q, version)
            if hit is not None:
                event("cache_hit", shard=self.shard_id)
                return hit
        failures: Dict[int, str] = {}
        failovers = 0
        for replica in range(len(self.stores)):
            if self._dead[replica]:
                failures[replica] = "replica marked dead (killed or failed earlier)"
                failovers += 1
                event(
                    f"replica:{replica}",
                    status="skipped_dead",
                    shard=self.shard_id,
                    replica=replica,
                )
                continue
            result: Optional[np.ndarray] = None
            with span(
                f"replica:{replica}", shard=self.shard_id, replica=replica
            ) as rec:
                try:
                    result = self.stores[replica].query(q)
                except ReproError as exc:
                    self._dead[replica] = True
                    failures[replica] = str(exc)
                    failovers += 1
                    if rec is not None:
                        rec.status = "error"
                        rec.attrs["error"] = str(exc)
            if result is None:
                continue
            if failovers:
                self._count_failovers(failovers)
            if cache is not None:
                cache.put(q, version, result)
            return result
        if failovers:
            self._count_failovers(failovers)
        raise self._unavailable(failures)

    def _unavailable(self, failures: Dict[int, str]) -> ShardUnavailableError:
        """A structured all-replicas-refused error for this shard."""
        if failures:
            detail = "; ".join(
                f"replica-{replica}: {message}"
                for replica, message in sorted(failures.items())
            )
        else:
            detail = "all replicas are dead"
        return ShardUnavailableError(
            f"{self.shard_id}: {detail}",
            shard_id=self.shard_id,
            replica_count=len(self.stores),
            failures=failures,
        )

    def _count_failovers(self, n: int) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cluster_instruments

            cluster_instruments(registry).replica_failovers.inc(n)

    # ------------------------------------------------------------------ writes
    def insert(self, obj: TemporalObject) -> None:
        self._apply("insert", obj)

    def delete(self, object_id: int) -> None:
        self._apply("delete", object_id)

    def _apply(self, op: str, payload) -> None:
        """Fan one mutation out to every live replica.

        With zero live replicas the shard cannot accept writes — that is
        an error, not silent data loss.
        """
        with self._write_lock:
            live = self.live_replicas()
            if not live:
                raise ShardUnavailableError(
                    f"{self.shard_id}: no live replica accepts writes",
                    shard_id=self.shard_id,
                    replica_count=len(self.stores),
                )
            for replica in live:
                store = self.stores[replica]
                if op == "insert":
                    store.insert(payload)
                else:
                    store.delete(payload)

    # ---------------------------------------------------------------- recovery
    def revive(
        self,
        replica: int,
        directory: Path,
        *,
        index_key: str,
        index_params: Dict[str, object],
        wal_fsync: bool,
        fs: FileSystem = REAL_FS,
        retry_policy: RetryPolicy = REVIVE_RETRY,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Rebuild a dead replica from a healthy peer and rejoin it.

        The stale directory is wiped and re-bootstrapped from a live
        replica's in-memory objects — replicas receive identical mutation
        streams, so any live peer is authoritative.  A peer that raises
        mid-copy is marked dead and the copy retries (bounded, with
        backoff) against the next live peer; only when no live peer
        remains does the revival fail.  The whole rebuild holds the
        shard's write lock, so a concurrent mutation lands either before
        the copy (and is included) or after the rejoin (and is applied to
        the revived replica too) — never in between.
        """
        with self._write_lock:
            if not self._dead[replica]:
                return

            def copy_from_peer() -> Collection:
                live = self.live_replicas()
                if not live:
                    raise ShardUnavailableError(
                        f"{self.shard_id}: no live replica to revive from",
                        shard_id=self.shard_id,
                        replica_count=len(self.stores),
                    )
                peer_id = live[0]
                try:
                    return Collection(self.stores[peer_id].index.objects())
                except ReproError as exc:
                    # This peer is no good; take it out of the read set so
                    # the retry targets the next one.
                    self._dead[peer_id] = True
                    raise ShardUnavailableError(
                        f"{self.shard_id}: revive peer replica-{peer_id} "
                        f"failed: {exc}",
                        shard_id=self.shard_id,
                        replica_count=len(self.stores),
                        failures={peer_id: str(exc)},
                    ) from exc

            collection = retry_call(
                copy_from_peer,
                policy=retry_policy,
                retry_on=(ShardUnavailableError,),
                rng=rng,
            )
            if directory.exists():
                shutil.rmtree(directory)
            self.stores[replica] = open_replica(
                directory,
                collection,
                index_key=index_key,
                index_params=index_params,
                wal_fsync=wal_fsync,
                fs=fs,
            )
            self._dead[replica] = False

    def close(self) -> None:
        for store in self.stores:
            if not store.closed:
                store.close()

    # -------------------------------------------------------------- inspection
    def primary_index(self):
        """The first live replica's in-memory index (membership probes)."""
        live = self.live_replicas()
        if not live:
            raise self._unavailable({})
        return self.stores[live[0]].index

    def stats(self) -> Dict[str, object]:
        live = self.live_replicas()
        out: Dict[str, object] = {
            "shard_id": self.shard_id,
            "replicas": len(self.stores),
            "live_replicas": len(live),
            "objects": len(self.primary_index()) if live else 0,
            "tier": "hot",
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out
