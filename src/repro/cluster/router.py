"""The cluster router: plan → scatter → gather → merge/dedup.

Reads
-----
A query interval is planned against the :class:`RoutingTable`: only the
shards it overlaps are visited.  The query goes to each planned shard's
replica set (result cache, then replica failover), and the sorted
per-shard id lists are merged with de-duplication, because an object
whose lifespan straddles a shard boundary is stored (and found) in more
than one shard but must be returned exactly once.  A batch is routed the
same way, one query at a time.

Writes
------
An insert lands on every shard whose range the object's lifespan
overlaps; a delete is routed to the shards that actually hold the id.
Only those shards' result caches are invalidated — untouched shards keep
serving their cached answers, which is the point of partitioning the
cache along with the data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import (
    DuplicateObjectError,
    ShardUnavailableError,
    UnknownObjectError,
)
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.cluster.group import ShardGroup
from repro.cluster.routing import RoutingTable
from repro.obs.context import event, span
from repro.obs.registry import OBS


def merge_shard_results(results: Sequence[List[int]]) -> Tuple[List[int], int]:
    """Union the sorted per-shard id lists; returns (merged, duplicates).

    ``duplicates`` counts ids seen in more than one shard — boundary
    straddlers the caller reports to the cross-shard duplicate metric.
    """
    if len(results) == 1:
        return list(results[0]), 0
    seen: set = set()
    duplicates = 0
    for shard_ids in results:
        for object_id in shard_ids:
            if object_id in seen:
                duplicates += 1
            else:
                seen.add(object_id)
    return sorted(seen), duplicates


@dataclass
class PartialResult:
    """A scatter-gather answer that names the shards it is missing.

    ``complete`` is True only when every planned shard answered; failed
    shards appear in ``shard_errors`` as ``{shard_id: {"code", "message",
    "detail"?}}`` with code ``"shard_unavailable"`` or
    ``"deadline_exceeded"``.  The ids gathered from the shards that *did*
    answer are always returned — graceful degradation beats an empty
    hand — and the caller decides whether a partial answer is usable.
    """

    ids: List[int]
    complete: bool = True
    shard_errors: Dict[str, Dict[str, object]] = field(default_factory=dict)
    shards_planned: int = 0
    shards_answered: int = 0


class ClusterRouter:
    """Routes queries and mutations for one routing-table generation."""

    def __init__(self, table: RoutingTable, group: ShardGroup) -> None:
        self.table = table
        self.group = group

    # ------------------------------------------------------------------- plans
    def plan(self, q: TimeTravelQuery) -> List[str]:
        """The shard ids this query must visit."""
        return [spec.shard_id for spec in self.table.shards_for_query(q)]

    # ------------------------------------------------------------------- reads
    def query(self, q: TimeTravelQuery) -> List[int]:
        """Scatter one query to its planned shards; gather, merge, dedup."""
        planned = self.plan(q)
        results = [
            self.group.replica_set(shard_id).query(q) for shard_id in planned
        ]
        merged, duplicates = merge_shard_results(results)
        self._count_query(planned, duplicates)
        return merged

    def query_partial(
        self, q: TimeTravelQuery, deadline: Optional[float] = None
    ) -> PartialResult:
        """Deadline-aware scatter-gather that degrades instead of raising.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  The
        scatter visits planned shards in order, checking the clock before
        each one; shards not reached in time are reported as
        ``deadline_exceeded`` and a dead shard as ``shard_unavailable``
        (with the replica-level detail from
        :class:`~repro.core.errors.ShardUnavailableError`) — the caller
        always gets an answer shaped like *something*, never a hang.
        """
        with span("router_plan") as plan_rec:
            planned = self.plan(q)
            if plan_rec is not None:
                plan_rec.attrs["planned"] = list(planned)
        answered: List[List[int]] = []
        errors: Dict[str, Dict[str, object]] = {}
        for position, shard_id in enumerate(planned):
            if deadline is not None and time.monotonic() >= deadline:
                for missed in planned[position:]:
                    errors[missed] = {
                        "code": "deadline_exceeded",
                        "message": "deadline expired before this shard was visited",
                    }
                    event(f"shard:{missed}", status="deadline_abandoned", shard=missed)
                break
            try:
                with span(f"shard:{shard_id}", shard=shard_id):
                    answered.append(self.group.replica_set(shard_id).query(q))
            except ShardUnavailableError as exc:
                errors[shard_id] = {
                    "code": "shard_unavailable",
                    "message": str(exc),
                    "detail": exc.detail(),
                }
        merged, duplicates = (
            merge_shard_results(answered) if answered else ([], 0)
        )
        self._count_query(planned, duplicates)
        return PartialResult(
            ids=merged,
            complete=not errors,
            shard_errors=errors,
            shards_planned=len(planned),
            shards_answered=len(answered),
        )

    def run_batch(self, queries: Sequence[TimeTravelQuery]) -> List[List[int]]:
        """Answer a batch one query at a time; results in submission order.

        Each query takes :meth:`query`'s path, so per-shard caches and
        replica failover apply to batches unchanged.
        """
        return [self.query(q) for q in queries]

    # ------------------------------------------------------------------ writes
    def insert(self, obj: TemporalObject) -> None:
        """Insert into every owning shard (one per boundary-free object)."""
        if self._holding_shards(obj.id):
            raise DuplicateObjectError(f"object id {obj.id} already indexed")
        owners = self.table.shards_for_object(obj)
        for spec in owners:
            with span(f"shard_write:{spec.shard_id}", shard=spec.shard_id, op="insert"):
                self.group.replica_set(spec.shard_id).insert(obj)
        self._count_mutation("insert", len(owners))

    def delete(self, obj: Union[TemporalObject, int]) -> None:
        """Delete from the shards that actually hold the id."""
        object_id = obj if isinstance(obj, int) else obj.id
        holders = self._holding_shards(object_id)
        if not holders:
            raise UnknownObjectError(object_id)
        for shard_id in holders:
            with span(f"shard_write:{shard_id}", shard=shard_id, op="delete"):
                self.group.replica_set(shard_id).delete(object_id)
        self._count_mutation("delete", len(holders))

    def _holding_shards(self, object_id: int) -> List[str]:
        """Shards whose primary catalog contains ``object_id`` (dict probes)."""
        return [
            shard_id
            for shard_id in self.table.shard_ids()
            if object_id in self.group.replica_set(shard_id).primary_index()
        ]

    # ----------------------------------------------------------------- metrics
    def _count_query(self, planned: List[str], duplicates: int) -> None:
        registry = OBS.registry
        if not registry.enabled:
            return
        from repro.obs.instruments import cluster_instruments

        instruments = cluster_instruments(registry)
        instruments.queries.inc()
        instruments.shards_visited.observe(len(planned))
        for shard_id in planned:
            instruments.shard_queries.labels(shard_id).inc()
        if duplicates:
            instruments.cross_shard_duplicates.inc(duplicates)

    def _count_mutation(self, kind: str, shards: int) -> None:
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cluster_instruments

            instruments = cluster_instruments(registry)
            instruments.mutations.labels(kind).inc()
            instruments.mutation_shards.observe(shards)

    # -------------------------------------------------------------- inspection
    def __len__(self) -> int:
        """Distinct live objects across the cluster."""
        ids: set = set()
        for shard_id in self.table.shard_ids():
            index = self.group.replica_set(shard_id).primary_index()
            id_column = getattr(index, "object_ids", None)
            if id_column is not None:
                # Cold shards expose the raw id column — counting them must
                # not decode the whole segment.
                ids.update(id_column())
            else:
                ids.update(obj.id for obj in index.objects())
        return len(ids)
