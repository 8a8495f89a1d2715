"""Routing tables: which shard serves which slice of the time domain.

A :class:`RoutingTable` is an explicit, versioned value object — the
whole cluster's data placement in one JSON-serialisable record.  Queries
and mutations never consult anything else, so swapping in a new
*generation* (a rebalance) is one atomic pointer update.

Placement is ``time-range``, HINT-style domain partitioning lifted to the
shard level: every shard owns a half-open start-time range ``[lo, hi)``
over the *whole object lifespan*.  An object lives in every shard whose
range its ``[st, end]`` interval overlaps (objects that straddle a
boundary are stored twice and de-duplicated at read time); a query visits
exactly the shards its interval overlaps.

Routing files still carry ``"kind": "time-range"`` so directories written
when a second placement existed open unchanged; any other kind, and any
field of the wrong type, is a :class:`~repro.core.errors.ClusterError`
at load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ClusterError
from repro.core.interval import Timestamp
from repro.core.model import TemporalObject, TimeTravelQuery

#: Routing-table file format version.
ROUTING_VERSION = 1

#: The one placement kind a routing file may name.
TIME_RANGE = "time-range"


def _json_int(data: Dict[str, object], key: str, default: Optional[int] = None) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ClusterError(f"routing table field {key!r} must be an integer, got {value!r}")
    return value


def _json_bound(data: Dict[str, object], key: str) -> Optional[Timestamp]:
    value = data.get(key)
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ClusterError(
            f"shard bound {key!r} must be a finite number or absent, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity and its owned start-time range ``[lo, hi)``
    (``None`` = unbounded on that side; ``hi`` exclusive)."""

    shard_id: str
    lo: Optional[Timestamp] = None
    hi: Optional[Timestamp] = None

    def overlaps(self, st: Timestamp, end: Timestamp) -> bool:
        """Does ``[st, end]`` overlap this shard's ``[lo, hi)`` range?"""
        if self.lo is not None and end < self.lo:
            return False
        if self.hi is not None and st >= self.hi:
            return False
        return True

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {"shard_id": self.shard_id}
        for field in ("lo", "hi"):
            value = getattr(self, field)
            if value is not None:
                out[field] = value
        return out

    @classmethod
    def from_json(cls, data: object) -> "ShardSpec":
        if not isinstance(data, dict) or not isinstance(data.get("shard_id"), str):
            raise ClusterError(f"routing shard entry needs a string shard_id, got {data!r}")
        return cls(
            shard_id=data["shard_id"],
            lo=_json_bound(data, "lo"),
            hi=_json_bound(data, "hi"),
        )


class RoutingTable:
    """An immutable, versioned shard map (one *generation* of placement)."""

    def __init__(
        self,
        generation: int,
        shards: Sequence[ShardSpec],
        n_replicas: int = 1,
    ) -> None:
        if generation < 1:
            raise ClusterError(f"routing generation must be >= 1, got {generation}")
        if not shards:
            raise ClusterError("a routing table needs at least one shard")
        if n_replicas < 1:
            raise ClusterError(f"n_replicas must be >= 1, got {n_replicas}")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ClusterError(f"duplicate shard ids in routing table: {ids}")
        self.generation = generation
        self.shards: Tuple[ShardSpec, ...] = tuple(shards)
        self.n_replicas = n_replicas
        self._validate_ranges()

    def _validate_ranges(self) -> None:
        """Shards must tile the line: contiguous, no overlap."""
        ordered = sorted(
            self.shards, key=lambda s: (s.lo is not None, s.lo)
        )
        if ordered[0].lo is not None or ordered[-1].hi is not None:
            raise ClusterError("time-range shards must cover (-inf, +inf)")
        for left, right in zip(ordered, ordered[1:]):
            if left.hi != right.lo:
                raise ClusterError(
                    f"time-range shards must tile: {left.shard_id} ends at "
                    f"{left.hi!r} but {right.shard_id} starts at {right.lo!r}"
                )

    # ------------------------------------------------------------------ routing
    def shards_for_interval(self, st: Timestamp, end: Timestamp) -> List[ShardSpec]:
        """Every shard a query over ``[st, end]`` must visit."""
        return [s for s in self.shards if s.overlaps(st, end)]

    def shards_for_query(self, q: TimeTravelQuery) -> List[ShardSpec]:
        return self.shards_for_interval(q.st, q.end)

    def shards_for_object(self, obj: TemporalObject) -> List[ShardSpec]:
        """Every shard that stores ``obj`` (≥ 2 across range boundaries)."""
        owners = self.shards_for_interval(obj.st, obj.end)
        if not owners:
            raise ClusterError(
                f"object {obj.id} [{obj.st}, {obj.end}] maps to no shard"
            )
        return owners

    def shard_ids(self) -> List[str]:
        return [s.shard_id for s in self.shards]

    def spec(self, shard_id: str) -> ShardSpec:
        for s in self.shards:
            if s.shard_id == shard_id:
                return s
        raise ClusterError(f"unknown shard id {shard_id!r}")

    # -------------------------------------------------------------- persistence
    def to_json(self) -> str:
        return json.dumps(
            {
                "version": ROUTING_VERSION,
                "generation": self.generation,
                "kind": TIME_RANGE,
                "n_replicas": self.n_replicas,
                "shards": [s.to_json() for s in self.shards],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RoutingTable":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ClusterError(f"unreadable routing table: {exc}") from exc
        if not isinstance(data, dict) or data.get("version") != ROUTING_VERSION:
            raise ClusterError(
                f"unsupported routing table version {data.get('version')!r}"
                if isinstance(data, dict)
                else "routing table is not a JSON object"
            )
        if data.get("kind") != TIME_RANGE:
            raise ClusterError(
                f"unsupported routing kind {data.get('kind')!r}; "
                f"only {TIME_RANGE!r} is served"
            )
        shards = data.get("shards")
        if not isinstance(shards, list):
            raise ClusterError(f"routing table field 'shards' must be a list, got {shards!r}")
        return cls(
            generation=_json_int(data, "generation"),
            shards=[ShardSpec.from_json(s) for s in shards],
            n_replicas=_json_int(data, "n_replicas", 1),
        )

    def describe(self) -> List[str]:
        """Human lines for ``cluster status``."""
        out = [
            f"generation {self.generation} ({TIME_RANGE}, "
            f"{len(self.shards)} shards × {self.n_replicas} replicas)"
        ]
        for s in self.shards:
            lo = "-inf" if s.lo is None else s.lo
            hi = "+inf" if s.hi is None else s.hi
            out.append(f"  {s.shard_id}: [{lo}, {hi})")
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return (
            self.generation == other.generation
            and self.shards == other.shards
            and self.n_replicas == other.n_replicas
        )

    def __hash__(self) -> int:
        return hash((self.generation, self.shards, self.n_replicas))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingTable(gen={self.generation}, shards={len(self.shards)})"
