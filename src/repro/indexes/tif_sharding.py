"""tIF+Sharding — the temporal index sharding of Anand et al. [4] (§2.2).

Instead of dividing the time domain, each postings list's entries are grouped
into **shards** by their start timestamp.  Ideal shards satisfy the
*staircase property* — entries sorted by ``t_st`` also have non-decreasing
``t_end`` — so the entries qualifying a query interval form one contiguous
stretch and no replication (hence no de-duplication) is ever needed.

Three ingredients from the original design are reproduced:

* **ideal shard construction** — a greedy first-fit (patience) pass over the
  entries in start order produces the minimal set of staircase chains;
* **impact lists** — per shard, sampled ``(max t_end so far, offset)`` pairs;
  a binary search finds the first offset whose prefix can contain a
  qualifying entry, and the scan stops at the first entry starting after the
  query.  Because the sampled key is the *prefix maximum* of ``t_end``, the
  impact list stays correct even for merged (non-ideal) shards;
* **cost-aware merging** — the number of ideal shards can be overwhelming,
  so smallest-first pairwise merging (our simplification of the paper's
  cost-based merge, documented in DESIGN.md) relaxes the staircase property
  until at most ``max_shards`` remain per list.

Sharding stores exactly one entry per (element, object) pair — the paper's
Table 5 shows it as the most space-efficient method, at the price of query
throughput; both properties reproduce here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set

from repro.core.interval import Timestamp
from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES, ENTRY_ID_START_BYTES
from repro.utils.partitioning import staircase_chain_assignment

#: Impact-list sampling stride (entries per sampled offset).
IMPACT_STRIDE = 64


class _Shard:
    """Entries sorted by ``(t_st, id)`` with a prefix-max-end impact list."""

    __slots__ = ("ids", "sts", "ends", "alive", "impact_ends", "impact_offsets", "dirty")

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.sts: List[Timestamp] = []
        self.ends: List[Timestamp] = []
        self.alive: List[bool] = []
        self.impact_ends: List[Timestamp] = []
        self.impact_offsets: List[int] = []
        self.dirty = True

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def last_end(self) -> Timestamp:
        return self.ends[-1]

    def append(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Append (build path: entries arrive in start order)."""
        self.ids.append(object_id)
        self.sts.append(st)
        self.ends.append(end)
        self.alive.append(True)
        self.dirty = True

    def insert(self, object_id: int, st: Timestamp, end: Timestamp) -> int:
        """Insert in start order; returns the position used."""
        pos = bisect_right(self.sts, st)
        self.ids.insert(pos, object_id)
        self.sts.insert(pos, st)
        self.ends.insert(pos, end)
        self.alive.insert(pos, True)
        self.dirty = True
        return pos

    def is_staircase_at(self, pos: int, end: Timestamp) -> bool:
        """Would inserting an entry ending at ``end`` at ``pos`` keep the staircase?"""
        if pos > 0 and self.ends[pos - 1] > end:
            return False
        if pos < len(self.ends) and end > self.ends[pos]:
            return False
        return True

    def rebuild_impact(self) -> None:
        """Recompute the sampled prefix-max-end impact list."""
        self.impact_ends = []
        self.impact_offsets = []
        running_max: Optional[Timestamp] = None
        for offset in range(0, len(self.ids), IMPACT_STRIDE):
            # prefix max over entries [0, offset)
            if offset:
                block_max = max(self.ends[offset - IMPACT_STRIDE : offset])
                running_max = block_max if running_max is None else max(running_max, block_max)
            if running_max is not None:
                self.impact_ends.append(running_max)
                self.impact_offsets.append(offset)
        self.dirty = False

    def scan_start(self, q_st: Timestamp) -> int:
        """First offset from which a qualifying entry may exist.

        Entries before the returned offset all satisfy ``t_end < q_st``
        (their prefix maximum is below the query start), so they can never
        overlap the query.
        """
        if self.dirty:
            self.rebuild_impact()
        # Largest sampled offset whose prefix-max end is still < q_st.
        pos = bisect_left(self.impact_ends, q_st)
        if pos == 0:
            return 0
        return self.impact_offsets[pos - 1]

    def scan(
        self,
        q_st: Timestamp,
        q_end: Timestamp,
        out: List[int],
        membership: Optional[Set[int]] = None,
    ) -> int:
        """Append qualifying live ids, optionally filtered by ``membership``.

        Starts at the impact-list offset; stops at the first entry whose
        start exceeds ``q_end`` (entries are start-sorted).  Returns the
        number of entries examined (instrumentation: entries scanned).
        """
        ids, sts, ends, alive = self.ids, self.sts, self.ends, self.alive
        start = self.scan_start(q_st)
        i = start
        n = len(ids)
        while i < n:
            st = sts[i]
            if st > q_end:
                break
            if alive[i] and ends[i] >= q_st:
                object_id = ids[i]
                if membership is None or object_id in membership:
                    out.append(object_id)
            i += 1
        return i - start


def _build_ideal_shards(entries: List[tuple]) -> List[_Shard]:
    """Greedy first-fit chain decomposition into staircase shards.

    ``entries`` must be sorted by ``(st, id)``.  The chain assignment is the
    shared patience pass of :func:`repro.utils.partitioning.
    staircase_chain_assignment` (also consumed by the cluster layer's
    time-range partitioner); here each chain becomes one ideal shard, in
    first-seen chain order.
    """
    assignment = staircase_chain_assignment([entry[2] for entry in entries])
    shards: List[_Shard] = []
    for (object_id, st, end), chain in zip(entries, assignment):
        if chain == len(shards):
            shards.append(_Shard())
        shards[chain].append(object_id, st, end)
    return shards


def _merge_pair(a: _Shard, b: _Shard) -> _Shard:
    """Merge two shards, keeping the ``(t_st, id)`` order."""
    merged = _Shard()
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if (a.sts[i], a.ids[i]) <= (b.sts[j], b.ids[j]):
            merged.append(a.ids[i], a.sts[i], a.ends[i])
            merged.alive[-1] = a.alive[i]
            i += 1
        else:
            merged.append(b.ids[j], b.sts[j], b.ends[j])
            merged.alive[-1] = b.alive[j]
            j += 1
    for k in range(i, na):
        merged.append(a.ids[k], a.sts[k], a.ends[k])
        merged.alive[-1] = a.alive[k]
    for k in range(j, nb):
        merged.append(b.ids[k], b.sts[k], b.ends[k])
        merged.alive[-1] = b.alive[k]
    return merged


def shard_waste(shard: _Shard) -> int:
    """How far the shard deviates from the staircase property.

    Counts the entries whose ``t_end`` lies below the running prefix maximum
    — exactly the entries a query may scan without them qualifying (the
    impact list can only skip prefixes whose *maximum* end is too small).
    An ideal shard wastes 0.
    """
    waste = 0
    running: Optional[int] = None
    for end in shard.ends:
        if running is not None and end < running:
            waste += 1
        if running is None or end > running:
            running = end
    return waste


def _merge_shards(
    shards: List[_Shard], max_shards: int, strategy: str = "size"
) -> List[_Shard]:
    """Reduce the shard count to ``max_shards``.

    ``strategy='size'`` — smallest-first pairwise merging (fast, the
    default used in the headline experiments).
    ``strategy='cost'`` — the cost-aware merge in the spirit of [4]: shards
    are kept ordered by their last ``t_end`` and the *adjacent* pair whose
    merge adds the least staircase waste (extra scannable non-qualifying
    entries) is merged first, so the relaxation of the staircase property is
    as gentle as the budget allows.
    """
    if len(shards) <= max_shards:
        return shards
    if strategy == "size":
        shards = sorted(shards, key=len)
        while len(shards) > max_shards:
            merged = _merge_pair(shards.pop(0), shards.pop(0))
            pos = bisect_left([len(s) for s in shards], len(merged))
            shards.insert(pos, merged)
        return shards
    if strategy != "cost":
        raise ConfigurationError(f"unknown merge strategy {strategy!r} (size|cost)")
    # Cost-aware: adjacent-in-end-order merges minimising added waste.
    shards = sorted(shards, key=lambda s: s.last_end)
    wastes = [shard_waste(s) for s in shards]
    while len(shards) > max_shards:
        best_index = -1
        best_delta = None
        best_merged: Optional[_Shard] = None
        for i in range(len(shards) - 1):
            candidate = _merge_pair(shards[i], shards[i + 1])
            delta = shard_waste(candidate) - wastes[i] - wastes[i + 1]
            if best_delta is None or delta < best_delta:
                best_delta, best_index, best_merged = delta, i, candidate
        assert best_merged is not None
        shards[best_index : best_index + 2] = [best_merged]
        wastes[best_index : best_index + 2] = [shard_waste(best_merged)]
    return shards


class TIFSharding(TemporalIRIndex):
    """Inverted file with horizontally sharded postings lists."""

    name = "tIF+Sharding"

    def __init__(self, max_shards: int = 16, merge_strategy: str = "size") -> None:
        super().__init__()
        if merge_strategy not in ("size", "cost"):
            raise ConfigurationError(
                f"unknown merge strategy {merge_strategy!r} (size|cost)"
            )
        self._max_shards = max_shards
        self._merge_strategy = merge_strategy
        self._shards: Dict[Element, List[_Shard]] = {}

    # ------------------------------------------------------------ construction
    @classmethod
    def build(
        cls, collection, max_shards: int = 16, merge_strategy: str = "size"
    ) -> "TIFSharding":
        """Bulk build: ideal shards per element, then merging (see
        :func:`_merge_shards` for the two strategies)."""
        index = cls(max_shards=max_shards, merge_strategy=merge_strategy)
        per_element: Dict[Element, List[tuple]] = {}
        for obj in collection:
            for element in obj.d:
                per_element.setdefault(element, []).append((obj.id, obj.st, obj.end))
            index._catalog[obj.id] = obj
            index._dictionary.add_description(obj.d)
        for element, entries in per_element.items():
            entries.sort(key=lambda entry: (entry[1], entry[0]))
            shards = _build_ideal_shards(entries)
            index._shards[element] = _merge_shards(shards, max_shards, merge_strategy)
        return index

    # ---------------------------------------------------------------- updates
    def _insert_impl(self, obj: TemporalObject) -> None:
        for element in obj.d:
            shards = self._shards.get(element)
            if shards is None:
                shards = self._shards[element] = []
            placed = False
            for shard in shards:
                pos = bisect_right(shard.sts, obj.st)
                if shard.is_staircase_at(pos, obj.end):
                    shard.insert(obj.id, obj.st, obj.end)
                    placed = True
                    break
            if not placed:
                if len(shards) < 2 * self._max_shards:
                    shard = _Shard()
                    shard.append(obj.id, obj.st, obj.end)
                    shards.append(shard)
                else:  # relax the staircase: put it in the smallest shard
                    shard = min(shards, key=len)
                    shard.insert(obj.id, obj.st, obj.end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        if not obj.d:
            return  # nothing was ever stored for an empty description
        found = False
        for element in obj.d:
            for shard in self._shards.get(element, ()):
                lo = bisect_left(shard.sts, obj.st)
                hi = bisect_right(shard.sts, obj.st)
                for i in range(lo, hi):
                    if shard.ids[i] == obj.id and shard.alive[i]:
                        shard.alive[i] = False
                        found = True
                        break
        if not found:
            raise UnknownObjectError(obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> List[int]:
        traced = tracing_active()
        skips = 0
        try:
            ordered = self.order_query_elements(q)
            shards = self._shards.get(ordered[0])
            if not shards:
                if traced:
                    event(f"scan shards of I[{ordered[0]}] (absent)")
                return []
            candidates: List[int] = []
            scanned = 0
            for shard in shards:
                examined = shard.scan(q.st, q.end, candidates)
                if traced:
                    scanned += examined
                    skips += shard.scan_start(q.st)
            if traced:
                event(
                    f"scan shards of I[{ordered[0]}]",
                    entries_scanned=scanned,
                    candidates_after=len(candidates),
                    structures_touched=len(shards),
                )
            for element in ordered[1:]:
                if not candidates:
                    return []
                shards = self._shards.get(element)
                if not shards:
                    if traced:
                        event(f"∩ shards of I[{element}] (absent)")
                    return []
                membership = set(candidates)
                matched: List[int] = []
                scanned = 0
                for shard in shards:
                    examined = shard.scan(q.st, q.end, matched, membership)
                    if traced:
                        scanned += examined
                        skips += shard.scan_start(q.st)
                candidates = matched
                if traced:
                    event(
                        f"∩ shards of I[{element}]",
                        entries_scanned=scanned,
                        candidates_after=len(candidates),
                        structures_touched=len(shards),
                    )
            candidates.sort()
            return candidates
        finally:
            if traced:
                annotate(impact_list_skips=skips)

    # -------------------------------------------------------------- inspection
    def n_shards(self) -> int:
        """Total shards across all postings lists."""
        return sum(len(shards) for shards in self._shards.values())

    def size_bytes(self) -> int:
        total = CONTAINER_BYTES
        for shards in self._shards.values():
            for shard in shards:
                total += CONTAINER_BYTES + len(shard) * ENTRY_FULL_BYTES
                total += len(shard.impact_offsets) * ENTRY_ID_START_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["max_shards"] = self._max_shards
        out["merge_strategy"] = self._merge_strategy
        out["total_shards"] = self.n_shards()
        return out
