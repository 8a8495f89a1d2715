"""tIF+Sharding — the temporal index sharding of Anand et al. [4] (§2.2).

Instead of dividing the time domain, each postings list's entries are grouped
into **shards** by their start timestamp.  Ideal shards satisfy the
*staircase property* — entries sorted by ``t_st`` also have non-decreasing
``t_end`` — so the entries qualifying a query interval form one contiguous
stretch and no replication (hence no de-duplication) is ever needed.

Three ingredients from the original design are reproduced:

* **ideal shard construction** — a greedy first-fit (patience) pass over the
  entries in start order produces the minimal set of staircase chains;
* **impact lists** — per shard, the prefix maximum of ``t_end`` sampled
  every :data:`IMPACT_STRIDE` entries; a binary search finds the first
  offset whose prefix can contain a qualifying entry, and the scan stops
  at the first entry starting after the query.  Because the sampled key is
  the *prefix maximum*, the impact list stays correct even for merged
  (non-ideal) shards;
* **merging** — the number of ideal shards can be overwhelming, so
  smallest-first pairwise merging (our simplification of the paper's
  cost-based merge, see docs/algorithms.md) relaxes the staircase property
  until at most ``max_shards`` remain per list.

A shard keeps its entries in flat columns (``array('q')``; a shard that
gets an endpoint no i64 slot holds keeps the values themselves), and a scan
reads the stretch the impact list and the query's end leave by one mask,
or by a loop when it is short.
Sharding stores exactly one live entry per (element, object) pair — the
paper's Table 5 shows it as the most space-efficient method, at the price
of query throughput; both properties reproduce here.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.core.model import Element, TemporalObject, TimeTravelQuery
from repro.indexes.base import BuildColumns, TemporalIRIndex
from repro.ir.blocks import exact_window
from repro.ir.packed import COMPACT_FRACTION
from repro.obs.context import annotate, event, tracing_active
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES, ENTRY_ID_START_BYTES
from repro.utils.partitioning import staircase_chain_assignment

#: Impact-list sampling stride (entries per sampled offset).
IMPACT_STRIDE = 64

#: Below this many entries to examine a loop beats numpy's set-up (the
#: packed postings lists' threshold).
_VECTOR_MIN = 64

_NO_IDS = np.empty(0, dtype=np.int64)


def _kept(column: "array | list", keep: List[int]) -> "array | list":
    kept = [column[i] for i in keep]
    return array("q", kept) if isinstance(column, array) else kept


class _Shard:
    """Entries in start order, a tombstone byte per slot, and the impact
    list (made by the first scan after a change)."""

    __slots__ = ("ids", "sts", "ends", "alive", "n_dead", "_impact")

    ids: array
    sts: "array | List[Timestamp]"
    ends: "array | List[Timestamp]"

    def __init__(self, ids: np.ndarray, sts: np.ndarray, ends: np.ndarray) -> None:
        """A live shard over start-ordered int64 columns (copied in)."""
        self.ids, self.sts, self.ends = (array("q", c.tobytes()) for c in (ids, sts, ends))
        self.alive = bytearray(b"\x01") * len(ids)
        self.n_dead = 0
        self._impact: Optional[List[Timestamp]] = None

    def __len__(self) -> int:
        """Slots, tombstones included."""
        return len(self.ids)

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, t_st, t_end)``: int64 views, or the endpoint values
        themselves (object) once spilled."""
        ids = np.frombuffer(self.ids, dtype=np.int64)
        if isinstance(self.sts, array):
            return ids, np.frombuffer(self.sts, np.int64), np.frombuffer(self.ends, np.int64)
        return ids, np.array(self.sts, dtype=object), np.array(self.ends, dtype=object)

    # ---------------------------------------------------------------- updates
    def insert(self, pos: int, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Insert an entry at slot ``pos`` of the start order."""
        sts, ends = self.sts, self.ends
        try:
            sts.insert(pos, st)
            ends.insert(pos, end)
        except (TypeError, OverflowError):  # no i64 slot holds it: keep the values
            if len(sts) > len(ends):
                del sts[pos]
            self.sts, self.ends = sts, ends = list(sts), list(ends)
            sts.insert(pos, st)
            ends.insert(pos, end)
        self.ids.insert(pos, object_id)
        self.alive.insert(pos, 1)
        self._impact = None

    def tombstone(self, object_id: int, st: Timestamp) -> bool:
        """Tombstone the live entry of ``object_id`` starting at ``st``, if
        held; once dead slots outnumber live ones (the packed lists' rule,
        at any length), the shard compacts."""
        ids, sts, alive = self.ids, self.sts, self.alive
        i = bisect_left(sts, st)
        while i < len(sts) and sts[i] == st:
            if ids[i] == object_id and alive[i]:
                alive[i] = 0
                self.n_dead += 1
                if self.n_dead > len(ids) * COMPACT_FRACTION:
                    keep = [k for k, live in enumerate(alive) if live]
                    self.ids = array("q", [ids[k] for k in keep])
                    self.sts, self.ends = _kept(sts, keep), _kept(self.ends, keep)
                    self.alive, self.n_dead, self._impact = bytearray(b"\x01") * len(keep), 0, None
                return True
            i += 1
        return False

    # ------------------------------------------------------------------ reads
    def impact_size(self) -> int:
        """Sampled offsets in the impact list: one per :data:`IMPACT_STRIDE`
        slots below the last, whether or not a scan has made it yet."""
        return max(len(self) - 1, 0) // IMPACT_STRIDE

    def scan_start(self, q_st: Timestamp) -> int:
        """First offset from which a qualifying entry may exist.

        Entries before the returned offset all satisfy ``t_end < q_st``
        (their prefix maximum is below the query start), so they can never
        overlap the query.
        """
        if self._impact is None:
            ends = self._columns()[2]
            prefix_max = np.maximum.accumulate(ends) if len(ends) else ends
            # Sampled at offsets STRIDE, 2·STRIDE, … below the length: the
            # maximum of the entries before each.
            sampled = prefix_max[IMPACT_STRIDE - 1 :: IMPACT_STRIDE]
            self._impact = sampled[: max(len(ends) - 1, 0) // IMPACT_STRIDE].tolist()
        return IMPACT_STRIDE * bisect_left(self._impact, q_st)

    def scan(
        self,
        q_st: Timestamp,
        q_end: Timestamp,
        window: Optional[Tuple[int, int]],
        out: List[int],
    ) -> Tuple[Optional[np.ndarray], int, int]:
        """The live ids overlapping ``[q_st, q_end]``, in start order:
        appended to ``out`` when a loop examines them, returned as an array
        when a mask does (a stretch of :data:`_VECTOR_MIN` entries or more);
        with the impact list's skip and the entries examined, from the skip
        to the first entry starting after ``q_end``.  Int64 columns meet the
        bounds as ``window``, their :func:`~repro.ir.blocks.exact_window`."""
        if isinstance(self.sts, array):
            if window is None:
                return None, 0, 0
            q_st, q_end = window
        ids, sts, ends, alive = self.ids, self.sts, self.ends, self.alive
        start = 0
        if len(ids) > IMPACT_STRIDE:
            start = self.scan_start(q_st)
            stop = max(start, bisect_right(sts, q_end))
            if stop - start >= _VECTOR_MIN:
                id_column, _sts, end_column = self._columns()
                mask = end_column[start:stop] >= q_st
                if self.n_dead:
                    mask &= np.frombuffer(alive, dtype=np.uint8)[start:stop] != 0
                return id_column[start:stop][mask], start, stop - start
            ids, sts = ids[start:stop], sts[start:stop]
            ends, alive = ends[start:stop], alive[start:stop]
        examined = 0
        for object_id, st, end, live in zip(ids, sts, ends, alive):
            if st > q_end:
                break
            examined += 1
            if live and end >= q_st:
                out.append(object_id)
        return None, start, examined


def _merged(sizes: List[int], max_shards: int) -> List[List[int]]:
    """The chains each shard holds: one each, or, past ``max_shards``, the
    two smallest shards merged until ``max_shards`` remain (a merged shard
    goes before the shards of its size)."""
    shards = [(size, [chain]) for chain, size in enumerate(sizes)]
    if len(shards) > max_shards:
        shards.sort(key=lambda shard: shard[0])
        while len(shards) > max_shards:
            (a, first), (b, second) = shards.pop(0), shards.pop(0)
            at = bisect_left(shards, a + b, key=lambda shard: shard[0])
            shards.insert(at, (a + b, first + second))
    return [chains for _size, chains in shards]


def _shards(ids: np.ndarray, sts: np.ndarray, ends: np.ndarray, max_shards: int) -> List[_Shard]:
    """One list's shards: its entries sorted by ``(t_st, id)``, cut into
    staircase chains (the ideal shards, in first-seen order; the shared
    patience pass of :func:`repro.utils.partitioning.staircase_chain_assignment`),
    merged down to ``max_shards``."""
    order = np.lexsort((ids, sts))
    ids, sts, ends = ids[order], sts[order], ends[order]
    chains = np.array(staircase_chain_assignment(ends.tolist()), dtype=np.intp)
    sizes = np.bincount(chains)
    if len(sizes) == 1:  # one staircase
        return [_Shard(ids, sts, ends)]
    groups = _merged(sizes.tolist(), max_shards)
    shard_of = np.empty(len(sizes), dtype=np.intp)
    for shard, members in enumerate(groups):
        shard_of[members] = shard
    owner = shard_of[chains]
    order = np.argsort(owner, kind="stable")  # (t_st, id) order within each
    ids, sts, ends = ids[order], sts[order], ends[order]
    bounds = [0, *np.cumsum(np.bincount(owner, minlength=len(groups))).tolist()]
    return [_Shard(ids[a:b], sts[a:b], ends[a:b]) for a, b in zip(bounds, bounds[1:])]


class TIFSharding(TemporalIRIndex):
    """Inverted file with horizontally sharded postings lists."""

    name = "tIF+Sharding"

    def __init__(self, max_shards: int = 16) -> None:
        super().__init__()
        self._max_shards = max_shards
        self._shards: Dict[Element, List[_Shard]] = {}

    # ---------------------------------------------------------------- updates
    def _load_columns(self, columns: BuildColumns) -> None:
        """Every element's shards, from its run cut from one sort."""
        max_shards = self._max_shards
        self._shards = {
            element: _shards(*run.columns(), max_shards) for element, run in columns.runs()
        }

    # Each entry goes after the entries starting at or before it, in the
    # first shard whose staircase it keeps there.
    def _insert_impl(self, obj: TemporalObject) -> None:
        object_id, st, end = obj.id, obj.st, obj.end
        for element in obj.d:
            shards = self._shards.get(element)
            if shards is None:
                shards = self._shards[element] = []
            for shard in shards:
                ends = shard.ends
                pos = bisect_right(shard.sts, st)
                if not ((pos and ends[pos - 1] > end) or (pos < len(ends) and end > ends[pos])):
                    break
            else:
                if len(shards) < 2 * self._max_shards:
                    shard, pos = _Shard(_NO_IDS, _NO_IDS, _NO_IDS), 0
                    shards.append(shard)
                else:  # relax the staircase: put it in the smallest shard
                    shard = min(shards, key=len)
                    pos = bisect_right(shard.sts, st)
            shard.insert(pos, object_id, st, end)

    def _delete_impl(self, obj: TemporalObject) -> None:
        found = False
        for element in obj.d:
            for shard in self._shards.get(element, ()):
                if shard.tombstone(obj.id, obj.st):
                    found = True
                    break
        if obj.d and not found:
            raise UnknownObjectError(obj.id)

    # ------------------------------------------------------------------ query
    def _query_impl(self, q: TimeTravelQuery) -> "np.ndarray | List[int]":
        traced = tracing_active()
        skips = 0
        candidates: "np.ndarray | List[int] | None" = None
        window = exact_window(q.st, q.end)
        try:
            for element in self.order_query_elements(q):
                label = f"{'scan' if candidates is None else '∩'} shards of I[{element}]"
                shards = self._shards.get(element)
                if not shards:
                    if traced:
                        event(f"{label} (absent)")
                    return []
                looped: List[int] = []
                masked: List[np.ndarray] = []
                scanned = 0
                for shard in shards:
                    found, skipped, examined = shard.scan(q.st, q.end, window, looped)
                    if found is not None:
                        masked.append(found)
                    skips += skipped
                    scanned += examined
                # One live entry per object and element: the hits repeat no id.
                if len(looped) + sum(map(len, masked)) < _VECTOR_MIN:  # few: stay in Python
                    for ids in masked:
                        looped.extend(ids.tolist())
                    if candidates is None:
                        candidates = sorted(looped)
                    else:
                        held = set(looped)
                        candidates = [c for c in candidates if c in held]
                else:
                    joined = np.concatenate([np.array(looped, dtype=np.int64), *masked])
                    if candidates is None:
                        candidates = np.sort(joined)
                    else:
                        candidates = np.intersect1d(candidates, joined, assume_unique=True)
                if traced:
                    event(
                        label,
                        entries_scanned=scanned,
                        candidates_after=len(candidates),
                        structures_touched=len(shards),
                    )
                if not len(candidates):
                    break
            return [] if candidates is None else candidates
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
                total += shard.impact_size() * ENTRY_ID_START_BYTES
        return total

    def stats(self) -> dict:
        out = super().stats()
        out["max_shards"] = self._max_shards
        out["total_shards"] = self.n_shards()
        return out
