"""A size-bounded LRU cache for query result sets, checked by data version.

Keys are ``(q.st, q.end, q.d)`` — the full identity of a
:class:`~repro.core.model.TimeTravelQuery` (``q.d`` is already a
``frozenset``), so two queries collide exactly when every index would
answer them identically.  Values are the sorted id lists the indexes
return; the cache stores and hands out *copies*, so callers may mutate
results without corrupting later hits.

Every entry remembers the data version its answer was computed at (an
index's :attr:`~repro.indexes.base.TemporalIRIndex.version`, or a
replica set's tuple of them), and :meth:`ResultCache.get` hits only on an
equal version; an entry of any other version is a miss and is dropped.
Nothing tells the cache about a mutation: the version it is asked with
has simply moved on.  A reader takes the version *before* it evaluates,
so a write that lands while the answer is being computed leaves an entry
no later lookup can match.  The guarantee is therefore simple: **a cache
never serves a result computed before the most recent mutation of the
data it is asked about** (see ``docs/execution.md``).  Versions are never
reused within a process, so a cache carried to another index, or to a
rebuilt one, never serves its old entries.

Thread safety: all operations take an internal lock, so a cache may be
shared by concurrent readers and writers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.model import TimeTravelQuery
from repro.obs.registry import OBS
from repro.utils.locks import make_lock

#: The cache identity of a query: interval endpoints plus the element set.
CacheKey = Tuple[object, object, frozenset]
#: The data version an answer was computed at (compared with ``==`` only).
Version = object


def cache_key(q: TimeTravelQuery) -> CacheKey:
    """The cache key of a query — ``(interval, frozenset(q.d))`` flattened."""
    return (q.st, q.end, q.d)


class ResultCache:
    """LRU map from query identity to its version and sorted result-id list.

    Parameters
    ----------
    capacity:
        Maximum number of cached result sets (>= 1).  Bounding by entry
        count rather than bytes keeps eviction O(1); result lists on the
        paper's workloads are small compared to the index itself.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[CacheKey, Tuple[Version, List[int]]]" = OrderedDict()
        self._lock = make_lock("exec.cache")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ access
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, q: TimeTravelQuery, version: Version) -> Optional[List[int]]:
        """The result cached for ``q`` at ``version`` (a copy), or ``None``.

        An entry cached at another version is a miss, and is dropped.
        """
        key = cache_key(q)
        result: Optional[List[int]] = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == version:
                self._entries.move_to_end(key)
                self.hits += 1
                result = list(entry[1])
            else:
                if entry is not None:
                    del self._entries[key]
                self.misses += 1
            size = len(self._entries)
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cache_instruments

            instruments = cache_instruments(registry)
            if result is None:
                instruments.misses.inc()
                instruments.entries.set(size)
            else:
                instruments.hits.inc()
        return result

    def put(self, q: TimeTravelQuery, version: Version, result: List[int]) -> None:
        """Store (a copy of) ``result`` as computed at ``version``, evicting
        the LRU entry if full."""
        key = cache_key(q)
        evicted = 0
        with self._lock:
            self._entries[key] = (version, list(result))
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            size = len(self._entries)
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import cache_instruments

            instruments = cache_instruments(registry)
            if evicted:
                instruments.evictions.inc(evicted)
            instruments.entries.set(size)

    # -------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, int]:
        """Counters snapshot: sizes, hits, misses, evictions."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(capacity={self._capacity}, entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
