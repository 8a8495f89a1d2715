"""The batch query executor: dedup → cache → sort → evaluate → reassemble.

:class:`QueryExecutor` accepts batches of
:class:`~repro.core.model.TimeTravelQuery` objects and answers each one
exactly as ``index.query(q)`` would, while applying batch-level
optimisations that a per-query API cannot:

* **deduplication** — identical queries (same interval, same element set)
  are evaluated once; repeats receive copies of the first answer;
* **cache probe** — with ``cache_size > 0``, answers are served from an
  attached :class:`~repro.exec.cache.ResultCache` that every index
  mutation invalidates (see :mod:`repro.indexes.base`);
* **interval sort** — remaining misses are evaluated in ``(st, end)``
  order, so consecutive queries touch neighbouring HINT partitions and
  time slices (warm lines instead of random walks), one ``index.query``
  after another on the calling thread.

The executor targets either a bare index or a
:class:`~repro.service.DurableIndexStore`; with a store, the *live* index
is resolved at every batch, so a ``bootstrap()`` swap cannot leave the
executor querying a stale object, and the cache registers through the
store so the swap invalidates it too.

The index must not be mutated *during* a batch (mutations between batches
are the supported, cache-invalidating case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ConfigurationError
from repro.core.model import TimeTravelQuery
from repro.exec.cache import ResultCache, cache_key
from repro.indexes.base import TemporalIRIndex
from repro.obs.registry import OBS
from repro.utils.timing import Stopwatch


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    """What one :meth:`QueryExecutor.run` call did, for logs and benches."""

    queries: int  #: queries submitted
    unique: int  #: distinct queries after deduplication
    cache_hits: int  #: distinct queries answered from the cache
    executed: int  #: distinct queries evaluated against the index
    seconds: float  #: wall-clock for the whole batch

    @property
    def duplicates(self) -> int:
        """Queries answered by copying another query's result."""
        return self.queries - self.unique

    @property
    def queries_per_second(self) -> float:
        return self.queries / self.seconds if self.seconds > 0 else float("inf")

    def summary(self) -> str:
        """One human line, used by the CLI batch mode."""
        ms = self.seconds * 1000.0
        return (
            f"{self.queries} queries ({self.unique} unique, "
            f"{self.cache_hits} cached, {self.executed} executed) "
            f"in {ms:.2f} ms "
            f"({self.queries_per_second:,.0f} q/s)"
        )


class QueryExecutor:
    """Batched, cached query execution.

    Parameters
    ----------
    target:
        A :class:`~repro.indexes.base.TemporalIRIndex`, or a
        :class:`~repro.service.DurableIndexStore` (its live index is
        re-resolved on every batch).
    strategy:
        Accepts only ``"serial"``, the one way a batch runs.
    cache_size:
        ``0`` disables caching; ``> 0`` attaches an invalidating
        :class:`~repro.exec.cache.ResultCache` of that capacity.
    """

    def __init__(
        self,
        target: Union[TemporalIRIndex, "object"],
        *,
        strategy: str = "serial",
        cache_size: int = 0,
    ) -> None:
        # Kept for benchmarks/ledger/wl_daemon_query.py, which passes it.
        if strategy != "serial":
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; only 'serial' exists"
            )
        self._target = target
        if not isinstance(target, TemporalIRIndex) and not hasattr(target, "index"):
            raise ConfigurationError(
                f"executor target must be an index or a store, got {type(target).__name__}"
            )
        self.cache: Optional[ResultCache] = None
        if cache_size:
            self.cache = ResultCache(cache_size)
            # Attach through the *target*: an index invalidates on its own
            # insert/delete; a store additionally re-attaches (and therefore
            # invalidates) across bootstrap index swaps.
            target.attach_cache(self.cache)
        self.last_report: Optional[ExecutionReport] = None

    # ------------------------------------------------------------------ state
    @property
    def index(self) -> TemporalIRIndex:
        """The index batches run against, resolved now (live for stores)."""
        target = self._target
        if isinstance(target, TemporalIRIndex):
            return target
        return target.index

    # -------------------------------------------------------------- execution
    def run(self, queries: Sequence[TimeTravelQuery]) -> List[List[int]]:
        """Answer every query; results in submission order.

        Each returned list is an independent object — mutating one never
        affects another result, the cache, or a later batch.
        """
        batch = list(queries)
        if not batch:
            self.last_report = ExecutionReport(0, 0, 0, 0, 0.0)
            return []
        watch = Stopwatch()
        watch.start()
        index = self.index
        cache = self.cache

        # 1. Deduplicate (first-seen order) and probe the cache.
        keys: List[Hashable] = []
        resolved: Dict[Hashable, List[int]] = {}
        pending: Dict[Hashable, TimeTravelQuery] = {}
        cache_hits = 0
        for q in batch:
            key = cache_key(q)
            keys.append(key)
            if key in resolved or key in pending:
                continue
            if cache is not None:
                hit = cache.get(q)
                if hit is not None:
                    resolved[key] = hit
                    cache_hits += 1
                    continue
            pending[key] = q

        # 2. Sort the misses by query interval for partition locality.
        misses: List[Tuple[Hashable, TimeTravelQuery]] = list(pending.items())
        misses.sort(key=lambda kv: (kv[1].st, kv[1].end, len(kv[1].d)))

        # 3. Evaluate one after another; 4. fill the cache.
        for key, q in misses:
            result = index.query(q)
            resolved[key] = result
            if cache is not None:
                cache.put(q, result)

        # 5. Reassemble in submission order; duplicates get copies.
        out: List[List[int]] = []
        emitted: set = set()
        for key in keys:
            result = resolved[key]
            if key in emitted:
                result = list(result)
            else:
                emitted.add(key)
            out.append(result)

        seconds = watch.stop()
        report = ExecutionReport(
            queries=len(batch),
            unique=len(resolved),
            cache_hits=cache_hits,
            executed=len(misses),
            seconds=seconds,
        )
        self.last_report = report
        registry = OBS.registry
        if registry.enabled:
            from repro.obs.instruments import exec_instruments

            instruments = exec_instruments(registry)
            instruments.batches.inc()
            instruments.queries.inc(report.queries)
            instruments.batch_size.observe(report.queries)
            instruments.batch_seconds.observe(seconds)
            if report.duplicates:
                instruments.deduped.inc(report.duplicates)
        return out

    def run_one(self, q: TimeTravelQuery) -> List[int]:
        """Single-query convenience (still cache-aware)."""
        return self.run([q])[0]
