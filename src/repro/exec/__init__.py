"""Batched query execution over any registry index.

The paper's evaluation measures one query at a time; serving wants
*batches*: reorder for locality, deduplicate repeats, and cache popular
answers.  This package supplies that layer without touching any index's
query semantics — the :class:`~repro.exec.executor.QueryExecutor`
returns, for every submitted query, exactly what ``index.query(q)`` would
have returned.

Components
----------
:class:`~repro.exec.cache.ResultCache`
    Size-bounded LRU over ``(interval, frozenset(q.d))`` keys, invalidated
    on every index mutation (wired through
    :meth:`repro.indexes.base.TemporalIRIndex.attach_cache`).
:class:`~repro.exec.executor.QueryExecutor`
    dedup → cache probe → interval sort → one ``index.query`` loop →
    cache fill → reassembly in submission order.

See ``docs/execution.md`` for the measurements behind the one serial
loop and the invalidation guarantees.
"""

from repro.exec.cache import ResultCache, cache_key
from repro.exec.executor import ExecutionReport, QueryExecutor

__all__ = [
    "ExecutionReport",
    "QueryExecutor",
    "ResultCache",
    "cache_key",
]
