"""repro — Fast Indexing for Temporal Information Retrieval.

A pure-Python reproduction of Rauch & Bouros (SIGMOD): the HINT interval
index, temporal inverted files, the published IR-first baselines
(tIF+Slicing, tIF+Sharding), the paper's IR-first contributions
(tIF+HINT, tIF+HINT+Slicing) and the time-first irHINT index in its
performance and size variants — plus dataset generators, query workloads and
a benchmark harness regenerating every table and figure of the evaluation.

Quickstart
----------
>>> from repro import Collection, make_object, make_query
>>> from repro.indexes import IRHintPerformance
>>> col = Collection(make_object(i, i, i + 5, {"a", "b"}) for i in range(10))
>>> idx = IRHintPerformance.build(col)
>>> idx.query(make_query(3, 4, {"a"}))
array([0, 1, 2, 3, 4])
"""

from repro.core import (
    Collection,
    CollectionStats,
    Dictionary,
    Interval,
    TemporalObject,
    TimeTravelQuery,
    make_object,
    make_query,
)

__version__ = "1.0.0"

__all__ = [
    "Collection",
    "CollectionStats",
    "Dictionary",
    "Interval",
    "TemporalObject",
    "TimeTravelQuery",
    "__version__",
    "make_object",
    "make_query",
]
