"""Indexes started empty keep a grid that follows their data.

A store opened on a fresh directory builds every index from nothing, and
live ingest hands it objects with ever later timestamps.  An index whose
grid was fixed to the first object's lifespan (plus some head-room) would
clamp all the later ones into its last cell or slice: answers stay right,
but every query reads that one overfull partition.  Here each grid index
starts empty, takes 2,048 objects ten time units apart, and must answer
narrow windows like BruteForce while each query phase reads a small share
of its list — the relevant cells or slices, not nearly everything.  (The
shipped cost rule reads runs this short flat; the ``small_tables``
charges give the HINT-based indexes their tables.)
"""

import pytest

from repro.bench.tuned import tuned
from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.indexes import BruteForce, build_index
from repro.indexes.explain import explain

KEYS = ["tif-hint-binary", "tif-hint-merge", "tif-hint-slicing", "irhint-size", "tif-slicing"]
N = 2048


def _objects(first, count):
    return [
        make_object(i, 10 * i, 10 * i + 5 + (i % 7) * 3, {"a"} | ({"b"} if i % 2 else set()))
        for i in range(first, first + count)
    ]


@pytest.mark.parametrize("key", KEYS)
def test_started_empty_queries_read_a_small_share(key, small_tables):
    index = build_index(key, Collection([]), **tuned(key))
    oracle = BruteForce()
    for obj in _objects(0, N):
        index.insert(obj)
        oracle.insert(obj)
    for st in (100, 5_000, 10_000, 15_000, 20_000):
        for d in ({"a"}, {"a", "b"}):
            q = make_query(st, st + 50, d)
            assert index.query(q).tolist() == oracle.query(q).tolist(), (key, q)
            explanation = explain(index, q)
            for phase in explanation.phases:
                assert phase.entries_scanned <= N // 8, (key, q, phase)
    if key == "irhint-size":
        # The store's objects spread over the grid, not over a handful of
        # divisions at its top.
        assert index.n_divisions() >= 256
    # Ingest goes on: deletes and later objects keep the answers exact.
    for obj in _objects(0, N)[::5]:
        index.delete(obj.id)
        oracle.delete(obj.id)
    for obj in _objects(N, N // 2):
        index.insert(obj)
        oracle.insert(obj)
    for st in (0, 12_345, 25_000, 30_700):
        for d in ({"a"}, {"b"}, {"a", "b"}, set()):
            q = make_query(st, st + 400, d)
            assert index.query(q).tolist() == oracle.query(q).tolist(), (key, q)
