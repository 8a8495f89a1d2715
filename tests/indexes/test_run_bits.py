"""Bugfix: a run's ``m`` depends on its entries, not on how the index got them.

The cost rule picks each run's ``m`` (0: read flat) from the run's own
columns at every (re)build.  Built from a collection, grown object by
object with queries between the inserts, or recovered through a
:class:`~repro.service.store.DurableIndexStore` from a snapshot and a log
tail, every HINT-based index must hold the same runs at the same ``m``.
The index used to fix one ``m`` per index instead: irHINT-size took the
sampled model's over the collection it was built from but 10 when it
started empty, and irHINT-perf froze the model's ``m`` over whatever it
held the first time anything asked.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.collection import Collection
from repro.core.model import make_query
from repro.indexes.registry import build_index
from repro.service.store import DurableIndexStore

from tests.conftest import random_objects

HINT_BASED = ("tif-hint-binary", "tif-hint-merge", "tif-hint-slicing", "irhint-perf", "irhint-size")


def run_bits(index) -> Dict[object, int]:
    """Every run's ``m`` at rest, 0 for a run read flat."""
    hints = getattr(index, "_hints", None) or {"store": index.interval_hint}
    return {
        element: 0 if (table := hint.settled()) is None else table.mapper.num_bits
        for element, hint in hints.items()
    }


@pytest.fixture(params=["shipped", "small-tables"])
def charges(request):
    if request.param == "small-tables":
        request.getfixturevalue("small_tables")
    return request.param


@pytest.mark.parametrize("key", HINT_BASED)
def test_same_objects_same_bits_however_built(key, charges, tmp_path):
    objects = random_objects(3_000, seed=29, domain=200_000, max_duration=4_000)
    built = run_bits(build_index(key, Collection(objects)))
    if charges == "small-tables":
        assert any(built.values()), "no run reached a table"

    grown = build_index(key, Collection([]))
    for i, obj in enumerate(objects):
        grown.insert(obj)
        if i in (50, 1_000):  # a query mid-growth asks for m
            grown.query(make_query(obj.st, obj.end, set(obj.d)))
    assert run_bits(grown) == built

    store = DurableIndexStore.open(tmp_path / "t", index_key=key, wal_fsync=False)
    for i, obj in enumerate(objects):
        store.insert(obj)
        if i == 1_500:
            store.checkpoint()
    store.close()
    with DurableIndexStore.open(tmp_path / "t", index_key=key, wal_fsync=False) as store:
        assert run_bits(store.index) == built
