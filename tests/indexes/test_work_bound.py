"""``work_bound``: sound where an index bounds its reads, ``None`` elsewhere.

Seeded traces interleave inserts, deletes and queries on every mutable
postings backend.  Before each query the bound is read; the query then
runs under :func:`repro.indexes.explain`, and the bound must cover the
``entries_scanned`` its own trace sums to.  ``irhint-perf`` (crossover
forced to 8 entries, so its lists reach time-first tables) must answer
``None`` exactly when the query builds or rebuilds a table.  Every other
registry key inherits ``None``.

Determinism: every trace derives from an integer seed; a failure prints
the key, backend, seed and step.
"""

from __future__ import annotations

import random

import pytest

from repro.core.collection import Collection
from repro.core.model import make_query
from repro.indexes import timefirst
from repro.indexes.explain import explain
from repro.indexes.registry import INDEX_CLASSES, build_index
from repro.ir.backends import POSTINGS_BACKEND_ENV

from tests.conftest import ELEMENTS, WEIGHTS, random_objects, random_queries

BOUNDED = ("tif", "irhint-perf")
N_STEPS = 240


@pytest.mark.parametrize("seed", (7, 2026))
@pytest.mark.parametrize("backend", ("list", "packed", "compressed"))
@pytest.mark.parametrize("key", BOUNDED)
def test_bound_covers_the_queries_own_trace(key, backend, seed, small_tables, monkeypatch):
    monkeypatch.setenv(POSTINGS_BACKEND_ENV, backend)
    rng = random.Random(seed)
    objects = random_objects(320, seed, domain=5_000, max_duration=800)
    index = build_index(key, Collection(objects[:200]))
    pending, live = objects[200:], [obj.id for obj in objects[:200]]
    table_scans = rebuilds = 0
    for step in range(N_STEPS):
        roll = rng.random()
        if roll < 0.2 and pending:
            obj = pending.pop()
            index.insert(obj)
            live.append(obj.id)
            continue
        if roll < 0.4 and live:
            index.delete(live.pop(rng.randrange(len(live))))
            continue
        st = rng.randint(-200, 5_200)
        elements = set(rng.choices(ELEMENTS, weights=WEIGHTS, k=rng.randint(1, 3)))
        if rng.random() < 0.05:
            elements.add("never-indexed")
        q = make_query(st, st + rng.randint(0, 2_500), elements)

        bound = index.work_bound(q)
        tables = getattr(index, "_tables", {})
        before = dict(tables)
        scanned = explain(index, q).total_entries_scanned
        rebuilt = any(table is not before.get(e) for e, table in tables.items())
        where = f"{key}/{backend} seed={seed} step={step} q={q}"
        assert (bound is None) == rebuilt, f"bound {bound}, rebuilt {rebuilt}: {where}"
        if bound is not None:
            assert bound >= scanned, f"bound {bound} < {scanned} entries scanned: {where}"
            rarest = index.order_query_elements(q)[0]
            table_scans += timefirst.wants_table(index.inverted_file.postings(rarest))
        rebuilds += rebuilt
    if key == "irhint-perf" and backend == "packed":
        # The trace reached both sides: queries that (re)built a table and
        # bounded queries served from a fresh one.
        assert rebuilds and table_scans


@pytest.mark.parametrize("key", BOUNDED)
def test_pure_temporal_queries_are_unbounded(key, random_collection):
    """A query without elements scans the catalog, not postings."""
    index = build_index(key, random_collection)
    assert index.work_bound(make_query(0, 10_000, set())) is None


@pytest.mark.parametrize("key", sorted(set(INDEX_CLASSES) - set(BOUNDED)))
def test_other_registry_keys_cannot_bound(key, random_collection):
    index = build_index(key, random_collection)
    for q in random_queries(random_collection, 20, seed=5):
        assert index.work_bound(q) is None
