"""``work_bound``: sound where an index bounds its reads, ``None`` elsewhere.

Seeded traces interleave inserts, deletes and queries, on packed columns
and (the ``list`` leg: every timestamp half a unit off the integers) on
the Python lists a packed list spills to.  Before each query the bound is
read; the query then runs under :func:`repro.indexes.explain`, and the
bound must cover the ``entries_scanned`` its own trace sums to.
``irhint-perf`` (under the ``small_tables`` charges, so its packed lists
reach time-first tables) must answer ``None`` exactly when the query asks
the cost rule again, which may build a table.  Every other registry key inherits ``None``.

Determinism: every trace derives from an integer seed; a failure prints
the key, leg, seed and step.
"""

from __future__ import annotations

import random

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.indexes.explain import explain
from repro.indexes.registry import INDEX_CLASSES, build_index

from tests.conftest import ELEMENTS, WEIGHTS, random_objects, random_queries

BOUNDED = ("tif", "irhint-perf")
N_STEPS = 240


@pytest.mark.parametrize("seed", (7, 2026))
@pytest.mark.parametrize("backend", ("list", "packed"))
@pytest.mark.parametrize("key", BOUNDED)
def test_bound_covers_the_queries_own_trace(key, backend, seed, small_tables, rule_paths):
    rng = random.Random(seed)
    objects = random_objects(320, seed, domain=5_000, max_duration=800)
    if backend == "list":  # a float timestamp spills every list it lands in
        objects = [make_object(o.id, o.st + 0.5, o.end + 0.5, o.d) for o in objects]
    index = build_index(key, Collection(objects[:200]))
    pending, live = objects[200:], [obj.id for obj in objects[:200]]
    rebuilds = 0

    def verdicts():
        """Each run's verdict as held, read without asking the rule."""
        return {e: hint._table for e, hint in getattr(index, "_hints", {}).items()}

    def check(q, where):
        bound = index.work_bound(q)
        before = verdicts()
        scanned = explain(index, q).total_entries_scanned
        rebuilt = any(verdict is not before.get(e) for e, verdict in verdicts().items())
        assert (bound is None) == rebuilt, f"bound {bound}, rebuilt {rebuilt}: {where}"
        if bound is not None:
            assert bound >= scanned, f"bound {bound} < {scanned} entries scanned: {where}"
        return rebuilt

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
        rebuilds += check(q, f"{key}/{backend} seed={seed} step={step} q={q}")
    # The whole domain, twice: a window every slot of a list meets, read
    # through a fresh verdict the second time.
    for _ in range(2):
        q = make_query(-200, 6_000, {ELEMENTS[0]})
        rebuilds += check(q, f"{key}/{backend} seed={seed} whole domain")
    # A run the rule reads flat, twice: one point interval, which a table
    # could only read as one row and more.
    index.insert(make_object(10_000, 2_500, 2_500, {"point"}))
    for _ in range(2):
        q = make_query(0, 5_000, {"point"})
        rebuilds += check(q, f"{key}/{backend} seed={seed} flat run")
    if key == "irhint-perf" and backend == "packed":
        # The trace reached every side: queries that asked the rule again,
        # reads served by a table, windows sent flat per query, and runs
        # read flat.
        assert rebuilds and all(rule_paths.values()), rule_paths


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
