"""Shared fixtures: the paper's running example and randomized corpora."""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.collection import Collection
from repro.core.model import TemporalObject, make_object, make_query
from repro.indexes import timefirst


@pytest.fixture()
def running_example() -> Collection:
    """The paper's running example (Figure 1), on the 8-cell domain of m=3.

    Intervals are chosen to match the figure's layout; the paper's Example
    2.2 query — interval over the shaded area with ``q.d = {a, c}`` —
    answers ``{o2, o4, o7}``.
    """
    return Collection(
        [
            make_object(1, 5, 6, {"a", "b", "c"}),
            make_object(2, 2, 7, {"a", "c"}),
            make_object(3, 0, 1, {"b"}),
            make_object(4, 0, 7, {"a", "b", "c"}),
            make_object(5, 3, 5, {"b", "c"}),
            make_object(6, 1, 5, {"c"}),
            make_object(7, 1, 7, {"a", "c"}),
            make_object(8, 1, 2, {"c"}),
        ]
    )


@pytest.fixture()
def small_tables(monkeypatch):
    """irHINT-performance with its crossover forced down: every list of at
    least 8 entries gets a time-first table, so collections of a few
    hundred objects reach the table."""
    monkeypatch.setattr(timefirst, "TABLE_MIN", 8)


@pytest.fixture()
def example_query():
    """Example 2.2's query: overlaps cells [2, 4], asks for {a, c}."""
    return make_query(2, 4, {"a", "c"})


ELEMENTS = [f"e{i}" for i in range(40)]
WEIGHTS = [1.0 / (i + 1) for i in range(len(ELEMENTS))]


def random_objects(
    n: int,
    seed: int,
    domain: int = 20_000,
    max_duration: int = 2_000,
    max_elements: int = 6,
) -> List[TemporalObject]:
    """Reproducible random objects with zipf-ish element popularity."""
    rng = random.Random(seed)
    objects = []
    for i in range(n):
        st = rng.randint(0, domain)
        end = st + rng.randint(0, max_duration)
        k = rng.randint(1, max_elements)
        d = frozenset(rng.choices(ELEMENTS, weights=WEIGHTS, k=k))
        objects.append(TemporalObject(id=i, st=st, end=end, d=d))
    return objects


@pytest.fixture()
def random_collection() -> Collection:
    """500 random objects (fixed seed)."""
    return Collection(random_objects(500, seed=11))


def random_queries(collection: Collection, n: int, seed: int):
    """Random queries mixing extents and element counts (may be empty)."""
    rng = random.Random(seed)
    domain = collection.domain()
    span = domain.end - domain.st
    queries = []
    for _ in range(n):
        st = rng.randint(domain.st - span // 10, domain.end)
        extent = rng.randint(0, span // 2)
        k = rng.randint(0, 3)
        d = frozenset(rng.choices(ELEMENTS, weights=WEIGHTS, k=k))
        queries.append(make_query(st, st + extent, d))
    return queries
