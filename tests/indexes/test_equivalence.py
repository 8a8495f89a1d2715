"""Cross-index equivalence: every method returns exactly the oracle's answer.

This is the library's strongest guarantee — all nine indexes implement the
same query semantics (Definition 2.1), so on any collection and any query
they must agree bit-for-bit with the brute-force evaluation, before and
after arbitrary update sequences.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.collection import Collection
from repro.core.model import TemporalObject, TimeTravelQuery
from repro.indexes.registry import INDEX_CLASSES, build_index
from tests.conftest import random_collection as _fixture  # noqa: F401 (doc aid)
from tests.conftest import random_objects, random_queries

ALL_KEYS = sorted(INDEX_CLASSES)

ELEMENTS = ["a", "b", "c", "d", "e"]


@st.composite
def collections(draw):
    n = draw(st.integers(1, 40))
    objects = []
    for i in range(n):
        st_ = draw(st.integers(0, 200))
        end = st_ + draw(st.integers(0, 80))
        d = draw(st.frozensets(st.sampled_from(ELEMENTS), min_size=0, max_size=4))
        objects.append(TemporalObject(id=i, st=st_, end=end, d=d))
    return Collection(objects)


@st.composite
def queries(draw):
    st_ = draw(st.integers(-20, 220))
    end = st_ + draw(st.integers(0, 150))
    d = draw(st.frozensets(st.sampled_from(ELEMENTS), min_size=0, max_size=3))
    return TimeTravelQuery(st_, end, d)


@pytest.mark.parametrize("key", ALL_KEYS)
class TestAgainstOracle:
    def test_randomized_collection(self, key, random_collection):
        index = build_index(key, random_collection)
        for q in random_queries(random_collection, 40, seed=5):
            assert index.query(q).tolist() == random_collection.evaluate(q), q

    def test_after_update_storm(self, key, random_collection):
        index = build_index(key, random_collection)
        # Delete a third, insert fresh objects, delete some of those too.
        for object_id in range(0, 500, 3):
            index.delete(object_id)
            random_collection.remove(object_id)
        fresh = random_objects(120, seed=77, domain=30_000)
        for obj in fresh:
            renamed = TemporalObject(id=obj.id + 10_000, st=obj.st, end=obj.end, d=obj.d)
            index.insert(renamed)
            random_collection.add(renamed)
        for object_id in range(10_000, 10_060, 2):
            index.delete(object_id)
            random_collection.remove(object_id)
        for q in random_queries(random_collection, 30, seed=6):
            assert index.query(q).tolist() == random_collection.evaluate(q), q


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(collections(), st.lists(queries(), min_size=1, max_size=6))
def test_all_indexes_agree_property(collection, query_list):
    """Hypothesis: all nine indexes equal the oracle on arbitrary inputs."""
    indexes = [build_index(key, collection) for key in ALL_KEYS]
    for q in query_list:
        expected = collection.evaluate(q)
        for key, index in zip(ALL_KEYS, indexes):
            assert index.query(q).tolist() == expected, (key, q)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(collections(), queries(), st.data())
def test_delete_matches_rebuild_property(collection, q, data):
    """Tombstone deletion is semantically identical to rebuilding without
    the deleted objects."""
    ids = collection.ids()
    to_delete = data.draw(
        st.lists(st.sampled_from(ids), unique=True, max_size=len(ids))
    )
    survivors = Collection(o for o in collection if o.id not in set(to_delete))
    for key in ("tif-slicing", "tif-sharding", "tif-hint-merge", "irhint-perf", "irhint-size"):
        index = build_index(key, collection)
        for object_id in to_delete:
            index.delete(object_id)
        assert index.query(q).tolist() == survivors.evaluate(q), key


@pytest.mark.parametrize("key", ["tif-slicing", "tif-sharding", "tif-hint-merge", "irhint-perf", "irhint-size"])
def test_insertion_order_invariance(key):
    """Query answers are independent of the order objects were indexed in.

    (Physical layouts may differ — sharding's greedy placement is order-
    sensitive — but the answer contract may not.)
    """
    import random

    objects = random_objects(300, seed=55)
    shuffled = objects[:]
    random.Random(56).shuffle(shuffled)
    forward = Collection(objects)
    index_fwd = build_index(key, forward)
    index_rev = build_index(key, Collection(reversed(objects)))
    index_shuf = build_index(key, Collection(shuffled))
    for q in random_queries(forward, 25, seed=57):
        expected = forward.evaluate(q)
        assert index_fwd.query(q).tolist() == expected, key
        assert index_rev.query(q).tolist() == expected, key
        assert index_shuf.query(q).tolist() == expected, key


@pytest.mark.parametrize("key", ALL_KEYS)
class TestEdgeCases:
    """Boundary queries every registry index must answer identically.

    Each case states its expected answer by construction (closed-interval
    semantics of Definition 2.1), so a drift in any single index fails
    loudly rather than averaging out in randomized runs.
    """

    def _build(self, key, objects):
        return build_index(key, Collection(objects))

    def test_point_interval_objects_and_stabbing_queries(self, key):
        # Point-lifespan objects (t_st == t_end) hit only exact stabs.
        objects = [
            TemporalObject(id=1, st=5, end=5, d=frozenset({"a"})),
            TemporalObject(id=2, st=5, end=9, d=frozenset({"a"})),
            TemporalObject(id=3, st=0, end=4, d=frozenset({"a"})),
        ]
        index = self._build(key, objects)
        assert index.query(TimeTravelQuery(5, 5, frozenset({"a"}))).tolist() == [1, 2]
        assert index.query(TimeTravelQuery(4, 4, frozenset({"a"}))).tolist() == [3]
        assert index.query(TimeTravelQuery(6, 6, frozenset({"a"}))).tolist() == [2]
        assert index.query(TimeTravelQuery(0, 10, frozenset({"a"}))).tolist() == [1, 2, 3]

    def test_query_touching_endpoints_exactly(self, key):
        # Closed intervals: touching at a single point is an overlap.
        objects = [TemporalObject(id=1, st=10, end=20, d=frozenset({"a"}))]
        index = self._build(key, objects)
        assert index.query(TimeTravelQuery(0, 10, frozenset({"a"}))).tolist() == [1]
        assert index.query(TimeTravelQuery(20, 30, frozenset({"a"}))).tolist() == [1]
        assert index.query(TimeTravelQuery(0, 9, frozenset({"a"}))).tolist() == []
        assert index.query(TimeTravelQuery(21, 30, frozenset({"a"}))).tolist() == []

    def test_empty_query_description(self, key):
        # q.d = ∅ degrades to a pure temporal range query.
        objects = [
            TemporalObject(id=1, st=0, end=5, d=frozenset({"a"})),
            TemporalObject(id=2, st=3, end=8, d=frozenset({"b"})),
            TemporalObject(id=3, st=9, end=12, d=frozenset()),
        ]
        index = self._build(key, objects)
        assert index.query(TimeTravelQuery(0, 100, frozenset())).tolist() == [1, 2, 3]
        assert index.query(TimeTravelQuery(6, 9, frozenset())).tolist() == [2, 3]
        assert index.query(TimeTravelQuery(13, 99, frozenset())).tolist() == []

    def test_query_elements_absent_from_dictionary(self, key):
        objects = [TemporalObject(id=1, st=0, end=10, d=frozenset({"a", "b"}))]
        index = self._build(key, objects)
        assert index.query(TimeTravelQuery(0, 10, frozenset({"zz-unknown"}))).tolist() == []
        # Mixing a known and an unknown element still yields nothing.
        assert (
            index.query(TimeTravelQuery(0, 10, frozenset({"a", "zz-unknown"}))).tolist() == []
        )

    def test_empty_and_fully_deleted_index(self, key):
        empty = build_index(key, Collection([]))
        assert empty.query(TimeTravelQuery(0, 10, frozenset({"a"}))).tolist() == []
        assert empty.query(TimeTravelQuery(0, 10, frozenset())).tolist() == []

        objects = [
            TemporalObject(id=1, st=0, end=5, d=frozenset({"a"})),
            TemporalObject(id=2, st=2, end=9, d=frozenset({"a", "b"})),
        ]
        index = self._build(key, objects)
        for object_id in (1, 2):
            index.delete(object_id)
        assert len(index) == 0
        assert index.query(TimeTravelQuery(0, 100, frozenset({"a"}))).tolist() == []
        assert index.query(TimeTravelQuery(0, 100, frozenset())).tolist() == []


@pytest.mark.parametrize("key", ["tif-slicing", "irhint-perf"])
def test_insert_then_delete_is_identity(key):
    """Inserting and tombstoning the same objects leaves answers unchanged."""
    objects = random_objects(200, seed=60)
    collection = Collection(objects)
    index = build_index(key, collection)
    queries = random_queries(collection, 20, seed=61)
    before = [index.query(q).tolist() for q in queries]
    extra = random_objects(50, seed=62)
    for obj in extra:
        renamed = TemporalObject(id=obj.id + 50_000, st=obj.st, end=obj.end, d=obj.d)
        index.insert(renamed)
    for obj in extra:
        index.delete(obj.id + 50_000)
    after = [index.query(q).tolist() for q in queries]
    assert before == after
