"""The update contract every registry index must honour uniformly.

Insert of a duplicate id raises :class:`DuplicateObjectError`; delete of
a missing id raises :class:`UnknownObjectError` — whether addressed by id
or by object, on a populated or an empty index — and a failed update
leaves the index unchanged.  Deleting and re-inserting the same objects
reclaims what the deletes left behind.
"""

import pytest

from repro.core.collection import Collection
from repro.core.errors import DuplicateObjectError, UnknownObjectError
from repro.core.model import make_object, make_query
from repro.indexes.registry import INDEX_CLASSES, build_index
from tests.conftest import random_objects, random_queries

ALL_KEYS = sorted(INDEX_CLASSES)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_insert_duplicate_raises_and_leaves_index_intact(key, running_example, example_query):
    index = build_index(key, running_example)
    before = index.query(example_query).tolist()
    with pytest.raises(DuplicateObjectError):
        index.insert(make_object(2, 0, 7, {"x"}))
    assert len(index) == len(running_example)
    assert index.query(example_query).tolist() == before


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_missing_id_raises(key, running_example):
    index = build_index(key, running_example)
    with pytest.raises(UnknownObjectError):
        index.delete(999)
    assert len(index) == len(running_example)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_missing_object_raises(key, running_example):
    index = build_index(key, running_example)
    with pytest.raises(UnknownObjectError):
        index.delete(make_object(999, 0, 1, {"a"}))
    assert len(index) == len(running_example)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_on_empty_index_raises(key):
    index = INDEX_CLASSES[key]()
    with pytest.raises(UnknownObjectError):
        index.delete(1)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_after_delete_raises(key, running_example):
    index = build_index(key, running_example)
    index.delete(5)
    with pytest.raises(UnknownObjectError):
        index.delete(5)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_by_stale_object_uses_the_catalog_copy(key, running_example, example_query):
    """Deleting via an object with the right id but wrong fields must not
    desynchronise the dictionary or leave ghost entries behind."""
    index = build_index(key, running_example)
    stale = make_object(5, 0, 0, {"does-not-exist"})
    index.delete(stale)  # catalog holds (5, [3,5], {b,c}); that is what goes
    assert 5 not in index
    assert len(index) == len(running_example) - 1
    # The dictionary dropped the real description, not the stale one.
    assert index.query(example_query).tolist() == [2, 4, 7]
    assert index.query(make_query(0, 7, {"does-not-exist"})).tolist() == []


@pytest.mark.parametrize("key", ALL_KEYS)
def test_insert_delete_roundtrip_restores_results(key, running_example, example_query):
    index = build_index(key, running_example)
    before = index.query(example_query).tolist()
    obj = make_object(60, 2, 4, {"a", "c"})
    index.insert(obj)
    assert index.query(example_query).tolist() == sorted(before + [60])
    index.delete(60)
    assert index.query(example_query).tolist() == before


@pytest.mark.parametrize("key", ALL_KEYS)
def test_delete_reinsert_churn_stays_bounded(key):
    """50 rounds, each deleting and re-inserting 100 of 200 objects: the
    tombstones are revived or compacted away, so the modelled size (its
    physical entries) stays within twice the fresh build's, and the
    answers stay the oracle's."""
    objects = random_objects(200, seed=5)
    index, oracle = build_index(key, objects), build_index("brute", objects)
    fresh = index.size_bytes()
    for round_ in range(50):
        batch = objects[round_ % 2 :: 2]
        for obj in batch:
            index.delete(obj.id)
        for obj in batch:
            index.insert(obj)
        assert index.size_bytes() <= 2 * fresh, round_
    for q in random_queries(Collection(objects), 60, seed=6):
        assert index.query(q).tolist() == oracle.query(q).tolist(), q
