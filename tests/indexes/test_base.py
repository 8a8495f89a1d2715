"""Tests for the shared TemporalIRIndex behaviour (via BruteForce)."""

import pytest

from repro.core.errors import DuplicateObjectError, UnknownObjectError
from repro.core.model import make_object, make_query
from repro.indexes.brute import BruteForce


@pytest.fixture()
def index(running_example):
    return BruteForce.build(running_example)


class TestLifecycle:
    def test_build_registers_everything(self, index):
        assert len(index) == 8
        assert 4 in index

    def test_insert_duplicate_rejected(self, index):
        with pytest.raises(DuplicateObjectError):
            index.insert(make_object(1, 0, 1))

    def test_delete_by_object(self, index, running_example):
        index.delete(running_example[4])
        assert 4 not in index
        assert len(index) == 7

    def test_delete_by_id(self, index):
        index.delete(4)
        assert 4 not in index

    def test_delete_unknown_raises(self, index):
        with pytest.raises(UnknownObjectError):
            index.delete(99)
        with pytest.raises(UnknownObjectError):
            index.delete(make_object(99, 0, 1))

    def test_dictionary_tracks_updates(self, index):
        before = index.dictionary.frequency("b")
        index.delete(3)  # o3 = {b}
        assert index.dictionary.frequency("b") == before - 1
        index.insert(make_object(30, 0, 1, {"b"}))
        assert index.dictionary.frequency("b") == before


class TestQueryDispatch:
    def test_containment_query(self, index, example_query):
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_pure_temporal_fallback(self, index):
        assert index.query(make_query(2, 4)).tolist() == [2, 4, 5, 6, 7, 8]

    def test_order_query_elements(self, index):
        # c (freq 7) must come after a (freq 4).
        assert index.order_query_elements(make_query(0, 1, {"c", "a"})) == ["a", "c"]

    def test_stats_keys(self, index):
        stats = index.stats()
        assert stats["name"] == "brute-force"
        assert stats["objects"] == 8

    def test_validate_against(self, index, running_example, example_query):
        assert index.validate_against(running_example, [example_query]) is None


class TestCatalogView:
    def test_objects_sorted_and_live(self, index):
        ids = [o.id for o in index.objects()]
        assert ids == sorted(ids) == list(range(1, 9))
        index.delete(4)
        assert [o.id for o in index.objects()] == [1, 2, 3, 5, 6, 7, 8]

    def test_get(self, index):
        assert index.get(2).d == frozenset({"a", "c"})
        assert index.get(99) is None
