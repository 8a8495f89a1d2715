"""Per-index tests for the HINT-based IR-first family (Section 3)."""

import pytest

from repro.core.errors import UnknownObjectError
from repro.core.model import make_object, make_query
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing


@pytest.mark.parametrize("cls", [TIFHintBinary, TIFHintMerge, TIFHintSlicing])
class TestCommonBehaviour:
    def test_running_example(self, cls, running_example, example_query):
        index = cls.build(running_example, num_bits=3)
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_single_element_uses_range_query_only(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(2, 4, {"c"})).tolist() == [2, 4, 5, 6, 7, 8]

    def test_unknown_element(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(0, 7, {"zzz"})).tolist() == []
        assert index.query(make_query(0, 7, {"a", "zzz"})).tolist() == []

    def test_stabbing(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(0, 0, {"b"})).tolist() == [3, 4]

    def test_updates(self, cls, running_example, example_query):
        index = cls.build(running_example, num_bits=3)
        index.delete(4)
        index.insert(make_object(30, 3, 4, {"a", "c"}))
        assert index.query(example_query).tolist() == [2, 7, 30]

    def test_delete_unknown(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        with pytest.raises(UnknownObjectError):
            index.delete(make_object(99, 0, 1, {"a"}))

    def test_insert_beyond_domain(self, cls, running_example, example_query):
        index = cls.build(running_example, num_bits=3)
        index.insert(make_object(41, 500, 600, {"a", "c"}))
        assert index.query(make_query(550, 560, {"a", "c"})).tolist() == [41]
        assert index.query(example_query).tolist() == [2, 4, 7]


class TestVariantSpecifics:
    def test_hybrid_has_two_copies(self, running_example):
        index = TIFHintSlicing.build(running_example, num_bits=3, n_slices=4)
        assert index._hints and index._sliced.lists
        assert set(index._hints) == set(index._sliced.lists) == {"a", "b", "c"}

    def test_hybrid_larger_than_plain_merge(self, random_collection):
        merge = TIFHintMerge.build(random_collection, num_bits=5)
        hybrid = TIFHintSlicing.build(random_collection, num_bits=5, n_slices=16)
        assert hybrid.size_bytes() > merge.size_bytes()

    @pytest.mark.parametrize("cls", [TIFHintBinary, TIFHintMerge])
    def test_flat_lists_cost_what_the_tif_charges(self, cls, random_collection):
        """Bugfix: the shipped charges read every list of this collection
        flat, and a list read flat has no table directory to pay for, so
        the index is exactly the tIF's size."""
        index = cls.build(random_collection, num_bits=5)
        assert all(index.hint_for(e).table() is None for e in index.dictionary.elements())
        assert index.size_bytes() == TIF.build(random_collection).size_bytes()

    def test_binary_and_merge_same_size_at_same_m(self, random_collection):
        """Figure 9: the two variants differ only in how they intersect, so
        their size curves coincide for equal m."""
        binary = TIFHintBinary.build(random_collection, num_bits=5)
        merge = TIFHintMerge.build(random_collection, num_bits=5)
        assert binary.size_bytes() == merge.size_bytes()

    def test_num_bits_exposed(self, running_example):
        index = TIFHintMerge.build(running_example, num_bits=4)
        assert index.num_bits == 4
        assert index.stats()["num_bits"] == 4

    def test_replication_reported(self, random_collection, small_tables):
        """Table rows, replicas included: at least one per live entry of
        each run that has a table."""
        index = TIFHintMerge.build(random_collection, num_bits=6)
        stats = index.stats()
        hints = [index.hint_for(e) for e in index.dictionary.elements()]
        tabled = sum(len(hint) for hint in hints if hint.table() is not None)
        assert stats["n_tables"] and stats["division_entries"] >= tabled
        assert stats["postings_entries"] >= stats["objects"]
