"""Tests for the temporal inverted file (Algorithm 1)."""

import random

import numpy as np
import pytest

from repro.ir.backends import POSTINGS_BACKENDS
from repro.ir.inverted import TemporalInvertedFile
from repro.ir.postings import PostingsList
from tests.ir.test_postings_property import _cold_view


@pytest.fixture()
def tif(running_example):
    index = TemporalInvertedFile()
    for obj in running_example:
        index.add_object(obj.id, obj.st, obj.end, obj.d)
    return index


class TestStructure:
    def test_elements(self, tif):
        assert sorted(tif.elements()) == ["a", "b", "c"]

    def test_list_lengths(self, tif):
        assert tif.list_length("a") == 4
        assert tif.list_length("c") == 7
        assert tif.list_length("zzz") == 0

    def test_n_entries_counts_replicated_postings(self, tif):
        # Sum of |d| over all 8 objects: 3+2+1+3+2+1+2+1 = 15.
        assert tif.n_entries() == 15

    def test_size_grows_with_entries(self):
        a, b = TemporalInvertedFile(), TemporalInvertedFile()
        a.add_object(1, 0, 1, {"x"})
        b.add_object(1, 0, 1, {"x", "y"})
        assert b.size_bytes() > a.size_bytes()


class TestQuery:
    def test_running_example(self, tif, running_example, example_query):
        ordered = running_example.dictionary.order_by_frequency(example_query.d)
        result = tif.query(example_query.st, example_query.end, ordered)
        assert result == [2, 4, 7]

    def test_least_frequent_first_matters_not_for_result(self, tif):
        # Any ordering of q.d yields the same answer.
        assert tif.query(2, 4, ["a", "c"]) == tif.query(2, 4, ["c", "a"])

    def test_unknown_element(self, tif):
        assert tif.query(0, 7, ["zzz"]) == []
        assert tif.query(0, 7, ["a", "zzz"]) == []


class TestArrayPipeline:
    """Candidates stay an int64 array between packed kernels and are a
    list everywhere else; the answers are the list oracle's either way."""

    ELEMENTS = ("long", "mid", "short")

    @staticmethod
    def _files():
        """One file per backend (``cold``: sealed views of the oracle's
        lists) over 600 objects: ``long`` in all, ``mid`` in a third
        (kernel-sized), ``short`` in 40 (below the kernel threshold)."""
        rng = random.Random(5)
        files = {name: TemporalInvertedFile(backend=name) for name in POSTINGS_BACKENDS}
        for oid in range(600):
            st = rng.randrange(10_000)
            end = st + rng.choice((0, 30, 900))
            d = ["long"] + ["mid"] * (oid % 3 == 0) + ["short"] * (oid % 15 == 0)
            for tif in files.values():
                tif.add_object(oid, st, end, d)
        for tif in files.values():
            tif.delete_object(300, ["long", "mid", "short"])
        cold = files["cold"] = TemporalInvertedFile()
        for element in TestArrayPipeline.ELEMENTS:
            cold._lists[element] = _cold_view(files["list"].postings(element))
        return files

    def test_every_backend_answers_like_the_list_oracle(self):
        files = self._files()
        rng = random.Random(6)
        for _ in range(60):
            st = rng.randrange(-50, 10_000)
            end = st + rng.choice((0, 100, 3_000, 20_000))
            ordered = rng.sample(self.ELEMENTS, rng.randint(1, 3))
            want = files["list"].query(st, end, ordered)
            for name, tif in files.items():
                got = tif.query(st, end, ordered)
                assert got == want, (name, st, end, ordered)
                assert all(type(i) is int for i in got), name

    def test_array_and_list_candidates_intersect_alike(self):
        files = self._files()
        rng = random.Random(7)
        for size in (0, 3, 8, 200):
            boxed = sorted(rng.sample(range(700), size))
            for name, tif in files.items():
                for rest in (["long"], ["mid", "long"], ["short"], ["long", "absent"]):
                    want = files["list"].intersect(boxed, rest)
                    assert tif.intersect(boxed, rest) == want, (name, size, rest)
                    unboxed = np.array(boxed, dtype=np.int64)
                    assert tif.intersect(unboxed, rest) == want, (name, size, rest)

    def test_packed_keeps_arrays_and_others_get_lists(self):
        files = self._files()
        long_list = files["packed"].postings("long")
        scanned = long_list.scan_ids(0, 5_000)
        assert type(scanned) is np.ndarray and scanned.dtype == np.int64
        assert type(long_list.intersect_sorted(scanned)) is np.ndarray
        assert type(files["packed"].postings("short").scan_ids(0, 5_000)) is list
        few = long_list.intersect_sorted(scanned[:3])  # too few to pay for the kernel
        assert type(few) is list and few == scanned[:3].tolist()

        seen = []

        class Spy(PostingsList):
            def intersect_sorted(self, sorted_ids):
                seen.append(type(sorted_ids))
                return super().intersect_sorted(sorted_ids)

        spy = files["packed"]._lists["spy"] = Spy()
        for oid in range(0, 600, 2):
            spy.add(oid, 0, 10_000)
        evens = [i for i in scanned.tolist() if i % 2 == 0]
        assert files["packed"].query(0, 5_000, ["long", "spy"]) == evens
        assert seen == [list]


class TestUpdates:
    def test_delete_object(self, tif, running_example, example_query):
        obj = running_example[4]
        tif.delete_object(obj.id, obj.d)
        ordered = running_example.dictionary.order_by_frequency(example_query.d)
        assert tif.query(example_query.st, example_query.end, ordered) == [2, 7]

    def test_delete_ignores_unlisted_elements(self, tif):
        # Deleting with a superset description must not raise.
        tif.delete_object(3, {"b", "not-indexed"})
        assert tif.list_length("b") == 3

    def test_order_elements_locally(self, tif):
        assert tif.order_elements_locally(["c", "a"]) == ["a", "c"]
        # Unknown elements sort first (local length 0).
        assert tif.order_elements_locally(["c", "zzz"])[0] == "zzz"
