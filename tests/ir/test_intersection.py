"""Tests for the intersection kernels."""

from hypothesis import given
from hypothesis import strategies as st

from repro.ir.intersection import contains_sorted, intersect_merge

sorted_ids = st.lists(st.integers(0, 200), unique=True).map(sorted)


class TestUnit:
    def test_merge_basic(self):
        assert intersect_merge([1, 3, 5], [3, 4, 5]) == [3, 5]

    def test_merge_empty(self):
        assert intersect_merge([], [1, 2]) == []

    def test_contains_sorted(self):
        assert contains_sorted([1, 5, 9], 5)
        assert not contains_sorted([1, 5, 9], 6)


class TestEquivalenceProperties:
    @given(sorted_ids, sorted_ids)
    def test_all_kernels_agree(self, a, b):
        expected = sorted(set(a) & set(b))
        assert intersect_merge(a, b) == expected
        assert [x for x in b if contains_sorted(a, x)] == expected

    @given(sorted_ids, sorted_ids)
    def test_commutative(self, a, b):
        assert intersect_merge(a, b) == intersect_merge(b, a)
