"""Tests for sorted-sequence utilities."""

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.sorting import merge_sorted


class TestTransforms:
    def test_merge_sorted(self):
        assert merge_sorted([1, 3, 5], [2, 3, 6]) == [1, 2, 3, 3, 5, 6]
        assert merge_sorted([], [1]) == [1]


class TestProperties:
    @given(st.lists(st.integers()), st.lists(st.integers()))
    def test_merge_sorted_is_sorted_union(self, a, b):
        a, b = sorted(a), sorted(b)
        merged = merge_sorted(a, b)
        assert merged == sorted(a + b)
