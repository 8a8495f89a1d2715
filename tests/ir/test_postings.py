"""Tests for time-aware and id-only postings lists."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import UnknownObjectError

from tests.ir.model import SWEEP


def fresh_lists():
    """One fresh, empty list of every swept layout."""
    return [make() for make in SWEEP.values()]


class TestPostingsList:
    """Unit cases of the ⟨id, st, end⟩ surface, on every swept layout."""

    def test_append_fast_path_keeps_order(self):
        for postings in fresh_lists():
            for i in range(5):
                postings.add(i, i * 10, i * 10 + 5)
            assert postings.ids() == [0, 1, 2, 3, 4]

    def test_out_of_order_insert(self):
        for postings in fresh_lists():
            for object_id in (5, 1, 3):
                postings.add(object_id, 0, 1)
            assert postings.ids() == [1, 3, 5]

    def test_contains(self):
        for postings in fresh_lists():
            postings.add(3, 0, 1)
            assert 3 in postings and 4 not in postings

    def test_delete_tombstones(self):
        for postings in fresh_lists():
            postings.add(1, 0, 1)
            postings.add(2, 0, 1)
            postings.delete(1)
            assert len(postings) == 1
            assert postings.ids() == [2]
            assert postings.physical_len() == 2

    def test_delete_missing_raises(self):
        for postings in fresh_lists():
            with pytest.raises(UnknownObjectError):
                postings.delete(7)

    def test_delete_twice_raises(self):
        for postings in fresh_lists():
            postings.add(1, 0, 1)
            postings.delete(1)
            with pytest.raises(UnknownObjectError):
                postings.delete(1)

    def test_re_add_revives(self):
        for postings in fresh_lists():
            postings.add(1, 0, 1)
            postings.delete(1)
            postings.add(1, 5, 9)
            assert postings.ids() == [1]
            assert list(postings.entries()) == [(1, 5, 9)]

    def test_overlapping(self):
        for postings in fresh_lists():
            postings.add(1, 0, 5)
            postings.add(2, 10, 20)
            postings.add(3, 4, 12)
            assert postings.overlapping_ids(5, 10) == [1, 2, 3]
            assert postings.overlapping_ids(6, 9) == [3]
            assert [e[0] for e in postings.overlapping(6, 9)] == [3]

    def test_partial_checks(self):
        for postings in fresh_lists():
            postings.add(1, 0, 5)
            postings.add(2, 10, 20)
            # One side of the window open: t_end >= 6 alone, t_st <= 5 alone.
            assert postings.overlapping_ids(6, float("inf")) == [2]
            assert postings.overlapping_ids(float("-inf"), 5) == [1]

    def test_span(self):
        for postings in fresh_lists():
            postings.add(1, 5, 9)
            postings.add(2, 2, 4)
            assert postings.span() == (2, 9)

    def test_span_empty_raises(self):
        for postings in fresh_lists():
            with pytest.raises(UnknownObjectError):
                postings.span()

    def test_size_accounting(self):
        for postings in fresh_lists():
            postings.add(1, 0, 1)
            postings.add(2, 0, 1)
            assert postings.size_bytes() == 2 * 16 + 16

    @given(st.lists(st.integers(0, 100), unique=True), st.lists(st.integers(0, 100), unique=True))
    def test_intersect_sorted_matches_set_intersection(self, mine, other):
        for postings in fresh_lists():
            for object_id in sorted(mine):
                postings.add(object_id, 0, 1)
            result = postings.intersect_sorted(sorted(other))
            assert result == sorted(set(mine) & set(other))

    def test_intersect_sorted_skips_tombstones(self):
        for postings in fresh_lists():
            for object_id in range(10):
                postings.add(object_id, 0, 1)
            postings.delete(4)
            assert postings.intersect_sorted([3, 4, 5]) == [3, 5]

    def test_intersect_sorted_gallop_path(self):
        for postings in fresh_lists():
            for object_id in range(0, 1000, 2):
                postings.add(object_id, 0, 1)
            # candidate list far shorter than postings: exercises bisect probing
            assert postings.intersect_sorted([10, 11, 500]) == [10, 500]
