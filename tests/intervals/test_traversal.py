"""Tests for HINT's assignment invariants (the scalar reference the
time-first table's vectorised assignment is checked against)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.intervals.hint.traversal import assign
from repro.utils.bitops import max_cell


def partition_extent(level: int, j: int, m: int):
    """Inclusive cell range ``[first, last]`` of partition ``P_{level,j}``."""
    width = 1 << (m - level)
    return j * width, (j + 1) * width - 1


class TestAssignPaperExample:
    def test_figure4_interval(self):
        """Figure 4: interval over cells [1, 4] at m=3 goes to P3,1 (orig),
        P2,1 and P3,4 (replicas)."""
        result = assign(3, 1, 4)
        assert set(result) == {(3, 1, True), (2, 1, False), (3, 4, False)}

    def test_single_cell(self):
        assert assign(3, 5, 5) == [(3, 5, True)]

    def test_full_domain_goes_to_root(self):
        assert assign(3, 0, 7) == [(0, 0, True)]

    def test_left_aligned_interval(self):
        # [0, 3] is exactly the left half → P_{1,0} as original.
        assert assign(3, 0, 3) == [(1, 0, True)]

    def test_m_zero(self):
        assert assign(0, 0, 0) == [(0, 0, True)]


@st.composite
def m_and_interval(draw):
    m = draw(st.integers(1, 10))
    a = draw(st.integers(0, max_cell(m)))
    b = draw(st.integers(0, max_cell(m)))
    return m, min(a, b), max(a, b)


class TestAssignProperties:
    @given(m_and_interval())
    def test_at_most_two_per_level(self, case):
        m, a, b = case
        per_level = {}
        for level, _j, _orig in assign(m, a, b):
            per_level[level] = per_level.get(level, 0) + 1
        assert all(count <= 2 for count in per_level.values())

    @given(m_and_interval())
    def test_exactly_one_original(self, case):
        m, a, b = case
        originals = [entry for entry in assign(m, a, b) if entry[2]]
        assert len(originals) == 1
        level, j, _ = originals[0]
        first, last = partition_extent(level, j, m)
        assert first <= a <= last  # the original's partition holds the start

    @given(m_and_interval())
    def test_partitions_tile_interval_exactly(self, case):
        """The assigned partitions cover [a, b] exactly, without overlap."""
        m, a, b = case
        covered = []
        for level, j, _orig in assign(m, a, b):
            covered.append(partition_extent(level, j, m))
        covered.sort()
        assert covered[0][0] == a
        assert covered[-1][1] == b
        for (x1, y1), (x2, _y2) in zip(covered, covered[1:]):
            assert x2 == y1 + 1

    @given(m_and_interval())
    def test_replicas_start_before_partition(self, case):
        m, a, b = case
        for level, j, is_original in assign(m, a, b):
            first, _last = partition_extent(level, j, m)
            if not is_original:
                assert a < first
