"""Tests for HINT's bit arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.utils.bitops import (
    domain_size,
    is_left_child,
    is_right_child,
    max_cell,
    min_bits_for,
    partition_of,
    partitions_per_level,
    prefix,
    validate_num_bits,
)


class TestBasics:
    def test_domain_size(self):
        assert domain_size(3) == 8
        assert domain_size(0) == 1

    def test_max_cell(self):
        assert max_cell(3) == 7

    def test_prefix_bottom_is_identity(self):
        assert prefix(3, 5, 3) == 5

    def test_prefix_root_is_zero(self):
        assert prefix(0, 7, 3) == 0

    def test_prefix_mid_level(self):
        # Figure 4: cell 5 at level 2 belongs to P_{2,2}.
        assert prefix(2, 5, 3) == 2

    def test_partitions_per_level(self):
        assert partitions_per_level(0) == 1
        assert partitions_per_level(3) == 8

    def test_children(self):
        assert is_left_child(6) and not is_right_child(6)
        assert is_right_child(7) and not is_left_child(7)

    def test_min_bits_for(self):
        assert min_bits_for(1) == 0
        assert min_bits_for(2) == 1
        assert min_bits_for(8) == 3
        assert min_bits_for(9) == 4

    def test_validate_num_bits(self):
        validate_num_bits(0)
        validate_num_bits(62)
        with pytest.raises(ConfigurationError):
            validate_num_bits(-1)
        with pytest.raises(ConfigurationError):
            validate_num_bits(63)
        with pytest.raises(ConfigurationError):
            validate_num_bits(True)
        with pytest.raises(ConfigurationError):
            validate_num_bits(3.5)  # type: ignore[arg-type]


class TestProperties:
    @given(st.integers(1, 12), st.data())
    def test_partition_of_consistent_with_extent(self, m, data):
        cell = data.draw(st.integers(0, max_cell(m)))
        level = data.draw(st.integers(0, m))
        j = partition_of(level, cell, m)
        width = 1 << (m - level)
        assert j * width <= cell <= (j + 1) * width - 1

    @given(st.integers(1, 12), st.data())
    def test_extents_tile_the_domain(self, m, data):
        """The cells each partition of a level holds are consecutive runs
        of equal width, covering the domain in order."""
        level = data.draw(st.integers(0, m))
        owners = [partition_of(level, cell, m) for cell in range(max_cell(m) + 1)]
        width = (max_cell(m) + 1) // partitions_per_level(level)
        assert owners == [j for j in range(partitions_per_level(level)) for _ in range(width)]

    @given(st.integers(1, 12), st.data())
    def test_prefix_monotone(self, m, data):
        level = data.draw(st.integers(0, m))
        a = data.draw(st.integers(0, max_cell(m)))
        b = data.draw(st.integers(0, max_cell(m)))
        if a <= b:
            assert prefix(level, a, m) <= prefix(level, b, m)
