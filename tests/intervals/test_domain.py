"""Tests for the domain mapper (discretisation correctness properties)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.intervals.hint.domain import DomainMapper


class TestConstruction:
    def test_basic(self):
        mapper = DomainMapper.for_domain(0, 100, 4)
        assert mapper.n_cells == 16

    def test_rejects_inverted_domain(self):
        with pytest.raises(ConfigurationError):
            DomainMapper.for_domain(10, 0, 4)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            DomainMapper.for_domain(0, 1, -3)


class TestCellMapping:
    def test_exact_integer_map(self):
        # Domain of 8 integer points fits the 8-cell grid exactly.
        mapper = DomainMapper.for_domain(0, 7, 3)
        assert [mapper.cell(t) for t in range(8)] == list(range(8))

    def test_offset_integer_map(self):
        mapper = DomainMapper.for_domain(100, 107, 3)
        assert mapper.cell(103) == 3

    def test_scaling_integer_map(self):
        mapper = DomainMapper.for_domain(0, 15, 3)  # 16 points, 8 cells
        assert mapper.cell(0) == 0
        assert mapper.cell(15) == 7
        assert mapper.cell(7) == 3

    def test_float_map(self):
        mapper = DomainMapper.for_domain(0.0, 1.0, 3)
        assert mapper.cell(0.0) == 0
        assert mapper.cell(1.0) == 7
        assert mapper.cell(0.5) == 4

    def test_clamping(self):
        mapper = DomainMapper.for_domain(0, 100, 4)
        assert mapper.cell(-50) == 0
        assert mapper.cell(500) == 15

    def test_covers(self):
        mapper = DomainMapper.for_domain(0, 100, 4)
        assert mapper.covers(0) and mapper.covers(100)
        assert not mapper.covers(101)

    def test_cell_range_ordered(self):
        mapper = DomainMapper.for_domain(0, 100, 4)
        lo, hi = mapper.cell_range(20, 80)
        assert lo <= hi


class TestMonotonicityProperty:
    """The correctness of HINT's skipped comparisons rests on monotonicity."""

    @given(
        st.integers(1, 16),
        st.integers(-10**9, 10**9),
        st.integers(1, 10**9),
        st.integers(0, 10**9),
    )
    def test_integer_monotone(self, m, lo, span, probe_offset):
        mapper = DomainMapper.for_domain(lo, lo + span, m)
        x = lo - 100 + probe_offset % (span + 200)
        y = x + probe_offset % 1000
        assert mapper.cell(x) <= mapper.cell(y)
        assert 0 <= mapper.cell(x) < mapper.n_cells

    @given(
        st.integers(1, 16),
        st.floats(-1e9, 1e9, allow_nan=False),
        st.floats(0.001, 1e9, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_float_monotone(self, m, lo, span, f1, f2):
        mapper = DomainMapper.for_domain(lo, lo + span, m)
        x = lo + span * min(f1, f2)
        y = lo + span * max(f1, f2)
        assert mapper.cell(x) <= mapper.cell(y)
        assert 0 <= mapper.cell(y) < mapper.n_cells
