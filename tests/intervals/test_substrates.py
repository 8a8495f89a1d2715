"""Per-substrate unit tests: the 1D-grid layout and the linear scan."""

import random

import pytest

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.intervals import GridLayout, Hint, LinearScan


def brute(records, a, b):
    return sorted(i for i, st, end in records if st <= b and a <= end)


RECORDS = [(1, 0, 10), (2, 5, 5), (3, 8, 30), (4, 25, 26), (5, 29, 40)]


class TestGridLayout:
    def test_slice_of_clamps(self):
        layout = GridLayout(0, 100, 10)
        assert layout.slice_of(-5) == 0
        assert layout.slice_of(100) == 9
        assert layout.slice_of(55) == 5

    def test_slice_range(self):
        layout = GridLayout(0, 100, 10)
        assert layout.slice_range(15, 34) == (1, 3)

    def test_last_slice_unbounded(self):
        layout = GridLayout(0, 100, 4)
        _lo, hi = layout.slice_bounds(3)
        assert hi == float("inf")

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GridLayout(0, 100, 0)
        with pytest.raises(ConfigurationError):
            GridLayout(100, 0, 4)

    def test_zero_span_domain(self):
        layout = GridLayout(5, 5, 4)
        assert layout.slice_of(5) == 0


class TestLinearScan:
    def test_matches_brute_trivially(self):
        scan = LinearScan.build(RECORDS)
        assert scan.range_query(6, 7) == brute(RECORDS, 6, 7)
        assert len(scan) == 5

    def test_delete_is_physical(self):
        scan = LinearScan.build(RECORDS)
        scan.delete(1, 0, 10)
        assert len(scan) == 4
        with pytest.raises(UnknownObjectError):
            scan.delete(1, 0, 10)


class TestCrossSubstrateEquivalence:
    """HINT, at several depths, agrees with the linear scan on randomized workloads."""

    def test_randomized_agreement(self):
        rng = random.Random(99)
        records = []
        for i in range(400):
            st = rng.randint(0, 5000)
            records.append((i, st, st + rng.randint(0, 400)))
        indexes = [Hint.build(records, num_bits=m) for m in (0, 6, 12)]
        oracle = LinearScan.build(records)
        for _ in range(60):
            a = rng.randint(-100, 5200)
            b = a + rng.randint(0, 1500)
            expected = oracle.range_query(a, b)
            for index in indexes:
                assert index.range_query(a, b) == expected, index.num_bits
