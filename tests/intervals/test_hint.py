"""Tests for the HINT index (Algorithm 2 and its optimisations)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.intervals.hint import DomainMapper, Hint, SortPolicy
from repro.intervals.linear import LinearScan


def brute(records, q_st, q_end):
    return sorted(i for i, st_, end in records if st_ <= q_end and q_st <= end)


@pytest.fixture()
def small_hint():
    records = [(1, 1, 4), (2, 5, 5), (3, 0, 7), (4, 6, 7), (5, 2, 3)]
    return Hint.build(records, num_bits=3), records


class TestBasics:
    def test_build_requires_bits_or_mapper(self):
        with pytest.raises(ConfigurationError):
            Hint.build([(1, 0, 1)])

    def test_build_empty(self):
        hint = Hint.build([], num_bits=4)
        assert len(hint) == 0
        assert hint.range_query(0, 100) == []

    def test_len_and_partitions(self, small_hint):
        hint, _records = small_hint
        assert len(hint) == 5
        assert hint.n_partitions() >= 1

    def test_range_query(self, small_hint):
        hint, records = small_hint
        for q in ((0, 7), (5, 5), (2, 4), (6, 6), (7, 7)):
            assert hint.range_query(*q) == brute(records, *q)

    def test_stab_query(self, small_hint):
        hint, records = small_hint
        assert hint.stab_query(5) == brute(records, 5, 5)

    def test_no_duplicates(self, small_hint):
        hint, _ = small_hint
        result = hint.range_query_unsorted(0, 7)
        assert len(result) == len(set(result))

    def test_replication_factor(self, small_hint):
        hint, _ = small_hint
        assert hint.replication_factor() >= 1.0

    def test_level_histogram_sums_to_replicated(self, small_hint):
        hint, _ = small_hint
        assert sum(hint.level_histogram().values()) == hint.n_replicated_entries()


class TestQueryOutsideDomain:
    def test_query_beyond_domain_clamps(self, small_hint):
        hint, records = small_hint
        assert hint.range_query(-100, 100) == [1, 2, 3, 4, 5]
        assert hint.range_query(100, 200) == brute(records, 100, 200)


class TestUpdates:
    def test_insert_then_query(self, small_hint):
        hint, records = small_hint
        hint.insert(9, 3, 6)
        assert 9 in hint.range_query(4, 4)

    def test_delete_tombstones_everywhere(self, small_hint):
        hint, records = small_hint
        hint.delete(3, 0, 7)  # spans the whole domain: many replicas
        assert 3 not in hint.range_query(0, 7)
        assert len(hint) == 4

    def test_delete_unknown_raises(self, small_hint):
        hint, _ = small_hint
        with pytest.raises(UnknownObjectError):
            hint.delete(42, 0, 1)

    def test_insert_beyond_domain_clamps_correctly(self, small_hint):
        hint, _ = small_hint
        hint.insert(10, 50, 60)  # far beyond [0, 7]
        assert 10 in hint.range_query(40, 70)
        assert 10 not in hint.range_query(0, 3)

    def test_delete_with_wrong_endpoints_changes_nothing(self):
        hint = Hint(DomainMapper.for_domain(0, 15, 4))
        hint.insert(1, 0, 4)
        hint.insert(2, 1, 3)
        with pytest.raises(UnknownObjectError):
            hint.delete(1, 2, 4)
        assert hint.range_query(4, 4) == [1]
        assert hint.range_query(0, 15) == [1, 2]
        assert len(hint) == 2

    @pytest.mark.parametrize("policy", list(SortPolicy))
    def test_wrong_endpoint_deletes_leave_queries_equal_to_linear_scan(self, policy):
        rng = random.Random(7)
        records = [
            (i, st_, st_ + rng.randint(0, 60))
            for i, st_ in enumerate(rng.randint(0, 400) for _ in range(200))
        ]
        hint = Hint.build(records, num_bits=5, sort_policy=policy)
        oracle = LinearScan.build(records)
        for object_id, st_, end in rng.sample(records, 60):
            shift = rng.randint(1, 40)
            wrong = (st_, end + shift) if rng.random() < 0.5 else (st_ - shift, end)
            with pytest.raises(UnknownObjectError):
                hint.delete(object_id, *wrong)
            if rng.random() < 0.3:  # interleave real deletes
                hint.delete(object_id, st_, end)
                oracle.delete(object_id, st_, end)
        assert len(hint) == len(oracle)
        for _ in range(40):
            a = rng.randint(-10, 470)
            b = a + rng.randint(0, 150)
            assert hint.range_query(a, b) == oracle.range_query(a, b), (a, b)


class TestConfigurations:
    @pytest.mark.parametrize("policy", list(SortPolicy))
    def test_all_configurations_agree(self, policy):
        rng = random.Random(3)
        records = [
            (i, st, st + rng.randint(0, 50))
            for i, st in enumerate(rng.randint(0, 500) for _ in range(300))
        ]
        hint = Hint.build(records, num_bits=6, sort_policy=policy)
        for _ in range(40):
            a = rng.randint(-10, 520)
            b = a + rng.randint(0, 200)
            assert hint.range_query(a, b) == brute(records, a, b)

    def test_larger_m_more_replication(self):
        records = [(i, i, i + 60) for i in range(200)]
        small = Hint.build(records, num_bits=3)
        large = Hint.build(records, num_bits=8)
        assert large.n_replicated_entries() >= small.n_replicated_entries()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hint_equals_linear_scan_property(data):
    n = data.draw(st.integers(1, 80))
    m = data.draw(st.integers(1, 8))
    domain = data.draw(st.integers(10, 5000))
    records = []
    for i in range(n):
        st_ = data.draw(st.integers(0, domain))
        end = st_ + data.draw(st.integers(0, domain // 2))
        records.append((i, st_, end))
    hint = Hint.build(records, num_bits=m)
    oracle = LinearScan.build(records)
    for _ in range(5):
        a = data.draw(st.integers(-10, domain + 10))
        b = a + data.draw(st.integers(0, domain))
        assert hint.range_query(a, b) == oracle.range_query(a, b)


def test_three_thousand_intervals_equal_linear_scan():
    """A set large enough that every level of an ``m = 8`` hierarchy is
    populated: random windows starting below the domain and running past
    it, the whole domain, a point window and a stab."""
    rng = random.Random(13)
    records = [
        (i, st_, st_ + rng.randint(0, 700))
        for i, st_ in enumerate(rng.randint(0, 50_000) for _ in range(3000))
    ]
    hint = Hint.build(records, num_bits=8)
    oracle = LinearScan.build(records)
    windows = [(0, 60_000), (100, 100), (25_000, 25_500)]
    for _ in range(80):
        a = rng.randint(-100, 52_000)
        windows.append((a, a + rng.randint(0, 20_000)))
    for a, b in windows:
        assert hint.range_query(a, b) == oracle.range_query(a, b), (a, b)
    assert hint.stab_query(25_000) == oracle.range_query(25_000, 25_000)


def test_float_timestamps():
    records = [(1, 0.25, 0.75), (2, 0.5, 0.5), (3, 0.9, 1.4)]
    mapper = DomainMapper.for_domain(0.0, 1.5, 5)
    hint = Hint(mapper)
    for record in records:
        hint.insert(*record)
    assert hint.range_query(0.5, 0.8) == [1, 2]
    assert hint.range_query(0.76, 0.89) == []
    assert hint.range_query(0.8, 1.0) == [3]
