"""Tests for the HINT index (Algorithm 2 and its optimisations)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.intervals.hint import Hint
from repro.intervals.hint.traversal import assign
from repro.intervals.linear import LinearScan
from repro.ir.blocks import exact_window
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

# Runs of a few entries get a table at their cap (tests/conftest.py), as
# the structural tests below read it.
pytestmark = pytest.mark.usefixtures("small_tables")


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
        assert hint.n_divisions() >= 1

    def test_range_query(self, small_hint):
        hint, records = small_hint
        for q in ((0, 7), (5, 5), (2, 4), (6, 6), (7, 7)):
            assert hint.range_query(*q) == brute(records, *q)

    def test_stab_query(self, small_hint):
        hint, records = small_hint
        assert hint.stab_query(5) == brute(records, 5, 5)

    def test_no_duplicates(self, small_hint):
        """The divisions a query reads hold each overlapping id once."""
        hint, _ = small_hint
        _table, _rows, ids = hint.division_rows(0, 7)
        assert sorted(ids.tolist()) == [1, 2, 3, 4, 5]

    def test_replication_factor(self, small_hint):
        hint, _ = small_hint
        assert hint.replication_factor() >= 1.0

    def test_replicated_entries_sum_the_assignments(self, small_hint):
        hint, records = small_hint
        mapper = hint.table().mapper
        assigned = sum(len(assign(3, *mapper.cell_range(st_, end))) for _i, st_, end in records)
        assert hint.n_replicated_entries() == assigned


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
        hint = Hint(4)
        hint.insert(1, 0, 4)
        hint.insert(2, 1, 3)
        with pytest.raises(UnknownObjectError):
            hint.delete(1, 2, 4)
        assert hint.range_query(4, 4) == [1]
        assert hint.range_query(0, 15) == [1, 2]
        assert len(hint) == 2

    def test_wrong_endpoint_deletes_leave_queries_equal_to_linear_scan(self):
        rng = random.Random(7)
        records = [
            (i, st_, st_ + rng.randint(0, 60))
            for i, st_ in enumerate(rng.randint(0, 400) for _ in range(200))
        ]
        hint = Hint.build(records, num_bits=5)
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
    @pytest.mark.parametrize("scale", [1, 0.5], ids=["packed", "spilled"])
    def test_all_configurations_agree(self, scale):
        """The table over a packed run, and a run spilled to floats."""
        rng = random.Random(3)
        records = [
            (i, st * scale, (st + rng.randint(0, 50)) * scale)
            for i, st in enumerate(rng.randint(0, 500) for _ in range(300))
        ]
        hint = Hint.build(records, num_bits=6)
        assert (hint.table() is None) == (scale != 1)
        for _ in range(40):
            a = rng.randint(-10, 520)
            b = a + rng.randint(0, 200)
            assert hint.range_query(a * scale, b * scale) == brute(records, a * scale, b * scale)

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
    hint = Hint(5)
    for record in records:
        hint.insert(*record)
    assert hint.range_query(0.5, 0.8) == [1, 2]
    assert hint.range_query(0.76, 0.89) == []
    assert hint.range_query(0.8, 1.0) == [3]


def _divisions_read(hint, q_st, q_end):
    """``(level, j, is_original)`` of every row a window reads."""
    table = hint.table()
    n_keys = 1 << (table.mapper.num_bits + 1)
    keys = np.repeat(table._keys, np.diff(table._offsets))
    out = set()
    for start, stop in table.slices(exact_window(q_st, q_end)):
        for key in keys[start:stop].tolist():
            k = key % n_keys
            level = (k + 1).bit_length() - 1
            out.add((level, k - (1 << level) + 1, key < n_keys))
    return out


@pytest.fixture()
def every_partition():
    """At m = 3 over cells 0 … 7, one interval per partition and level —
    each one's extent — plus replicas reaching across the middle."""
    records = [(0, 0, 7)]
    for level in range(1, 4):
        width = 8 >> level
        records += [(len(records) + j, j * width, (j + 1) * width - 1) for j in range(1 << level)]
    records += [(100, 1, 6), (101, 2, 5), (102, 3, 4)]
    return Hint.build(records, num_bits=3), records


class TestFigure4:
    def test_figure4_query(self, every_partition):
        """Figure 4's query spans cells [4, 7]: the originals read are those
        of P3,4..P3,7, P2,2, P2,3, P1,1 and P0,0."""
        hint, _records = every_partition
        originals = {(level, j) for level, j, original in _divisions_read(hint, 4, 7) if original}
        assert originals == {
            (3, 4), (3, 5), (3, 6), (3, 7),
            (2, 2), (2, 3),
            (1, 1),
            (0, 0),
        }

    def test_replicas_only_in_first_partition(self, every_partition):
        hint, _records = every_partition
        seen = 0
        for first, last in ((4, 7), (1, 6), (0, 0), (3, 3)):
            per_level = {}
            for level, j, original in _divisions_read(hint, first, last):
                if not original:
                    per_level.setdefault(level, []).append(j)
            seen += len(per_level)
            for level, js in per_level.items():
                assert js == [first >> (3 - level)], (first, last, level)
        assert seen


class TestTableRows:
    def test_tombstone_hides_from_scans(self, small_hint):
        hint, records = small_hint
        rows = hint.table().n_rows
        hint.delete(2, 5, 5)
        assert 2 not in hint.range_query(0, 7)
        assert 2 not in hint.division_rows(0, 7)[2].tolist()
        assert hint.table().n_rows == rows  # a tombstone, not a rebuild
        assert hint.n_replicated_entries() == rows - 1
        assert len(hint) == 4

    def test_tombstone_in_each_division(self, every_partition):
        """Deletes reach an interval's original and every replica."""
        hint, records = every_partition
        for object_id, st_, end in records:
            if object_id >= 100:  # originals and replicas over several levels
                hint.delete(object_id, st_, end)
        live = [r for r in records if r[0] < 100]
        for a in range(8):
            for b in range(a, 8):
                assert hint.range_query(a, b) == brute(live, a, b)
                assert not set(hint.division_rows(a, b)[2].tolist()) & {100, 101, 102}

    def test_size_charges_the_run_and_the_rows(self, small_hint):
        hint, _records = small_hint
        table = hint.table()
        assert hint.size_bytes() == (5 + table.n_rows) * ENTRY_FULL_BYTES + 2 * CONTAINER_BYTES

    def test_flat_run_is_not_charged_a_directory(self, small_hint):
        """Bugfix: a run read flat has no table, so no table directory; it
        is charged as the bare run (what a tIF charges for the list)."""
        _hint, records = small_hint
        flat = Hint.build(records, num_bits=0)  # m = 0: the flat scan
        assert flat.table() is None
        assert flat.size_bytes() == 5 * ENTRY_FULL_BYTES + CONTAINER_BYTES

    def test_one_point_domain(self):
        """Every interval the same point: the table's cells must be the
        mapper's (cell 0), or the query looks in an empty partition."""
        hint = Hint.build([(0, 7, 7), (1, 7, 7)], num_bits=2)
        assert hint.range_query(7, 7) == [0, 1]
        assert hint.range_query(0, 7) == [0, 1]

    def test_grid_follows_the_run(self):
        """Each rebuild grids the run's own span: objects arriving past the
        first ones' lifespans spread over cells instead of piling up in
        the last."""
        hint = Hint(6)
        hint.insert(0, 0, 5)
        assert hint.range_query(0, 5) == [0]
        for i in range(1, 2000):
            hint.insert(i, 10 * i, 10 * i + 5)
        notes = {}
        assert hint.scan_ids(15_000, 15_005, notes).tolist() == [1500]
        assert hint.table().mapper.hi == 19_995
        assert notes["rows"] < 100
