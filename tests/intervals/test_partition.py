"""Tests for partition storage: subdivisions, sorting, tombstones."""

import pytest

from repro.core.errors import UnknownObjectError
from repro.intervals.hint.partition import Partition, SortPolicy, SubArray, _Order
from repro.intervals.hint.traversal import DivisionKind
from repro.ir.inverted import TemporalCheck
from repro.utils.memory import (
    CONTAINER_BYTES,
    ENTRY_FULL_BYTES,
    ENTRY_ID_BYTES,
    ENTRY_ID_START_BYTES,
)


def scan(partition, kind, check, q_st, q_end):
    out = []
    partition.scan_division(kind, check, q_st, q_end, out)
    return sorted(out)


def full_check(entries, check, q_st, q_end):
    """Brute-force filter: ``check``'s comparisons applied to every entry."""
    compare_st = check in (TemporalCheck.END_ONLY, TemporalCheck.BOTH)
    compare_end = check in (TemporalCheck.START_ONLY, TemporalCheck.BOTH)
    return sorted(
        i for i, st, end in entries
        if (not compare_st or st <= q_end) and (not compare_end or q_st <= end)
    )


def tombstone(partition, *args, **kwargs):
    sub, i = partition.locate(*args, **kwargs)
    sub.tombstone_at(i)


@pytest.fixture()
def partition():
    """Partition over cells [4, 7] with a mix of originals and replicas."""
    p = Partition(4, 7, SortPolicy.TEMPORAL)
    # originals ending inside
    p.add(1, 40, 60, end_cell=6, is_original=True)
    p.add(2, 45, 70, end_cell=7, is_original=True)
    # original ending after
    p.add(3, 50, 95, end_cell=9, is_original=True)
    # replica ending inside
    p.add(4, 10, 55, end_cell=5, is_original=False)
    # replica spanning the partition
    p.add(5, 5, 99, end_cell=9, is_original=False)
    return p


class TestRouting:
    def test_subdivision_routing(self, partition):
        assert partition.o_in.ids == [1, 2]
        assert partition.o_aft.ids == [3]
        assert partition.r_in.ids == [4]
        assert partition.r_aft.ids == [5]

    def test_len(self, partition):
        assert len(partition) == 5

    def test_division_live_ids(self, partition):
        assert sorted(partition.division_live_ids(DivisionKind.ORIGINALS)) == [1, 2, 3]
        assert sorted(partition.division_live_ids(DivisionKind.REPLICAS)) == [4, 5]

    def test_division_entries(self, partition):
        entries = partition.division_entries(DivisionKind.ORIGINALS)
        assert sorted(e[0] for e in entries) == [1, 2, 3]


class TestScans:
    def test_none_reports_all(self, partition):
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.NONE, 0, 0) == [1, 2, 3]
        assert scan(partition, DivisionKind.REPLICAS, TemporalCheck.NONE, 0, 0) == [4, 5]

    def test_start_only(self, partition):
        # q.st = 65: originals with end >= 65: 2 (70), 3 (95 — auto via o_aft)
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.START_ONLY, 65, 99) == [2, 3]
        # replicas: 4 ends 55 < 65 fails; 5 auto-passes (r_aft)
        assert scan(partition, DivisionKind.REPLICAS, TemporalCheck.START_ONLY, 65, 99) == [5]

    def test_end_only(self, partition):
        # q.end = 47: originals with st <= 47: 1 (40), 2 (45)
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.END_ONLY, 0, 47) == [1, 2]

    def test_both(self, partition):
        # q = [65, 47]? use [46, 62]: originals overlapping: 1 [40,60], 2 [45,70], 3 [50,95]
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.BOTH, 46, 62) == [1, 2, 3]
        # q = [75, 90]: only 3 overlaps among originals
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.BOTH, 75, 90) == [3]

    def test_subdivision_skips_match_full_checks(self, partition):
        """The shortcut scan equals a brute-force filter of the division's
        live entries under the full check."""
        for kind in DivisionKind:
            entries = partition.division_entries(kind)
            for check in TemporalCheck:
                for q in ((46, 62), (65, 99), (0, 47), (75, 90)):
                    slow = full_check(entries, check, *q)
                    assert scan(partition, kind, check, *q) == slow, (kind, check, q)


class TestTombstones:
    def test_tombstone_hides_from_scans(self, partition):
        tombstone(partition, 2, 45, 70, end_cell=7, is_original=True)
        assert scan(partition, DivisionKind.ORIGINALS, TemporalCheck.NONE, 0, 0) == [1, 3]
        assert len(partition) == 4

    def test_tombstone_missing_raises(self, partition):
        with pytest.raises(UnknownObjectError):
            partition.locate(99, 0, 0, end_cell=6, is_original=True)

    def test_tombstone_in_each_subdivision(self, partition):
        tombstone(partition, 3, 50, 95, end_cell=9, is_original=True)
        tombstone(partition, 4, 10, 55, end_cell=5, is_original=False)
        tombstone(partition, 5, 5, 99, end_cell=9, is_original=False)
        assert scan(partition, DivisionKind.REPLICAS, TemporalCheck.NONE, 0, 0) == []


class TestSortMaintenance:
    def test_temporal_orders(self):
        p = Partition(0, 7, SortPolicy.TEMPORAL)
        for i, (st, end) in enumerate([(30, 40), (10, 20), (20, 70)]):
            p.add(i, st, end, end_cell=5, is_original=True)
        assert p.o_in.sts == sorted(p.o_in.sts)

    def test_replica_end_desc(self):
        p = Partition(0, 7, SortPolicy.TEMPORAL)
        for i, end in enumerate([40, 90, 60]):
            p.add(i, -5, end, end_cell=5, is_original=False)
        assert p.r_in.ends == sorted(p.r_in.ends, reverse=True)

    def test_by_id_order(self):
        p = Partition(0, 7, SortPolicy.BY_ID)
        for object_id in (5, 2, 9, 1):
            p.add(object_id, 0, 3, end_cell=3, is_original=True)
        assert p.o_in.ids == [1, 2, 5, 9]


class TestSizeAccounting:
    def test_subdivisions_charged_for_their_endpoints(self, partition):
        # o_in: 2 full entries; o_aft, r_in: id + one endpoint; r_aft: id only;
        # plus 4 non-empty subdivision containers.
        assert partition.size_bytes() == (
            2 * ENTRY_FULL_BYTES
            + 2 * ENTRY_ID_START_BYTES
            + ENTRY_ID_BYTES
            + 4 * CONTAINER_BYTES
        )


class TestSubArrayEdge:
    def test_scan_empty(self):
        sub = SubArray(_Order.BY_ST)
        out = []
        sub.scan(TemporalCheck.BOTH, 0, 10, out)
        assert out == []

    def test_tombstone_false_when_absent(self):
        sub = SubArray(_Order.BY_ID)
        sub.add(1, 0, 1)
        assert sub.locate(2, 0, 1) == -1
        assert sub.locate(1, 0, 2) == -1  # the id alone is not a match
        assert sub.locate(1, 0, 1) == 0
