"""Edge-case sweep across every postings backend, plus backend selection.

The property harness (test_postings_property.py) covers the statistical
bulk; this module pins the named corners the harness could in principle
wander past — empty lists, single entries, all-identical intervals,
delete-everything-then-re-add, tombstone accounting — one parametrized
fixture over *all* backends so any new backend inherits the sweep by
registering itself in :data:`repro.ir.backends.POSTINGS_BACKENDS`.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, UnknownObjectError
from repro.ir.backends import (
    POSTINGS_BACKEND_ENV,
    POSTINGS_BACKENDS,
    make_postings,
    postings_backend,
)
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import IdPostingsList, PostingsList

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1
INF = float("inf")

ALL_BACKENDS = sorted(POSTINGS_BACKENDS)


@pytest.fixture(params=ALL_BACKENDS)
def backend_name(request):
    return request.param


@pytest.fixture
def fresh(backend_name):
    """A fresh, empty postings list of each registered backend."""
    return POSTINGS_BACKENDS[backend_name]()


class TestEmptyList:
    def test_observable_surface(self, fresh):
        assert len(fresh) == 0
        assert not fresh
        assert fresh.physical_len() == 0
        assert list(fresh.entries()) == []
        assert fresh.ids() == []
        assert fresh.overlapping(0, 100) == []
        assert fresh.overlapping_ids(0, 100) == []
        assert fresh.intersect_sorted([1, 2, 3]) == []
        assert 7 not in fresh
        assert fresh.size_bytes() > 0

    def test_span_raises(self, fresh):
        with pytest.raises(UnknownObjectError):
            fresh.span()

    def test_delete_raises(self, fresh):
        with pytest.raises(UnknownObjectError):
            fresh.delete(1)


class TestSingleEntry:
    def test_surface(self, fresh):
        fresh.add(42, 10, 20)
        assert len(fresh) == 1
        assert fresh.physical_len() == 1
        assert list(fresh.entries()) == [(42, 10, 20)]
        assert fresh.ids() == [42]
        assert 42 in fresh and 41 not in fresh
        assert fresh.overlapping_ids(15, 15) == [42]
        assert fresh.overlapping_ids(21, 30) == []
        assert fresh.overlapping_ids(0, 9) == []
        assert fresh.overlapping_ids(20, 20) == [42]  # closed endpoints
        assert fresh.overlapping_ids(10, 10) == [42]
        assert fresh.overlapping_ids(20, INF) == [42] and fresh.overlapping_ids(21, INF) == []
        assert fresh.overlapping_ids(-INF, 10) == [42] and fresh.overlapping_ids(-INF, 9) == []
        assert fresh.intersect_sorted([41, 42, 43]) == [42]
        assert fresh.span() == (10, 20)

    def test_point_interval(self, fresh):
        fresh.add(1, 5, 5)
        assert fresh.overlapping_ids(5, 5) == [1]
        assert fresh.overlapping_ids(4, 4) == []
        assert fresh.overlapping_ids(6, 6) == []
        assert fresh.span() == (5, 5)


class TestIdenticalIntervals:
    def test_many_objects_one_interval(self, fresh):
        for oid in range(30):
            fresh.add(oid, 100, 200)
        assert fresh.overlapping_ids(150, 150) == list(range(30))
        assert fresh.overlapping_ids(0, 99) == []
        assert fresh.span() == (100, 200)
        assert fresh.intersect_sorted(list(range(0, 60, 2))) == list(range(0, 30, 2))


class TestTombstones:
    def test_physical_vs_live_divergence(self, fresh):
        for oid in range(10):
            fresh.add(oid, 0, 10)
        fresh.delete(3)
        fresh.delete(7)
        assert len(fresh) == 8
        assert fresh.physical_len() >= len(fresh)
        assert 3 not in fresh and 7 not in fresh
        assert fresh.ids() == [0, 1, 2, 4, 5, 6, 8, 9]
        assert fresh.overlapping_ids(5, 5) == [0, 1, 2, 4, 5, 6, 8, 9]
        assert fresh.intersect_sorted([3, 4, 7, 8]) == [4, 8]

    def test_double_delete_raises(self, fresh):
        fresh.add(1, 0, 1)
        fresh.delete(1)
        with pytest.raises(UnknownObjectError):
            fresh.delete(1)

    def test_delete_everything_then_re_add(self, fresh):
        for oid in range(20):
            fresh.add(oid, oid, oid + 5)
        for oid in range(20):
            fresh.delete(oid)
        assert len(fresh) == 0
        assert not fresh
        assert fresh.ids() == []
        assert fresh.overlapping_ids(-10_000, 10_000) == []
        with pytest.raises(UnknownObjectError):
            fresh.span()
        # Re-add with *different* intervals: revives must not resurrect
        # the old timestamps.
        for oid in range(20):
            fresh.add(oid, 1_000 + oid, 2_000 + oid)
        assert len(fresh) == 20
        assert list(fresh.entries()) == [
            (oid, 1_000 + oid, 2_000 + oid) for oid in range(20)
        ]
        assert fresh.span() == (1_000, 2_019)

    def test_re_add_overwrites_live_interval(self, fresh):
        fresh.add(5, 0, 10)
        fresh.add(5, 100, 200)
        assert len(fresh) == 1
        assert list(fresh.entries()) == [(5, 100, 200)]
        assert fresh.overlapping_ids(0, 10) == []


class TestOutOfOrderAdds:
    def test_descending_and_interleaved(self, fresh):
        for oid in (50, 10, 30, 20, 40, 15):
            fresh.add(oid, oid, oid + 1)
        assert fresh.ids() == [10, 15, 20, 30, 40, 50]
        assert list(fresh.entries()) == [
            (oid, oid, oid + 1) for oid in (10, 15, 20, 30, 40, 50)
        ]


class TestExtremeValues:
    def test_i64_boundaries(self, fresh):
        fresh.add(I64_MIN, I64_MIN, I64_MAX)
        fresh.add(I64_MAX, I64_MAX, I64_MAX)
        fresh.add(0, -1, 1)
        assert fresh.ids() == [I64_MIN, 0, I64_MAX]
        assert fresh.span() == (I64_MIN, I64_MAX)
        assert fresh.overlapping_ids(I64_MAX, I64_MAX) == [I64_MIN, I64_MAX]
        assert fresh.intersect_sorted([I64_MIN, 0, I64_MAX]) == [I64_MIN, 0, I64_MAX]

    def test_float_timestamps(self, fresh):
        fresh.add(1, 0.5, 2.5)
        fresh.add(2, -1.25, 0.75)
        assert fresh.overlapping_ids(0.6, 0.6) == [1, 2]
        assert fresh.overlapping_ids(2.6, 3.0) == []
        assert fresh.span() == (-1.25, 2.5)
        fresh.delete(1)
        assert fresh.ids() == [2]

    def test_beyond_i64_integers(self, fresh):
        fresh.add(1, -(1 << 80), 1 << 80)
        fresh.add(2, 0, 0)
        assert fresh.overlapping_ids(1 << 79, 1 << 81) == [1]
        assert fresh.span() == (-(1 << 80), 1 << 80)

    def test_float_bounds_past_2_53_order_like_python(self, fresh):
        # float64 cannot tell the neighbours of 2**53 apart; a column kernel
        # that let numpy round the *column* to compare it with a float bound
        # would.  Python orders ints and floats exactly, and so must every
        # backend (compact() seals the block backend: the column kernel).
        base = 1 << 53
        for i in range(4):
            fresh.add(i, base + i, base + i)
        fresh.compact()
        below, above = float(base + 1), float(base + 3)  # round to even
        assert (below, above) == (base, base + 4)
        assert fresh.overlapping_ids(-INF, below) == [0]
        assert fresh.overlapping_ids(below, INF) == [0, 1, 2, 3]
        assert fresh.overlapping_ids(below, below) == [0]
        assert fresh.overlapping_ids(above, INF) == []
        assert fresh.overlapping_ids(-INF, above) == [0, 1, 2, 3]
        assert fresh.overlapping_ids(float(base + 2), above) == [2, 3]
        assert [e[0] for e in fresh.overlapping(float(base), base + 1)] == [0, 1]
        assert fresh.overlapping_ids(float("-inf"), float("inf")) == [0, 1, 2, 3]
        assert fresh.overlapping_ids(float("nan"), float("inf")) == []
        assert fresh.overlapping_ids(2.0**63, 2.0**64) == []

    def test_float_bounds_at_kernel_length_match_the_list_oracle(self, fresh):
        # 100 entries: past packed's _VECTOR_MIN, where the numpy kernels
        # answer instead of the scalar loops the four entries above reach.
        # Half sit beside 2**53, half beside I64_MAX; a few are tombstoned.
        oracle = PostingsList()
        for i in range(100):
            base = (1 << 53) if i < 50 else I64_MAX - 150
            for target in (fresh, oracle):
                target.add(i, base + i, base + i + 1)
        for i in (3, 50, 99):
            fresh.delete(i)
            oracle.delete(i)
        inf = float("inf")
        bounds = [
            2.0**63, -(2.0**63), 1e19, float(2**53 + 2), float(2**53 + 51),
            float(I64_MAX - 100), inf, -inf, float("nan"), 2**53 + 7, 1 << 70,
        ]
        for a in bounds:
            for b in bounds:
                assert fresh.overlapping_ids(a, b) == oracle.overlapping_ids(a, b), (a, b)
                assert fresh.overlapping(a, b) == oracle.overlapping(a, b), (a, b)
        assert oracle.overlapping_ids(2.0**63, inf) == []
        assert len(oracle.overlapping_ids(-inf, 2.0**63)) == 97

    def test_spill_mid_stream_keeps_earlier_entries(self, fresh):
        fresh.add(1, 10, 20)
        fresh.add(2, 0.5, 2.5)  # first non-i64 value after native entries
        assert list(fresh.entries()) == [(1, 10, 20), (2, 0.5, 2.5)]
        fresh.delete(1)
        assert fresh.ids() == [2]


class TestCompressedDeleteRegression:
    """Satellite regression: CompressedPostingsList must support deletes.

    The original extension was immutable (rebuilt from a finished list);
    as a live backend it must tombstone, keep answering queries, revive
    on re-add, and compact without changing any answer.
    """

    def test_delete_then_every_query_path(self):
        pl = CompressedPostingsList()
        for oid in range(300):  # spans >1 block (BLOCK_SIZE=128)
            pl.add(oid, oid, oid + 10)
        pl.delete(0)
        pl.delete(150)
        pl.delete(299)
        assert len(pl) == 297
        assert 150 not in pl
        assert pl.overlapping_ids(150, 150) == list(range(140, 150))
        assert pl.overlapping_ids(300, INF) == [oid for oid in range(290, 299)]
        assert pl.overlapping_ids(-INF, 5) == [1, 2, 3, 4, 5]
        assert pl.intersect_sorted([0, 1, 150, 151, 299]) == [1, 151]
        assert pl.span() == (1, 308)

    def test_delete_in_unsealed_tail(self):
        pl = CompressedPostingsList()
        pl.add(1, 0, 1)
        pl.add(2, 5, 6)  # both still in the tail, no sealed block yet
        pl.delete(1)
        assert pl.ids() == [2]
        assert pl.overlapping_ids(0, 10) == [2]
        with pytest.raises(UnknownObjectError):
            pl.delete(1)

    def test_compaction_reclaims_tombstones(self):
        pl = CompressedPostingsList()
        for oid in range(400):
            pl.add(oid, 0, 1)
        for oid in range(201):
            pl.delete(oid)
        # Once tombstones outnumber live entries the store rebuilds; dead
        # entries stop occupying physical slots and answers are unchanged.
        assert len(pl) == 199
        assert pl.physical_len() == 199
        assert pl.ids() == list(range(201, 400))

    def test_revive_after_delete_with_new_interval(self):
        pl = CompressedPostingsList()
        for oid in range(200):
            pl.add(oid, 0, 1)
        pl.delete(50)
        pl.add(50, 700, 800)
        assert 50 in pl
        assert pl.overlapping_ids(750, 750) == [50]
        assert pl.overlapping_ids(0, 1) == [o for o in range(200) if o != 50]

    def test_size_reports_encoded_bytes(self):
        pl = CompressedPostingsList()
        ref = PostingsList()
        for oid in range(1_000):
            pl.add(oid, 1_000_000 + oid, 1_000_000 + oid + 3)
            ref.add(oid, 1_000_000 + oid, 1_000_000 + oid + 3)
        assert pl.size_bytes() < ref.size_bytes() / 3

    def test_legacy_entries_constructor(self):
        entries = [(1, 0, 5), (4, 2, 2), (9, 1, 10)]
        pl = CompressedPostingsList(entries)
        assert list(pl.entries()) == entries
        assert CompressedPostingsList([]).size_bytes() > 0


class TestPackedInternals:
    def test_compaction_bounds_tombstone_debt(self):
        pl = PackedPostingsList()
        for oid in range(512):
            pl.add(oid, 0, 1)
        for oid in range(512):
            pl.delete(oid)
        # Auto-compaction keeps physical storage proportional to live
        # entries rather than total historical adds.
        assert len(pl) == 0
        assert pl.physical_len() < 512

    def test_explicit_compact_is_answer_preserving(self):
        pl = PackedPostingsList()
        for oid in range(100):
            pl.add(oid, oid, oid + 2)
        for oid in range(0, 100, 3):
            pl.delete(oid)
        before = (list(pl.entries()), pl.ids(), pl.span())
        pl.compact()
        assert pl.physical_len() == len(pl)
        assert (list(pl.entries()), pl.ids(), pl.span()) == before

    def test_columnar_surface_and_layout_epoch(self):
        """What a derived structure may read: the epoch moves exactly when a
        stored slot moves or its interval changes, and is 0 once spilled."""
        pl = PackedPostingsList()
        for oid in range(0, 20, 2):
            pl.add(oid, oid, oid + 5)
        epoch = pl.layout_epoch
        assert epoch > 0 and pl.alive_column() is None
        assert [column.tolist() for column in pl.columns()] == [
            list(range(0, 20, 2)), list(range(0, 20, 2)), list(range(5, 25, 2))
        ]
        pl.add(20, 1, 2)  # append
        pl.delete(4)  # tombstone
        assert pl.alive_column().tolist() == [1, 1, 0] + [1] * 8
        pl.add(4, 4, 9)  # revive, same interval
        assert pl.layout_epoch == epoch and pl.alive_column() is None
        pl.add(4, 4, 10)  # another interval
        assert pl.layout_epoch == (epoch := epoch + 1)
        pl.add(3, 0, 0)  # mid-list insert
        assert pl.layout_epoch == (epoch := epoch + 1)
        pl.delete(3)
        pl.compact()
        assert pl.layout_epoch == epoch + 1 and pl.physical_len() == 11
        pl.add(30, 0.5, 1)  # spill
        assert pl.layout_epoch == 0


class TestIdBackendsEdgeCases:
    @pytest.fixture(params=["list"])  # the one id-only list; keeps the test ids
    def id_list(self):
        return IdPostingsList()

    def test_empty(self, id_list):
        assert len(id_list) == 0
        assert id_list.ids() == []
        assert id_list.intersect_sorted([1, 2]) == []
        with pytest.raises(UnknownObjectError):
            id_list.delete(3)

    def test_add_delete_re_add(self, id_list):
        for oid in (5, 1, 9, 5):  # duplicate add is idempotent
            id_list.add(oid)
        assert id_list.ids() == [1, 5, 9]
        id_list.delete(5)
        assert id_list.ids() == [1, 9]
        assert 5 not in id_list
        id_list.add(5)
        assert id_list.ids() == [1, 5, 9]
        assert id_list.intersect_sorted([0, 1, 5, 6, 9]) == [1, 5, 9]


class TestBackendSelection:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(POSTINGS_BACKEND_ENV, "compressed")
        assert isinstance(make_postings("list"), PostingsList)

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv(POSTINGS_BACKEND_ENV, "compressed")
        assert isinstance(make_postings(), CompressedPostingsList)

    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv(POSTINGS_BACKEND_ENV, raising=False)
        assert postings_backend() == "packed"
        assert isinstance(make_postings(), PackedPostingsList)

    def test_unknown_names_raise_configuration_error(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            postings_backend("roaring")
        monkeypatch.setenv(POSTINGS_BACKEND_ENV, "no-such-backend")
        with pytest.raises(ConfigurationError):
            make_postings()

    def test_env_is_read_at_creation_time(self, monkeypatch):
        monkeypatch.setenv(POSTINGS_BACKEND_ENV, "list")
        first = make_postings()
        monkeypatch.setenv(POSTINGS_BACKEND_ENV, "compressed")
        second = make_postings()
        assert isinstance(first, PostingsList)
        assert isinstance(second, CompressedPostingsList)

    def test_inverted_file_pins_backend_eagerly(self):
        from repro.ir.inverted import TemporalInvertedFile

        with pytest.raises(ConfigurationError):
            TemporalInvertedFile(backend="bogus")
        tif = TemporalInvertedFile(backend="compressed")
        tif.add_object(1, 0, 5, ["a"])
        assert isinstance(tif.postings("a"), CompressedPostingsList)
