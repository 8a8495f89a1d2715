"""Per-index tests for the two irHINT variants (Section 4)."""

import pickle
import random

import numpy as np
import pytest

from repro.core.errors import CorruptSnapshotError, UnknownObjectError
from repro.core.model import make_object, make_query
from repro.datasets.synthetic import generate_synthetic
from repro.indexes import explain, irhint
from repro.indexes.irhint import IRHintPerformance, IRHintSize
from repro.indexes.persistence import dumps_index, loads_index
from repro.indexes.tif import TIF
from repro.intervals.hint import cost_model, timefirst


@pytest.mark.parametrize("cls", [IRHintPerformance, IRHintSize])
class TestCommonBehaviour:
    def test_running_example(self, cls, running_example, example_query):
        index = cls.build(running_example, num_bits=3)
        assert index.query(example_query).tolist() == [2, 4, 7]

    def test_pure_temporal_handled_natively(self, cls, running_example):
        """q.d = ∅: a HINT range query (size) or the catalog scan
        (performance) — the same answer, empty descriptions included."""
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(2, 4)).tolist() == [2, 4, 5, 6, 7, 8]
        index.insert(make_object(40, 3, 3))
        assert index.query(make_query(2, 4)).tolist() == [2, 4, 5, 6, 7, 8, 40]
        assert index.query(make_query(2, 4, {"c"})).tolist() == [2, 4, 5, 6, 7, 8]
        index.delete(40)
        assert index.query(make_query(2, 4)).tolist() == [2, 4, 5, 6, 7, 8]

    def test_answers_are_int64_arrays(self, cls, running_example):
        """Answers leave the index as the one answer type (the daemon
        attaches them to its frames as binary ids), on a store read flat
        as on one read through tables."""
        index = cls.build(running_example, num_bits=3)
        for q in (make_query(2, 4, {"a", "c"}), make_query(2, 4)):
            answer = index.query(q)
            assert type(answer) is np.ndarray and answer.dtype == np.int64
            assert not answer.flags.writeable

    def test_stabbing(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(5, 5, {"b"})).tolist() == [1, 4, 5]

    def test_full_extent_degrades_to_ir_search(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        assert index.query(make_query(0, 7, {"a", "c"})).tolist() == [1, 2, 4, 7]

    def test_cost_model_chooses_m_when_unset(self, cls, running_example):
        """Unset, the cap is the cost model's ceiling; the rule picks each
        run's ``m`` under it."""
        index = cls.build(running_example)
        assert index.num_bits == irhint.DEFAULT_BITS

    def test_updates(self, cls, running_example, example_query):
        index = cls.build(running_example, num_bits=3)
        index.delete(2)
        index.delete(running_example[7])
        assert index.query(example_query).tolist() == [4]
        index.insert(make_object(31, 2, 6, {"a", "c", "x"}))
        assert index.query(example_query).tolist() == [4, 31]
        assert index.query(make_query(2, 4, {"x"})).tolist() == [31]

    def test_delete_unknown(self, cls, running_example):
        index = cls.build(running_example, num_bits=3)
        with pytest.raises(UnknownObjectError):
            index.delete(make_object(99, 0, 1, {"a"}))

    def test_no_duplicates_across_divisions(self, cls, running_example):
        """HINT's structural duplicate avoidance: o4 spans everything and
        is replicated widely, yet reported once."""
        index = cls.build(running_example, num_bits=3)
        result = index.query(make_query(0, 7, {"b"})).tolist()
        assert result == sorted(set(result)) == [1, 3, 4, 5]

    def test_empty_index(self, cls):
        from repro.core.collection import Collection

        index = cls.build(Collection())
        assert index.query(make_query(0, 1, {"a"})).tolist() == []
        assert index.query(make_query(0, 1)).tolist() == []


class TestVariantSpecifics:
    @pytest.fixture(autouse=True)
    def _tables_on_the_running_example(self, small_tables):
        """Its lists hold 4, 4 and 7 entries."""

    def test_divisions_materialised(self, running_example):
        perf = IRHintPerformance.build(running_example, num_bits=3)
        size = IRHintSize.build(running_example, num_bits=3)
        assert perf.n_divisions() > 0
        assert size.n_divisions() > 0

    def test_size_variant_is_smaller(self, random_collection):
        """Section 4.2's whole point: the size variant stores each interval
        once per division instead of once per (element, division)."""
        perf = IRHintPerformance.build(random_collection, num_bits=5)
        size = IRHintSize.build(random_collection, num_bits=5)
        assert size.size_bytes() < perf.size_bytes()

    def test_perf_division_entries_scale_with_description(self, running_example):
        perf = IRHintPerformance.build(running_example, num_bits=3)
        # Σ over assignments of |o.d| — strictly more than one entry per
        # object whenever descriptions exceed one element.
        stats = perf.stats()
        assert stats["division_entries"] > len(running_example)
        assert stats["n_tables"] == 3 and stats["num_bits"] == 3
        # The tables are what the index holds beyond its tIF.
        assert perf.size_bytes() > TIF.build(running_example).size_bytes()

    def test_size_variant_shares_hint(self, running_example):
        size = IRHintSize.build(running_example, num_bits=3)
        assert size.interval_hint is not None
        assert len(size.interval_hint) == 8
        assert size.interval_hint.range_query(2, 4) == [2, 4, 5, 6, 7, 8]


class TestFlatLayout:
    """IRHintPerformance = one Hint per element: a packed run, and a table
    where the cost rule finds one pays."""

    @staticmethod
    def _spread(n=2000, seed=3):
        rng = random.Random(seed)
        for oid in range(n):
            st = rng.randrange(1_000_000)
            d = {"hot"} | ({"cold"} if oid % 7 == 0 else set())
            yield make_object(oid, st, st + rng.randrange(2_000), d)

    def test_started_empty_gets_a_real_domain(self, small_tables):
        """Bugfix.  An index that started empty used to fix its grid to
        the *first inserted object's* lifespan (+25 %, m = 10), so every
        later object clamped into the last cell and a narrow query read
        everything.  A table takes its domain from its list, and m comes
        from the cost rule over that list."""
        index = IRHintPerformance()
        objects = list(self._spread())
        for obj in objects:
            index.insert(obj)
        narrow = explain(index, make_query(500_000, 500_500, {"hot"}))
        assert narrow.phases[0].label == "time-first table I[hot]"
        assert narrow.result_size == len(
            [o for o in objects if o.st <= 500_500 and 500_000 <= o.end]
        )
        assert narrow.total_entries_scanned < len(objects) // 10
        hint = index.hint_for("hot")
        mapper = hint.verdict().mapper
        _ids, sts, ends = hint._run.columns()
        assert mapper.num_bits == cost_model.choose_bits(sts, ends, index.num_bits) > 1
        assert (mapper.lo, mapper.hi) == (
            min(o.st for o in objects), max(o.end for o in objects)
        )

    def test_ledger_data_narrow_queries_gather_a_fraction(self, small_tables):
        """Counts, no clock: on the ledger's generator a narrow query reads
        fewer rows of its term's table than the term's list holds."""
        coll = generate_synthetic(cardinality=2000, dict_size=800, sigma=8_000_000.0)
        index = IRHintPerformance.build(coll)
        flat = TIF.build(coll)
        top = max(coll.dictionary.elements(), key=coll.dictionary.frequency)
        held = len(index.hint_for(top))
        domain = coll.domain()
        span = domain.end - domain.st
        gathered = []
        for k in range(1, 10):
            st = domain.st + k * span // 10
            q = make_query(st, st + span // 1000, {top})
            assert index.query(q).tolist() == flat.query(q).tolist()
            first = explain(index, q).phases[0]
            if first.label == f"time-first table I[{top}]":
                gathered.append(first.entries_scanned)
            else:  # a window whose slices hold every row, so scanned flat
                assert (first.label, first.entries_scanned) == (f"scan I[{top}]", held)
        assert len(gathered) >= 7 and max(gathered) < held // 4

    def test_tables_are_never_pickled(self, small_tables, random_collection):
        index = IRHintPerformance.build(random_collection)
        q = make_query(2000, 6000, {"e0"})
        want = index.query(q).tolist()
        assert index.hint_for("e0").verdict().table is not None
        blob = pickle.dumps(index)
        assert b"TimeFirstTable" not in blob
        clone = pickle.loads(blob)
        assert clone.hint_for("e0")._table is None and clone.num_bits == index.num_bits
        assert clone.query(q).tolist() == want and clone.hint_for("e0")._table is not None

    def test_pre_flat_snapshot_is_refused(self):
        legacy = IRHintPerformance.__new__(IRHintPerformance)
        legacy.__dict__.update({"_divisions": {}, "_mapper": None, "_catalog": {}})
        with pytest.raises(CorruptSnapshotError, match="predates the flat layout"):
            loads_index(dumps_index(legacy))

    def test_a_table_is_built_by_the_query_that_finds_none_usable(self, small_tables, monkeypatch):
        """Lazy, no policy: the first query on a long list builds its table,
        later ones reuse it, and one that finds it stale rebuilds it."""
        built = []

        class Counting(timefirst.TimeFirstTable):
            def __init__(self, postings, num_bits):
                built.append(len(postings))
                super().__init__(postings, num_bits)

        monkeypatch.setattr(timefirst, "TimeFirstTable", Counting)
        index = IRHintPerformance(num_bits=6)
        even = [obj for obj in self._spread(400) if obj.id % 2 == 0]
        for obj in even:
            index.insert(obj)
        assert not built and index.hint_for("hot")._table is None
        q = make_query(0, 1_000_000, {"hot"})
        assert explain(index, q).detail["table"] == "none" and built == [200]
        for _ in range(3):
            assert explain(index, q).detail["table"] == "fresh"
        index.delete(even[0])  # a tombstone, then a revive with the same interval:
        index.insert(even[0])  # neither moves a slot
        assert explain(index, q).detail["table"] == "fresh" and built == [200]
        index.insert(make_object(1, 5, 9, {"hot"}))  # mid-list: every later slot shifts
        assert explain(index, q).detail["table"] == "stale" and built == [200, 201]
        assert index.query(q).tolist() == sorted(index._catalog) and built == [200, 201]

    def test_window_at_the_lists_last_end(self, small_tables):
        """A term alive for a short burst: its list spans fewer timestamps
        than the grid has cells, the exact-offset regime, where the top of
        the domain must still land in the last cell on both sides."""
        index, flat = IRHintPerformance(num_bits=10), TIF()
        for oid in range(20):
            for each in (index, flat):
                each.insert(make_object(oid, oid, oid + 60, {"burst"}))
        for each in (index, flat):
            each.insert(make_object(20, 90, 100, {"burst"}))
        for st in (100, 99.5, 100.0, 79, 80):
            q = make_query(st, 100, {"burst"})
            assert explain(index, q).phases[0].label == "time-first table I[burst]"
            assert index.query(q).tolist() == flat.query(q).tolist() != []
