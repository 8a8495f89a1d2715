"""Tests for query explanation/instrumentation."""

import threading

import pytest

from repro.core.errors import ConfigurationError
from repro.core.model import make_query
from repro.indexes import BruteForce, build_index
from repro.indexes.explain import explain
from repro.indexes.registry import PAPER_METHODS
from repro.bench.tuned import tuned
from repro.obs.context import Tracer

EXPLAINABLE = PAPER_METHODS + ["tif"]


def phase_tuples(records):
    """(name, entries scanned, candidates after, structures touched) of
    each phase event of a finished trace document."""
    return [
        (
            record["name"],
            record["attrs"].get("entries_scanned", 0),
            record["attrs"].get("candidates_after", 0),
            record["attrs"].get("structures_touched", 0),
        )
        for record in records
    ]


@pytest.fixture(scope="module")
def built(random_collection_module):
    collection = random_collection_module
    return collection, {
        key: build_index(key, collection, **tuned(key)) for key in EXPLAINABLE
    }


@pytest.fixture(scope="module")
def random_collection_module():
    from tests.conftest import random_objects
    from repro.core.collection import Collection

    return Collection(random_objects(400, seed=21))


class TestStructure:
    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_result_size_matches_query(self, built, key):
        collection, indexes = built
        q = make_query(2000, 6000, {"e0", "e1"})
        explanation = explain(indexes[key], q)
        assert explanation.result_size == len(indexes[key].query(q))
        assert explanation.method == indexes[key].name

    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_render_is_printable(self, built, key):
        _collection, indexes = built
        q = make_query(2000, 6000, {"e0", "e1"})
        text = explain(indexes[key], q).render()
        assert "explain" in text and "results" in text

    def test_unknown_index_rejected(self, built):
        collection, _indexes = built
        with pytest.raises(ConfigurationError):
            explain(BruteForce.build(collection), make_query(0, 1, {"e0"}))


class TestPaperClaims:
    """The structural facts the paper argues, verified via instrumentation."""

    def test_candidates_shrink_monotonically(self, built):
        """Every intersection can only remove candidates (Algorithm 1)."""
        _collection, indexes = built
        q = make_query(0, 15_000, {"e0", "e1", "e2"})
        for key in ("tif", "tif-slicing", "tif-sharding", "tif-hint-merge"):
            trajectory = explain(indexes[key], q).candidate_trajectory()
            assert trajectory == sorted(trajectory, reverse=True), key

    def test_slicing_touches_fewer_structures_than_hint_divisions(self, built, small_tables):
        """Section 3.2's fragmentation argument: for multi-element queries
        the slicing copy reads fewer sub-lists than a HINT has relevant
        divisions — the rationale for the hybrid design.  (These lists are
        short enough that the shipped cost rule reads them flat; the
        ``small_tables`` charges give them their divisions, from a build
        under them.)"""
        collection, indexes = built
        q = make_query(2000, 2400, {"e0", "e1", "e2"})
        slicing = explain(indexes["tif-slicing"], q)
        merge = explain(build_index("tif-hint-merge", collection, **tuned("tif-hint-merge")), q)
        # Compare the intersection phases only (skip the first element).
        slicing_touched = sum(p.structures_touched for p in slicing.phases[1:])
        merge_touched = sum(p.structures_touched for p in merge.phases[1:])
        assert slicing_touched <= merge_touched

    def test_irhint_division_counts(self, built, small_tables):
        _collection, indexes = built
        q = make_query(2000, 2400, {"e0"})
        explain(indexes["irhint-perf"], q)  # builds e0's table if no test has yet
        explanation = explain(indexes["irhint-perf"], q)
        assert explanation.detail["table"] == "fresh"
        m = explanation.detail["m"]
        # Originals of partitions f … l and replicas of f alone: at most two
        # non-empty divisions (slices) per level, however many partitions
        # the window touches.
        per_level = explanation.detail["divisions_per_level"]
        assert all(0 < count <= 2 for count in per_level.values())
        assert set(per_level) <= set(range(m + 1))
        table_phase = explanation.phases[0]
        assert table_phase.label == "time-first table I[e0]"
        assert table_phase.structures_touched == sum(per_level.values())
        assert m + 1 <= explanation.detail["partitions_touched"]
        # Per level the partitions f … l of the window's cells: at most
        # extent / width + 2 of them.
        mapper = indexes["irhint-perf"].hint_for("e0").verdict().mapper
        first, last = mapper.cell_range(2000, 2400)
        assert explanation.detail["partitions_touched"] == sum(
            (last >> (m - level)) - (first >> (m - level)) + 1 for level in range(m + 1)
        )

    def test_sharding_impact_lists_skip_work(self, built):
        """Impact lists must let late queries skip shard prefixes."""
        collection, indexes = built
        domain = collection.domain()
        late = make_query(domain.end - 100, domain.end, {"e0"})
        explanation = explain(indexes["tif-sharding"], late)
        assert explanation.detail["impact_list_skips"] >= 0

    def test_wider_queries_scan_more(self, built, small_tables):
        _collection, indexes = built
        narrow = explain(indexes["irhint-perf"], make_query(5000, 5100, {"e0"}))
        wide = explain(indexes["irhint-perf"], make_query(0, 20_000, {"e0"}))
        assert wide.detail["partitions_touched"] >= narrow.detail["partitions_touched"]
        assert wide.total_entries_scanned >= narrow.total_entries_scanned
        # Wide enough that the flat scan is the cheaper read of the list.
        assert narrow.phases[0].label == "time-first table I[e0]"
        assert wide.phases[0].label == "scan I[e0]"


class TestTraceParity:
    """explain() is a renderer over the same trace the live path emits."""

    QUERIES = [
        make_query(2000, 6000, {"e0", "e1"}),
        make_query(0, 20_000, {"e0"}),
        make_query(2000, 6000, frozenset()),  # pure temporal
        make_query(5000, 5100, {"e39", "e38"}),  # rare elements, often empty
    ]

    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_trace_matches_explain(self, built, key):
        """The phases a sampled request trace collects are explain()'s."""
        _collection, indexes = built
        index = indexes[key]
        for q in self.QUERIES:
            request = Tracer(sample_rate=1.0).begin(None, "request")
            with request.activate():
                result = index.query(q).tolist()
            explanation = explain(index, q)
            assert explanation.result_size == len(result)
            _root, *events = request.finish()["spans"]
            assert explanation.phases, (key, q)
            assert phase_tuples(events) == [
                (p.label, p.entries_scanned, p.candidates_after, p.structures_touched)
                for p in explanation.phases
            ], (key, q)

    def test_trace_matches_explain_through_the_tables(self, built, small_tables):
        self.test_trace_matches_explain(built, "irhint-perf")
        assert built[1]["irhint-perf"].hint_for("e0").verdict().table is not None

    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_every_query_path_emits_phases(self, built, key):
        """Even pure-temporal and empty-result paths record ≥ 1 phase."""
        _collection, indexes = built
        for q in self.QUERIES:
            explanation = explain(indexes[key], q)
            assert len(explanation.phases) >= 1, (key, q)
            assert explanation.candidate_trajectory()[-1] >= explanation.result_size

    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_empty_index_emits_a_phase(self, key):
        from repro.core.collection import Collection

        index = build_index(key, Collection([]))
        explanation = explain(index, make_query(0, 100, {"e0"}))
        assert len(explanation.phases) >= 1
        assert explanation.result_size == 0


class TestIsolation:
    """An explanation records its own query and nothing another thread runs."""

    def test_other_threads_do_not_leak_into_an_explanation(self, built, monkeypatch):
        _collection, indexes = built
        index, other = indexes["tif"], indexes["irhint-size"]
        q = make_query(2000, 6000, {"e0", "e1"})
        undisturbed = explain(index, q)
        original = index._query_impl

        def query_beside_another_thread(query):
            worker = threading.Thread(target=other.query, args=(query,))
            worker.start()
            worker.join()
            return original(query)

        monkeypatch.setattr(index, "_query_impl", query_beside_another_thread)
        explanation = explain(index, q)
        assert [p.label for p in explanation.phases] == [
            p.label for p in undisturbed.phases
        ]
        assert explanation.detail == undisturbed.detail
        assert explanation.render() == undisturbed.render()


class TestMissingPhases:
    """Aggregates refuse to render a phaseless explanation as silent zeros."""

    def _empty_explanation(self):
        from repro.indexes.explain import QueryExplanation

        return QueryExplanation("tif", make_query(0, 1, {"e0"}), 0)

    def test_total_entries_scanned_raises(self):
        with pytest.raises(ConfigurationError, match="no phases"):
            self._empty_explanation().total_entries_scanned

    def test_total_structures_touched_raises(self):
        with pytest.raises(ConfigurationError, match="no phases"):
            self._empty_explanation().total_structures_touched

    def test_candidate_trajectory_raises(self):
        with pytest.raises(ConfigurationError, match="no phases"):
            self._empty_explanation().candidate_trajectory()

    def test_render_still_works_without_phases(self):
        text = self._empty_explanation().render()
        assert "explain tif" in text

    @pytest.mark.parametrize("key", EXPLAINABLE)
    def test_no_registry_index_hits_the_guard(self, built, key):
        """The guard is a tripwire: no real query path should trigger it."""
        _collection, indexes = built
        explanation = explain(indexes[key], make_query(1000, 9000, frozenset()))
        assert explanation.total_entries_scanned >= 0

