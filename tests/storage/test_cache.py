"""The byte-budgeted, pin-counted LRU of open segment readers."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.model import make_query
from repro.obs.registry import isolated_registry
from repro.storage.cache import SegmentCache
from repro.storage.reader import SegmentReader
from repro.storage.writer import write_segment

from tests.conftest import random_objects


def _make_segment(tmp_path, name, n=50, seed=1):
    return write_segment(
        tmp_path / f"{name}.seg",
        random_objects(n, seed=seed),
        shard_id=name,
        index_key="tif",
        index_params={},
    )


@pytest.fixture()
def segments(tmp_path):
    return [_make_segment(tmp_path, f"s{i}", seed=10 + i) for i in range(3)]


class TestLeases:
    def test_lease_reuses_the_open_reader(self, segments):
        cache = SegmentCache()
        with cache.lease(segments[0]) as first:
            pass
        with cache.lease(segments[0]) as second:
            assert second is first
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        cache.close()

    def test_reader_usable_inside_lease(self, segments):
        cache = SegmentCache()
        with cache.lease(segments[0]) as reader:
            assert reader.shard_id == "s0"
            assert len(reader) == 50
        cache.close()

    def test_close_closes_everything(self, segments):
        cache = SegmentCache()
        readers = []
        for path in segments:
            with cache.lease(path) as reader:
                readers.append(reader)
        assert len(cache) == 3
        cache.close()
        assert len(cache) == 0
        assert all(reader.closed for reader in readers)


class TestBufferLifetimes:
    """Columns decode through numpy views of the mapped file, and a view
    left alive makes ``mmap.close()`` raise ``BufferError``.  Whatever a
    caller keeps — answers, postings views — must hold no such view."""

    def _touch_everything(self, reader):
        element = next(iter(reader.directory.terms))
        postings = reader.postings(element)
        kept = [
            postings,
            postings.overlapping(0, 10**9),
            postings.ids(),
            postings.intersect_sorted(reader.object_ids()),
            reader.query(make_query(0, 10**9, {element})),
            reader.query(make_query(0, 10**9, set())),  # the catalog-column scan
            reader.object_ids(),
        ]
        assert all(len(held) for held in kept[1:])
        return kept

    def test_close_succeeds_while_results_are_held(self, segments):
        reader = SegmentReader(segments[0])
        kept = self._touch_everything(reader)
        reader.close()
        assert reader.closed
        assert all(type(x) is int for x in kept[2])
        for answer in kept[4:6]:  # answers own their ids: no view of the map
            assert answer.dtype == np.int64 and answer.base is None
            assert all(type(x) is int for x in answer.tolist())

    def test_eviction_succeeds_while_results_are_held(self, segments):
        cache = SegmentCache(budget_bytes=1)  # every released lease is evicted
        kept = []
        for path in segments:
            with cache.lease(path) as reader:
                kept.append((reader, self._touch_everything(reader)))
        assert cache.stats()["evictions"] == 3
        assert all(reader.closed for reader, _ in kept)
        cache.close()


class TestEviction:
    def test_budget_evicts_lru(self, segments):
        # A 1-byte budget can hold nothing once leases drop.
        cache = SegmentCache(budget_bytes=1)
        for path in segments:
            with cache.lease(path):
                pass
        assert cache.resident_bytes == 0
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 3
        cache.close()

    def test_pinned_readers_survive_eviction(self, segments):
        cache = SegmentCache(budget_bytes=1)
        with cache.lease(segments[0]) as pinned:
            # Another segment comes and goes; the pinned one must not close.
            with cache.lease(segments[1]):
                pass
            assert not pinned.closed
            # Transient overrun: the pinned reader stays resident.
            assert cache.resident_bytes == pinned.size_bytes()
        # The pin released: the budget now applies.
        assert cache.resident_bytes == 0
        cache.close()

    def test_generous_budget_keeps_all(self, segments):
        cache = SegmentCache(budget_bytes=1 << 30)
        for path in segments:
            with cache.lease(path):
                pass
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 0
        cache.close()

    def test_lru_order_is_recency(self, segments, tmp_path):
        sizes = {}
        cache = SegmentCache(budget_bytes=1 << 30)
        for path in segments:
            with cache.lease(path) as reader:
                sizes[str(path)] = reader.size_bytes()
        # Touch s0 again, then shrink the budget so only two fit: the
        # eviction victim must be s1 (least recently used), not s0.
        with cache.lease(segments[0]):
            pass
        cache.budget_bytes = sizes[str(segments[0])] + sizes[str(segments[2])]
        with cache.lease(segments[2]):
            pass
        stats = cache.stats()
        assert stats["open_segments"] == 2
        with cache.lease(segments[0]):
            pass
        assert cache.stats()["hits"] >= 2  # s0 and s2 stayed resident
        cache.close()


class TestLifecycle:
    def test_discard_drops_and_closes(self, segments):
        cache = SegmentCache()
        with cache.lease(segments[0]) as reader:
            pass
        cache.discard(segments[0])
        assert reader.closed
        assert len(cache) == 0
        # Discarding an unknown path is a no-op.
        cache.discard(segments[1])
        cache.close()

    def test_release_after_discard_is_safe(self, segments):
        cache = SegmentCache()
        reader = cache.acquire(segments[0])
        cache.discard(segments[0])
        assert reader.closed
        cache.release(segments[0])  # must not raise or resurrect
        assert len(cache) == 0
        cache.close()

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SegmentCache(budget_bytes=0)


class TestMetrics:
    def test_cache_counters_and_gauge(self, segments):
        with isolated_registry() as registry:
            cache = SegmentCache(budget_bytes=1 << 30)
            with cache.lease(segments[0]):
                pass
            with cache.lease(segments[0]):
                pass
            assert registry.sample_value("repro_storage_cache_misses_total") == 1
            assert registry.sample_value("repro_storage_cache_hits_total") == 1
            assert (
                registry.sample_value("repro_storage_cache_bytes")
                == cache.resident_bytes
            )
            cache.budget_bytes = 1
            with cache.lease(segments[1]):
                pass
            assert registry.sample_value("repro_storage_cache_evictions_total") >= 1
            cache.close()
            assert registry.sample_value("repro_storage_cache_bytes") == 0
