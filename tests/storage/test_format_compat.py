"""Format compatibility: v1 and v2 segments stay readable, writers emit
only v3.

An old segment is the only copy of its demoted shard's data, so this
build must open it, answer from it bit-identically to a v3 segment of
the same objects, promote it, and refuse a damaged one with a typed
error.  Each image is a literal written by the last commit that could
write its format (``parent_images``).  So are three index snapshots of
postings layouts this build no longer has: the pre-v2 ``compressed``
shape fails typed at load (recovery falls back); the ``list`` backend's
and the later ``compressed`` shape restore as packed lists.  Two more
pickle the retired per-division HINT classes: those indexes are rebuilt
from their catalogs at load.  Two froze one ``m`` per irHINT index; they
load with the cost rule picking each run's ``m``.  The last stored
irHINT-perf as a tIF beside its own verdicts; it is rebuilt from its
catalog onto the HINT-first skeleton.
"""

import io
import pickle

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.errors import (
    CorruptPostingsError,
    CorruptSegmentError,
    CorruptSnapshotError,
)
from repro.core.model import make_object, make_query
from repro.indexes.persistence import _parse_header, dumps_index, loads_index
from repro.indexes.registry import build_index
from repro.ir.packed import PackedPostingsList
from repro.service.faults import flip_bit
from repro.service.layout import snapshot_path, write_manifest
from repro.service.store import DurableIndexStore
from repro.storage.format import FOOTER_SIZE, MAGIC
from repro.storage.reader import SegmentReader
from repro.storage.writer import write_segment

from tests.conftest import random_queries
from tests.storage.parent_images import (
    COMPRESSED_SNAPSHOT,
    HINT_MERGE_SNAPSHOT,
    I64_MAX,
    IRHINT_PERF_FROZEN_M_SNAPSHOT,
    IRHINT_PERF_TIF_SNAPSHOT,
    IRHINT_PERF_TIF_STATS,
    IRHINT_SIZE_FROZEN_M_SNAPSHOT,
    IRHINT_SIZE_SNAPSHOT,
    LIST_SNAPSHOT,
    MIGRATION_DELETED,
    TABLE_COMPRESSED_SNAPSHOT,
    V1_SEGMENT,
    V1_SHARD,
    V2_SEGMENT,
    V2_SHARD,
    fixture_cluster,
    fixture_objects,
    migration_objects,
    snapshot_objects,
)

#: version → (image, shard it is an image of, objects in it).
IMAGES = {1: (V1_SEGMENT, V1_SHARD, 140), 2: (V2_SEGMENT, V2_SHARD, 144)}


def _magic(version):
    return b"RSEG\x00" + bytes([version])


@pytest.fixture(params=sorted(IMAGES), ids=lambda version: f"v{version}")
def old_segment(request, tmp_path):
    """``(version, path)`` of an old image written out under its shard's name."""
    image, shard, _n = IMAGES[request.param]
    path = tmp_path / f"{shard}.seg"
    path.write_bytes(image)
    return request.param, path


def _queries(objects):
    """Term queries, pure-temporal ones, and windows with i64-extreme,
    fractional and beyond-i64 float bounds — the last window starts one past
    ``I64_MAX``, where float64 and int64 part ways (``"hot"`` spans two
    blocks, so block skipping is in play)."""
    collection = Collection(objects)
    queries = random_queries(collection, 80, seed=19)
    queries += [
        make_query(st, end, d)
        for d in ({"hot"}, {"edge"}, {"hot", "edge"}, {"hot", "r0"}, {"absent"}, set())
        for st, end in [(-100, 0), (0, 13_000), (5_000, 5_040), (1 << 62, I64_MAX),
                        (-7.5, -6.5), (4_999.5, 1e30), (-1e30, 120.0), (2.0**63, 1e19)]
    ]
    return queries


class TestOldFormats:
    def test_image_is_old_and_writer_emits_v3(self, old_segment, tmp_path):
        version, path = old_segment
        assert path.read_bytes().endswith(_magic(version)) and MAGIC == _magic(3)
        with SegmentReader(path) as reader:
            assert reader.directory.version == version
            objects = reader.objects()
        v3 = write_segment(
            tmp_path / "v3.seg", objects,
            shard_id=reader.shard_id, index_key="tif", index_params={},
        )
        assert v3.read_bytes().endswith(MAGIC)
        with SegmentReader(v3) as reader:
            assert reader.directory.version == 3

    def test_answers_match_a_v3_segment(self, old_segment, tmp_path):
        version, path = old_segment
        with SegmentReader(path) as old:
            objects = old.objects()
            assert len(objects) == IMAGES[version][2]
            v3 = write_segment(
                tmp_path / "v3.seg", objects,
                shard_id=old.shard_id, index_key="tif", index_params={},
            )
            oracle = build_index("brute", Collection(objects))
            with SegmentReader(v3) as new:
                assert new.objects() == objects
                assert old.object_ids() == new.object_ids()
                assert old.directory.span == new.directory.span
                assert sorted(old.directory.terms, key=repr) == sorted(new.directory.terms, key=repr)
                assert len(old.directory.terms) == len(new.directory.terms)
                for element in old.directory.terms:
                    assert old.term_count(element) == new.term_count(element)
                    assert list(old.postings(element).entries()) == list(
                        new.postings(element).entries()
                    )
                assert old.directory.terms.get("hot")[1] == new.directory.terms.get("hot")[1] == 2
                assert old.postings("absent") is new.postings("absent") is None
                for q in _queries(objects):
                    assert old.query(q).tolist() == new.query(q).tolist() == sorted(oracle.query(q))

    def test_damaged_segments_raise_typed(self, old_segment):
        _version, path = old_segment
        with SegmentReader(path) as reader:
            assert reader.directory.terms.get("hot")[1] == 2
            first_block = min(reader.directory.terms.get(e)[0] for e in reader.directory.terms)
            assert first_block == 0
        # Footer magic, then a directory byte (just before the footer).
        for offset in (-1, -(FOOTER_SIZE + 3)):
            flip_bit(path, offset)
            with pytest.raises(CorruptSegmentError):
                SegmentReader(path)
            flip_bit(path, offset)  # restore
        # Old blocks sit at the head of the body; byte 40 is inside one.
        flip_bit(path, 40)
        with SegmentReader(path) as reader:
            with pytest.raises(CorruptPostingsError):
                for element in reader.directory.terms:
                    reader.postings(element).ids()


class TestMixedFormatCluster:
    def test_cluster_serves_and_promotes_v1_beside_v2_and_v3(self, tmp_path):
        objects = fixture_objects()
        oracle = build_index("brute", Collection(objects))
        queries = _queries(objects)
        expected = [sorted(oracle.query(q)) for q in queries]
        with fixture_cluster(tmp_path / "cluster") as cluster:
            directory = cluster.directory
            paths = {shard: cluster.demote(shard) for shard in (V1_SHARD, V2_SHARD)}
            v3_path = cluster.demote("g0001-s02")
            now = {}
            for shard, path in paths.items():
                with SegmentReader(path) as reader:
                    now[shard] = reader.objects()
        # The shards as this build demotes them hold what the images hold:
        # swapping the files in changes the format and nothing else.
        for version, (image, shard, _n) in IMAGES.items():
            paths[shard].write_bytes(image)
            with SegmentReader(paths[shard]) as reader:
                assert reader.directory.version == version
                assert reader.objects() == now[shard]
        assert v3_path.read_bytes().endswith(MAGIC)

        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            assert cluster.tier_state.cold == {
                V1_SHARD: paths[V1_SHARD].name,
                V2_SHARD: paths[V2_SHARD].name,
                "g0001-s02": v3_path.name,
            }
            assert [cluster.query(q).tolist() for q in queries] == expected
            # The upgrade recipe: promote reads any format, demote writes v3.
            for shard in (V1_SHARD, V2_SHARD):
                cluster.promote(shard)
                assert not paths[shard].exists()
                assert [cluster.query(q).tolist() for q in queries] == expected
                assert cluster.demote(shard).read_bytes().endswith(MAGIC)
                assert [cluster.query(q).tolist() for q in queries] == expected


def _pickled_classes(blob):
    """Every ``(module, name)`` a snapshot's payload names."""
    seen = set()

    class Recorder(pickle.Unpickler):
        def find_class(self, module, name):
            seen.add((module, name))
            return super().find_class(module, name)

    _header, offset = _parse_header(blob, "snapshot")
    Recorder(io.BytesIO(blob[offset:])).load()
    return seen


def _names_no_retired_layout(blob):
    classes = _pickled_classes(blob)
    assert ("repro.ir.packed", "PackedPostingsList") in classes
    assert not {module for module, _name in classes} & {"repro.ir.postings", "repro.ir.compressed"}


class TestCompressedSnapshots:
    def test_parent_snapshot_fails_typed_at_load(self):
        # Recovery treats CorruptSnapshotError as "try an older generation,
        # else replay the WAL / rebuild" (tests/service): what must never
        # happen is a load that succeeds and a CorruptPostingsError, or
        # anything untyped, at query time.
        with pytest.raises(CorruptSnapshotError, match="_summaries"):
            loads_index(COMPRESSED_SNAPSHOT)

    def test_snapshot_of_this_build_round_trips(self):
        collection = Collection(snapshot_objects())
        index = build_index("tif", collection)
        blob = dumps_index(index)
        _names_no_retired_layout(blob)
        restored = loads_index(blob)
        for q in random_queries(collection, 40, seed=23):
            assert restored.query(q).tolist() == index.query(q).tolist()


#: Snapshots of an index built on another postings layout than packed.
OLD_LAYOUTS = {"list": LIST_SNAPSHOT, "compressed": TABLE_COMPRESSED_SNAPSHOT}


@pytest.fixture(params=sorted(OLD_LAYOUTS))
def old_layout_snapshot(request):
    return OLD_LAYOUTS[request.param]


def _live_objects():
    return [o for o in migration_objects() if o.id not in MIGRATION_DELETED]


class TestOldLayoutSnapshots:
    """A store written on the ``list`` or ``compressed`` layout restores
    with packed lists, and its next checkpoint writes packed for good."""

    def test_every_list_loads_as_packed(self, old_layout_snapshot):
        inverted = loads_index(old_layout_snapshot).inverted_file
        deleted = [o for o in migration_objects() if o.id in MIGRATION_DELETED]
        assert len(inverted.elements()) == 8
        for element in inverted.elements():
            postings = inverted.postings(element)
            assert type(postings) is PackedPostingsList
            tombstones = sum(element in o.d for o in deleted)
            assert postings.physical_len() - len(postings) == tombstones, element
        hot = inverted.postings("hot")
        assert (len(hot), hot.physical_len()) == (195, 201)
        assert hot.layout_epoch == 0  # the float interval spilled it

    def test_answers_match_brute_force(self, old_layout_snapshot):
        index = loads_index(old_layout_snapshot)
        live = _live_objects()
        brute = build_index("brute", Collection(live))
        for q in _queries(live):
            assert index.query(q).tolist() == brute.query(q).tolist(), q

    def test_store_recovers_writes_and_checkpoints_packed(self, old_layout_snapshot, tmp_path):
        write_manifest(tmp_path, "tif", None)
        snapshot_path(tmp_path, 1).write_bytes(old_layout_snapshot)
        with DurableIndexStore.open(tmp_path, index_key="tif", wal_fsync=False) as store:
            report = store.last_recovery
            assert report.snapshot_path == snapshot_path(tmp_path, 1) and not report.degraded
            added = make_object(900, 15, 30, {"hot", "fresh"})
            store.insert(added)
            store.delete(7)
            checkpoint = store.checkpoint()
        _names_no_retired_layout(checkpoint.read_bytes())
        live = [o for o in _live_objects() if o.id != 7] + [added]
        brute = build_index("brute", Collection(live))
        with DurableIndexStore.open(tmp_path, index_key="tif", wal_fsync=False) as store:
            assert store.last_recovery.snapshot_path == checkpoint
            for q in _queries(live):
                assert store.query(q).tolist() == brute.query(q).tolist(), q


#: Snapshots of the two HINT-based indexes on the retired per-division
#: classes, with the index key each restores as.
OLD_HINT_LAYOUTS = {"tif-hint-merge": HINT_MERGE_SNAPSHOT, "irhint-size": IRHINT_SIZE_SNAPSHOT}
RETIRED_HINT = {"repro.intervals.hint.partition", ("repro.ir.postings", "IdPostingsList")}


def _names_no_retired_hint(blob):
    classes = _pickled_classes(blob)
    assert ("repro.intervals.hint.index", "Hint") in classes
    assert not ({module for module, _name in classes} | classes) & RETIRED_HINT, classes


@pytest.fixture(params=sorted(OLD_HINT_LAYOUTS))
def old_hint_key(request):
    return request.param


class TestOldHintSnapshots:
    """A store written when each HINT division was its own ``Partition``
    restores rebuilt from its catalog, and checkpoints the one layout."""

    def test_answers_match_brute_force(self, old_hint_key):
        index = loads_index(OLD_HINT_LAYOUTS[old_hint_key])
        assert type(index) is type(build_index(old_hint_key, Collection([])))
        live = _live_objects()
        assert sorted(o.id for o in index.objects()) == sorted(o.id for o in live)
        brute = build_index("brute", Collection(live))
        for q in _queries(live):
            assert index.query(q).tolist() == brute.query(q).tolist(), q
        _names_no_retired_hint(dumps_index(index))

    def test_store_recovers_writes_and_reopens(self, old_hint_key, tmp_path):
        write_manifest(tmp_path, old_hint_key, None)
        snapshot_path(tmp_path, 1).write_bytes(OLD_HINT_LAYOUTS[old_hint_key])
        with DurableIndexStore.open(tmp_path, index_key=old_hint_key, wal_fsync=False) as store:
            report = store.last_recovery
            assert report.snapshot_path == snapshot_path(tmp_path, 1) and not report.degraded
            added = make_object(900, 15, 30, {"hot", "fresh"})
            store.insert(added)
            store.delete(7)
            checkpoint = store.checkpoint()
        _names_no_retired_hint(checkpoint.read_bytes())
        live = [o for o in _live_objects() if o.id != 7] + [added]
        brute = build_index("brute", Collection(live))
        with DurableIndexStore.open(tmp_path, index_key=old_hint_key, wal_fsync=False) as store:
            assert store.last_recovery.snapshot_path == checkpoint
            for q in _queries(live):
                assert store.query(q).tolist() == brute.query(q).tolist(), q


#: irHINT snapshots that froze one ``m`` per index, and the cap each loads with.
FROZEN_M = {
    "irhint-perf": (IRHINT_PERF_FROZEN_M_SNAPSHOT, 2),
    "irhint-size": (IRHINT_SIZE_FROZEN_M_SNAPSHOT, 16),
}


@pytest.fixture(params=sorted(FROZEN_M))
def frozen_m_key(request):
    return request.param


@pytest.fixture(params=["shipped", "small-tables"])
def charges(request):
    """The shipped charges (these runs read flat) and the ``small_tables``
    ones (they read through tables)."""
    if request.param == "small-tables":
        request.getfixturevalue("small_tables")
    return request.param


class TestFrozenMSnapshots:
    """An irHINT snapshot whose build froze one ``m`` for the index loads,
    answers like ``tif``, and recovers through a store.  irHINT-perf kept
    the frozen ``m`` where a requested one would be, so it stays the cap;
    irHINT-size kept the request aside (unset), so its cap is the
    default."""

    def test_answers_match_tif(self, frozen_m_key, charges):
        blob, cap = FROZEN_M[frozen_m_key]
        index = loads_index(blob)
        assert type(index) is type(build_index(frozen_m_key, Collection([])))
        assert index.num_bits == cap
        live = _live_objects()
        tif = build_index("tif", Collection(live))
        for q in _queries(live):
            assert index.query(q).tolist() == tif.query(q).tolist(), q

    def test_store_recovers_writes_and_reopens(self, frozen_m_key, tmp_path):
        blob, cap = FROZEN_M[frozen_m_key]
        write_manifest(tmp_path, frozen_m_key, None)
        snapshot_path(tmp_path, 1).write_bytes(blob)
        with DurableIndexStore.open(tmp_path, index_key=frozen_m_key, wal_fsync=False) as store:
            report = store.last_recovery
            assert report.snapshot_path == snapshot_path(tmp_path, 1) and not report.degraded
            added = make_object(900, 15, 30, {"hot", "fresh"})
            store.insert(added)
            store.delete(7)
            checkpoint = store.checkpoint()
        live = [o for o in _live_objects() if o.id != 7] + [added]
        tif = build_index("tif", Collection(live))
        with DurableIndexStore.open(tmp_path, index_key=frozen_m_key, wal_fsync=False) as store:
            assert store.last_recovery.snapshot_path == checkpoint
            assert store.index.num_bits == cap
            for q in _queries(live):
                assert store.query(q).tolist() == tif.query(q).tolist(), q


class TestTifLayoutIrHintPerf:
    """An irHINT-perf stored as a tIF (``_tif``) beside its own verdicts
    loads rebuilt onto one ``Hint`` per element, answers like ``tif``,
    reports what the build that wrote it reported, and saves in the
    skeleton's layout."""

    def test_loads_answers_and_reports_like_the_parent(self, charges):
        index = loads_index(IRHINT_PERF_TIF_SNAPSHOT)
        assert type(index) is type(build_index("irhint-perf", Collection([])))
        assert "_tif" not in vars(index) and index.hint_for("hot") is not None
        live = migration_objects()
        tif = build_index("tif", Collection(live))
        for q in _queries(live):
            assert index.query(q).tolist() == tif.query(q).tolist(), q
        assert index.stats() == IRHINT_PERF_TIF_STATS[charges]
        assert index.size_bytes() == IRHINT_PERF_TIF_STATS[charges]["size_bytes"]

    def test_resaves_in_the_skeleton_layout(self):
        blob = dumps_index(loads_index(IRHINT_PERF_TIF_SNAPSHOT))
        classes = _pickled_classes(blob)
        assert ("repro.intervals.hint.index", "Hint") in classes
        assert ("repro.ir.inverted", "TemporalInvertedFile") not in classes
        again = loads_index(blob)
        assert "_hints" in vars(again)
        assert again.stats() == IRHINT_PERF_TIF_STATS["shipped"]
