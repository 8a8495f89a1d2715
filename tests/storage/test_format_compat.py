"""Format refusal: bytes of a format this build does not read are refused
with a typed error, before anything of them is unpickled.

Each image is a literal written by the last commit that could write its
format (``parent_images``): v1, v2 and v3 segments, and index snapshots of
format 2 whose pickled layouts (postings backends other than packed, the
per-division HINT classes, irHINT's frozen ``m`` and its tIF layout) no
build reads any more, one of format 3, whose catalog pickled as a dict
of objects, one of format 4, whose irHINT-perf pickled one ``Hint``
per element, and one of format 5, whose tIF+Slicing pickled each slice
as Python lists.  A segment is refused by its footer magic, a
snapshot by its header's format; damage and truncation of either give
only typed errors; a store refuses to recover from them, and a cluster
that holds an old segment reports that shard unavailable while the rest
answer.  Writers emit only the current formats.
"""

import re

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.errors import (
    CorruptSegmentError,
    CorruptSnapshotError,
    ShardUnavailableError,
    UnsupportedFormatError,
)
from repro.core.model import make_query
from repro.indexes.persistence import _parse_header, dumps_index, loads_index
from repro.indexes.registry import build_index
from repro.service.layout import snapshot_path, write_manifest
from repro.service.recovery import recover
from repro.service.store import DurableIndexStore
from repro.storage.format import FOOTER_SIZE, MAGIC, read_directory
from repro.storage.reader import SegmentReader
from repro.storage.writer import write_segment

from tests.conftest import random_queries
from tests.storage.parent_images import (
    COMPRESSED_SNAPSHOT,
    HINT_MERGE_SNAPSHOT,
    I64_MAX,
    MIGRATION_DELETED,
    IRHINT_PERF_FORMAT4_SNAPSHOT,
    IRHINT_PERF_FROZEN_M_SNAPSHOT,
    IRHINT_PERF_TIF_SNAPSHOT,
    IRHINT_SIZE_FROZEN_M_SNAPSHOT,
    IRHINT_SIZE_SNAPSHOT,
    LIST_SNAPSHOT,
    TABLE_COMPRESSED_SNAPSHOT,
    TIF_FORMAT3_SNAPSHOT,
    TIF_SLICING_FORMAT5_SNAPSHOT,
    V1_SEGMENT,
    V1_SHARD,
    V2_SEGMENT,
    V2_SHARD,
    V3_SEGMENT,
    V3_SHARD,
    fixture_cluster,
    fixture_objects,
    migration_objects,
    snapshot_objects,
)

#: version → (image, shard it is an image of).
IMAGES = {1: (V1_SEGMENT, V1_SHARD), 2: (V2_SEGMENT, V2_SHARD), 3: (V3_SEGMENT, V3_SHARD)}
#: The images the mixed-format cluster serves beside a current segment of
#: its third shard.
MIXED = {version: IMAGES[version] for version in (1, 2)}

#: Every parent snapshot image, with the index key each was written for.
SNAPSHOTS = {
    "compressed": (COMPRESSED_SNAPSHOT, "tif"),
    "list": (LIST_SNAPSHOT, "tif"),
    "table-compressed": (TABLE_COMPRESSED_SNAPSHOT, "tif"),
    "hint-merge": (HINT_MERGE_SNAPSHOT, "tif-hint-merge"),
    "irhint-size": (IRHINT_SIZE_SNAPSHOT, "irhint-size"),
    "irhint-perf-frozen-m": (IRHINT_PERF_FROZEN_M_SNAPSHOT, "irhint-perf"),
    "irhint-size-frozen-m": (IRHINT_SIZE_FROZEN_M_SNAPSHOT, "irhint-size"),
    "irhint-perf-tif": (IRHINT_PERF_TIF_SNAPSHOT, "irhint-perf"),
}

REFUSED_SNAPSHOT = "snapshot format 2 unsupported \\(this library reads 6\\)"


def _magic(version):
    return b"RSEG\x00" + bytes([version])


def _refused_segment(version):
    return f"segment format {version} unsupported \\(this build reads 4\\)"


@pytest.fixture(params=sorted(IMAGES), ids=lambda version: f"v{version}")
def old_segment(request, tmp_path):
    """``(version, path)`` of an old image written out under its shard's name."""
    image, shard = IMAGES[request.param]
    path = tmp_path / f"{shard}.seg"
    path.write_bytes(image)
    return request.param, path


@pytest.fixture(params=sorted(SNAPSHOTS))
def old_snapshot(request):
    return SNAPSHOTS[request.param]


def _queries(objects):
    """Term queries, pure-temporal ones, and windows with i64-extreme,
    fractional and beyond-i64 float bounds."""
    queries = random_queries(Collection(objects), 80, seed=19)
    queries += [
        make_query(st, end, d)
        for d in ({"hot"}, {"edge"}, {"hot", "edge"}, {"hot", "r0"}, {"absent"}, set())
        for st, end in [(-100, 0), (0, 13_000), (5_000, 5_040), (1 << 62, I64_MAX),
                        (-7.5, -6.5), (4_999.5, 1e30), (-1e30, 120.0), (2.0**63, 1e19)]
    ]
    return queries


class TestOldFormats:
    def test_image_is_old_and_writer_emits_current(self, old_segment, tmp_path):
        version, path = old_segment
        assert path.read_bytes().endswith(_magic(version)) and MAGIC == _magic(4)
        current = write_segment(
            tmp_path / "current.seg", fixture_objects(),
            shard_id=path.stem, index_key="tif", index_params={},
        )
        assert current.read_bytes().endswith(MAGIC)
        with SegmentReader(current) as reader:
            assert reader.shard_id == path.stem

    def test_refused_before_unpickling(self, old_segment, no_unpickling):
        version, path = old_segment
        named = f"{re.escape(str(path))}: {_refused_segment(version)}"
        with pytest.raises(CorruptSegmentError, match=named):
            SegmentReader(path)
        with pytest.raises(CorruptSegmentError, match=_refused_segment(version)):
            read_directory(memoryview(path.read_bytes()), str(path))

    def test_damaged_segments_raise_typed(self, old_segment, no_unpickling):
        # Every bit of the footer and of the directory bytes before it,
        # and bytes inside the old blocks at the head of the body.  No one
        # flip turns an old magic into v4's; flips that name another old
        # format are refused by that name, never read as a pickle.
        _version, path = old_segment
        image = bytearray(path.read_bytes())
        for offset in [*range(len(image) - FOOTER_SIZE - 8, len(image)), 0, 40, 41]:
            for bit in range(8):
                image[offset] ^= 1 << bit
                with pytest.raises(CorruptSegmentError):
                    read_directory(memoryview(bytes(image)), str(path))
                image[offset] ^= 1 << bit

    def test_every_truncation_raises_typed(self, old_segment, no_unpickling):
        _version, path = old_segment
        image = path.read_bytes()
        for cut in range(len(image)):
            with pytest.raises(CorruptSegmentError):
                read_directory(memoryview(image[:cut]), str(path))


class TestMixedFormatCluster:
    def test_old_shards_are_unavailable(self, tmp_path, request):
        with fixture_cluster(tmp_path / "cluster") as cluster:
            directory = cluster.directory
            paths = {shard: cluster.demote(shard) for shard in (V1_SHARD, V2_SHARD)}
            current_path = cluster.demote(V3_SHARD)
        # The current shard answers alone, with what it holds (long-lived
        # objects sit in every shard they reach).
        with SegmentReader(current_path) as reader:
            held = set(reader.object_ids())
        oracle = build_index("brute", Collection(o for o in fixture_objects() if o.id in held))
        current_bytes = {shard: path.read_bytes() for shard, path in paths.items()}
        # From here on nothing unpickles (building the cluster loaded its
        # own snapshots).
        request.getfixturevalue("no_unpickling")

        # Opening verifies every cold segment: an old one refuses the open.
        for image, shard in MIXED.values():
            paths[shard].write_bytes(image)
        with pytest.raises(CorruptSegmentError, match=_refused_segment(1)):
            TemporalCluster.open(directory, wal_fsync=False)

        # An old segment that replaces a served one takes only its shard out.
        for shard, blob in current_bytes.items():
            paths[shard].write_bytes(blob)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            for image, shard in MIXED.values():
                cluster.segment_cache.discard(paths[shard])
                paths[shard].write_bytes(image)
            old_seen = 0
            for q in _queries(fixture_objects()):
                plan = cluster.router.plan(q)
                old = [shard for shard in plan if shard in (V1_SHARD, V2_SHARD)]
                result = cluster.query_partial(q)
                assert [exc.shard_id for exc in result.unavailable] == old, q
                assert set(result.shard_errors) == set(old)
                for shard in old:
                    error = result.shard_errors[shard]
                    assert error["code"] == "shard_unavailable"
                    assert "unsupported (this build reads 4)" in error["message"]
                expected = oracle.query(q).tolist() if V3_SHARD in plan else []
                assert result.ids.tolist() == expected, q
                if old:
                    old_seen += 1
                    with pytest.raises(ShardUnavailableError):
                        cluster.query(q)
            assert old_seen


class TestCompressedSnapshots:
    def test_parent_snapshot_fails_typed_at_load(self, no_unpickling):
        # Its pickled lists were of a shape no build reads; its header,
        # format 2, refuses it first.
        assert _parse_header(COMPRESSED_SNAPSHOT, "old.idx")[0]["format"] == 2
        with pytest.raises(UnsupportedFormatError, match=REFUSED_SNAPSHOT):
            loads_index(COMPRESSED_SNAPSHOT)

    def test_snapshot_of_this_build_round_trips(self):
        collection = Collection(snapshot_objects())
        index = build_index("tif", collection)
        blob = dumps_index(index)
        assert _parse_header(blob, "new.idx")[0]["format"] == 6
        restored = loads_index(blob)
        for q in random_queries(collection, 40, seed=23):
            assert restored.query(q).tolist() == index.query(q).tolist()


class TestOldSnapshots:
    def test_load_is_refused(self, old_snapshot, no_unpickling):
        blob, _key = old_snapshot
        with pytest.raises(UnsupportedFormatError, match=REFUSED_SNAPSHOT):
            loads_index(blob, context="old.idx")

    def test_every_truncation_raises_typed(self, no_unpickling):
        for cut in range(len(LIST_SNAPSHOT)):
            with pytest.raises((CorruptSnapshotError, UnsupportedFormatError)):
                loads_index(LIST_SNAPSHOT[:cut])

    def test_store_refuses(self, old_snapshot, tmp_path, no_unpickling):
        # Refused, not skipped as damage: recovery would otherwise serve a
        # store without the snapshot's objects.  Nothing is written.
        blob, key = old_snapshot
        write_manifest(tmp_path, key, None)
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(blob)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        named = f"{re.escape(str(path))}: {REFUSED_SNAPSHOT}"
        with pytest.raises(UnsupportedFormatError, match=named):
            DurableIndexStore.open(tmp_path, index_key=key, wal_fsync=False)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFormat3Snapshot:
    """The catalog's dict of objects became sealed columns at format 4."""

    REFUSED = "snapshot format 3 unsupported \\(this library reads 6\\)"

    def test_load_is_refused(self, no_unpickling):
        assert _parse_header(TIF_FORMAT3_SNAPSHOT, "old.idx")[0]["format"] == 3
        with pytest.raises(UnsupportedFormatError, match=self.REFUSED):
            loads_index(TIF_FORMAT3_SNAPSHOT, context="old.idx")

    def test_recovery_raises_and_writes_nothing(self, tmp_path, no_unpickling):
        write_manifest(tmp_path, "tif", None)
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(TIF_FORMAT3_SNAPSHOT)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        named = f"{re.escape(str(path))}: {self.REFUSED}"
        with pytest.raises(UnsupportedFormatError, match=named):
            recover(tmp_path)
        with pytest.raises(UnsupportedFormatError, match=named):
            DurableIndexStore.open(tmp_path, wal_fsync=False)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestFormat4Snapshot:
    """Each element's ``Hint`` became one run set at format 5."""

    REFUSED = "snapshot format 4 unsupported \\(this library reads 6\\)"

    def test_load_is_refused(self, no_unpickling):
        assert _parse_header(IRHINT_PERF_FORMAT4_SNAPSHOT, "old.idx")[0]["format"] == 4
        with pytest.raises(UnsupportedFormatError, match=self.REFUSED):
            loads_index(IRHINT_PERF_FORMAT4_SNAPSHOT, context="old.idx")

    def test_store_refuses_and_writes_nothing(self, tmp_path, no_unpickling):
        write_manifest(tmp_path, "irhint-perf", None)
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(IRHINT_PERF_FORMAT4_SNAPSHOT)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        named = f"{re.escape(str(path))}: {self.REFUSED}"
        with pytest.raises(UnsupportedFormatError, match=named):
            DurableIndexStore.open(tmp_path, wal_fsync=False)
        with pytest.raises(UnsupportedFormatError, match=named):
            recover(tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_this_build_writes_the_same_index_as_format_6(self):
        objects = migration_objects()
        index = build_index("irhint-perf", Collection(objects))
        for object_id in MIGRATION_DELETED:
            index.delete(object_id)
        blob = dumps_index(index)
        assert _parse_header(blob, "new.idx")[0]["format"] == 6
        assert len(blob) < len(IRHINT_PERF_FORMAT4_SNAPSHOT)
        restored = loads_index(blob)
        assert restored.hint_for("hot")._run.layout_epoch == 0  # spilled by the float
        for q in _queries(objects):
            assert restored.query(q).tolist() == index.query(q).tolist(), q


class TestFormat5Snapshot:
    """Each slice of a slicing index's lists became a packed list, all of
    them one run set, at format 6."""

    REFUSED = "snapshot format 5 unsupported \\(this library reads 6\\)"

    def test_load_is_refused(self, no_unpickling):
        assert _parse_header(TIF_SLICING_FORMAT5_SNAPSHOT, "old.idx")[0]["format"] == 5
        with pytest.raises(UnsupportedFormatError, match=self.REFUSED):
            loads_index(TIF_SLICING_FORMAT5_SNAPSHOT, context="old.idx")

    def test_store_refuses_and_writes_nothing(self, tmp_path, no_unpickling):
        write_manifest(tmp_path, "tif-slicing", None)
        path = snapshot_path(tmp_path, 1)
        path.write_bytes(TIF_SLICING_FORMAT5_SNAPSHOT)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        named = f"{re.escape(str(path))}: {self.REFUSED}"
        with pytest.raises(UnsupportedFormatError, match=named):
            DurableIndexStore.open(tmp_path, wal_fsync=False)
        with pytest.raises(UnsupportedFormatError, match=named):
            recover(tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_this_build_writes_the_same_index_as_format_6(self):
        objects = migration_objects()
        index = build_index("tif-slicing", Collection(objects))
        for object_id in MIGRATION_DELETED:
            index.delete(object_id)
        blob = dumps_index(index)
        assert _parse_header(blob, "new.idx")[0]["format"] == 6
        restored = loads_index(blob)
        assert dumps_index(restored) == blob
        spilled = [run for run in restored._sliced.lists["hot"].values() if not run.layout_epoch]
        assert spilled  # the float interval's slices
        for q in _queries(objects):
            assert restored.query(q).tolist() == index.query(q).tolist(), q
