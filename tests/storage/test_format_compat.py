"""Format compatibility: v1 segments stay readable, writers emit only v2.

A v1 segment is the only copy of its demoted shard's data, so this build
must open it, answer from it bit-identically to a v2 segment of the same
objects, promote it, and refuse a damaged one with a typed error.  The
v1 image is a literal written by the last commit that could write one
(``parent_images``); so is the ``compressed``-backend index snapshot,
whose fate — loading fails typed, recovery falls back — is pinned here
too.
"""

import pytest

from repro.cluster import TemporalCluster
from repro.core.collection import Collection
from repro.core.errors import (
    CorruptPostingsError,
    CorruptSegmentError,
    CorruptSnapshotError,
)
from repro.core.model import make_query
from repro.indexes.persistence import dumps_index, loads_index
from repro.indexes.registry import build_index
from repro.service.faults import flip_bit
from repro.storage.format import FOOTER_SIZE, MAGIC
from repro.storage.reader import SegmentReader
from repro.storage.writer import write_segment

from tests.conftest import random_queries
from tests.storage.parent_images import (
    COMPRESSED_SNAPSHOT,
    I64_MAX,
    V1_SEGMENT,
    V1_SHARD,
    fixture_cluster,
    fixture_objects,
    snapshot_objects,
)

V1_MAGIC = b"RSEG\x00\x01"


@pytest.fixture()
def v1_segment(tmp_path):
    path = tmp_path / f"{V1_SHARD}.seg"
    path.write_bytes(V1_SEGMENT)
    return path


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


class TestV1SegmentStaysReadable:
    def test_image_is_v1_and_writer_emits_v2(self, v1_segment, tmp_path):
        assert V1_SEGMENT.endswith(V1_MAGIC) and MAGIC != V1_MAGIC
        with SegmentReader(v1_segment) as reader:
            assert reader.directory.version == 1
            objects = reader.objects()
        v2 = write_segment(
            tmp_path / "v2.seg", objects,
            shard_id=V1_SHARD, index_key="tif", index_params={},
        )
        assert v2.read_bytes().endswith(MAGIC)
        with SegmentReader(v2) as reader:
            assert reader.directory.version == 2

    def test_answers_match_a_v2_segment_of_the_same_objects(self, v1_segment, tmp_path):
        with SegmentReader(v1_segment) as old:
            objects = old.objects()
            assert len(objects) == 140
            v2 = write_segment(
                tmp_path / "v2.seg", objects,
                shard_id=V1_SHARD, index_key="tif", index_params={},
            )
            oracle = build_index("brute", Collection(objects))
            with SegmentReader(v2) as new:
                assert new.objects() == objects
                assert old.object_ids() == new.object_ids()
                assert old.directory.span == new.directory.span
                assert sorted(old.directory.terms, key=repr) == sorted(new.directory.terms, key=repr)
                for element in old.directory.terms:
                    assert old.term_count(element) == new.term_count(element)
                    assert list(old.postings(element).entries()) == list(
                        new.postings(element).entries()
                    )
                assert old.directory.terms["hot"][1] == new.directory.terms["hot"][1] == 2
                for q in _queries(objects):
                    assert old.query(q) == new.query(q) == sorted(oracle.query(q))

    def test_damaged_v1_segments_raise_typed(self, v1_segment):
        with SegmentReader(v1_segment) as reader:
            assert reader.directory.terms["hot"][1] == 2
        # v1 blocks sit at the head of the body, "hot"'s among them.
        for offset, error in [(-1, CorruptSegmentError), (-(FOOTER_SIZE + 3), CorruptSegmentError)]:
            flip_bit(v1_segment, offset)
            with pytest.raises(error):
                SegmentReader(v1_segment)
            flip_bit(v1_segment, offset)  # restore
        flip_bit(v1_segment, 40)
        with SegmentReader(v1_segment) as reader:
            with pytest.raises(CorruptPostingsError):
                for element in reader.directory.terms:
                    reader.postings(element).ids()


class TestMixedFormatCluster:
    def test_cluster_serves_and_promotes_v1_beside_v2(self, tmp_path):
        objects = fixture_objects()
        oracle = build_index("brute", Collection(objects))
        queries = _queries(objects)
        expected = [sorted(oracle.query(q)) for q in queries]
        with fixture_cluster(tmp_path / "cluster") as cluster:
            directory = cluster.directory
            v1_path = cluster.demote(V1_SHARD)
            v2_path = cluster.demote("g0001-s01")
            with SegmentReader(v1_path) as reader:
                now = reader.objects()
        # The shard as this build demotes it holds what the image holds:
        # swapping the file in changes the format and nothing else.
        v1_path.write_bytes(V1_SEGMENT)
        with SegmentReader(v1_path) as reader:
            assert reader.objects() == now
        assert v1_path.read_bytes().endswith(V1_MAGIC)
        assert v2_path.read_bytes().endswith(MAGIC)

        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            assert cluster.tier_state.cold == {
                V1_SHARD: v1_path.name, "g0001-s01": v2_path.name,
            }
            assert [cluster.query(q) for q in queries] == expected
            # The upgrade recipe: promote reads v1, demote writes v2.
            cluster.promote(V1_SHARD)
            assert not v1_path.exists()
            assert [cluster.query(q) for q in queries] == expected
            assert cluster.demote(V1_SHARD).read_bytes().endswith(MAGIC)
            assert [cluster.query(q) for q in queries] == expected


class TestCompressedSnapshots:
    def test_parent_snapshot_fails_typed_at_load(self):
        # Recovery treats CorruptSnapshotError as "try an older generation,
        # else replay the WAL / rebuild" (tests/service): what must never
        # happen is a load that succeeds and a CorruptPostingsError, or
        # anything untyped, at query time.
        with pytest.raises(CorruptSnapshotError, match="_summaries"):
            loads_index(COMPRESSED_SNAPSHOT)

    def test_snapshot_of_this_build_round_trips(self, monkeypatch):
        monkeypatch.setenv("REPRO_POSTINGS_BACKEND", "compressed")
        collection = Collection(snapshot_objects())
        index = build_index("tif", collection)
        restored = loads_index(dumps_index(index))
        for q in random_queries(collection, 40, seed=23):
            assert restored.query(q) == index.query(q)
