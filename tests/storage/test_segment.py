"""The immutable segment format: fidelity, zero-decode reads, corruption.

The reader must answer every query bit-identically to a live index over
the same objects *without* ever unpickling the descriptions blob, and
every torn or bit-flipped byte must surface as a typed error — never a
wrong answer.
"""

import os
import random

import pytest

from repro.core.collection import Collection
from repro.core.errors import (
    ClusterError,
    ConfigurationError,
    CorruptPostingsError,
    CorruptSegmentError,
    ReadOnlySegmentError,
)
from repro.core.model import TemporalObject, make_object, make_query
from repro.indexes.registry import build_index
from repro.ir import backends
from repro.obs.registry import isolated_registry
from repro.service.faults import flip_bit, truncate_tail
from repro.storage.format import (
    FOOTER_STRUCT,
    MAGIC,
    build_footer,
    pack_directory,
    read_directory,
)
from repro.storage.reader import SegmentReader
from repro.storage.writer import build_segment, write_segment

from tests.conftest import random_objects, random_queries

INDEX_KEY = "tif"
I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


@pytest.fixture()
def objects():
    return random_objects(400, seed=31)


@pytest.fixture()
def segment(objects, tmp_path):
    return write_segment(
        tmp_path / "g0001-s00.seg",
        objects,
        shard_id="g0001-s00",
        index_key=INDEX_KEY,
        index_params={},
    )


class TestRoundTrip:
    def test_identity_and_catalog(self, objects, segment):
        with SegmentReader(segment) as reader:
            assert reader.shard_id == "g0001-s00"
            assert reader.directory.index_key == INDEX_KEY
            assert len(reader) == len(objects)
            assert reader.object_ids() == sorted(obj.id for obj in objects)
            present = {obj.id for obj in objects}
            for oid in list(present)[:20]:
                assert oid in reader
            assert max(present) + 1 not in reader

    def test_queries_match_live_index(self, objects, segment):
        collection = Collection(objects)
        oracle = build_index(INDEX_KEY, collection)
        queries = random_queries(collection, 100, seed=32)
        with SegmentReader(segment) as reader:
            for q in queries:
                assert reader.query(q) == sorted(oracle.query(q))
            # The query path must never touch the pickled descriptions.
            assert reader.descriptions_decoded is False

    def test_pure_temporal_queries(self, objects, segment):
        collection = Collection(objects)
        with SegmentReader(segment) as reader:
            domain = collection.domain()
            for st, end in [
                (domain.st, domain.end),
                (domain.st - 10, domain.st - 1),
                (domain.end // 2, domain.end // 2),
            ]:
                q = make_query(st, end, set())
                assert reader.query(q) == collection.evaluate(q)
            assert reader.descriptions_decoded is False

    def test_objects_round_trip_for_promotion(self, objects, segment):
        with SegmentReader(segment) as reader:
            recovered = reader.objects()
            assert reader.descriptions_decoded is True
        assert recovered == sorted(objects, key=lambda obj: obj.id)

    def test_span_matches_corpus(self, objects, segment):
        with SegmentReader(segment) as reader:
            assert reader.directory.span == (
                min(obj.st for obj in objects),
                max(obj.end for obj in objects),
            )

    def test_empty_shard_segment(self, tmp_path):
        path = write_segment(
            tmp_path / "empty.seg",
            [],
            shard_id="g0001-s01",
            index_key=INDEX_KEY,
            index_params={},
        )
        with SegmentReader(path) as reader:
            assert len(reader) == 0
            assert reader.object_ids() == []
            assert reader.directory.span is None
            assert reader.query(make_query(0, 10, {"e0"})) == []
            assert reader.query(make_query(0, 10, set())) == []

    def test_build_is_deterministic(self, objects):
        first = build_segment(
            objects, shard_id="s", index_key=INDEX_KEY, index_params={}
        )
        second = build_segment(
            list(reversed(objects)), shard_id="s", index_key=INDEX_KEY, index_params={}
        )
        assert first == second

    def test_non_integer_timestamps_refuse_to_demote(self, tmp_path):
        bad = [TemporalObject(id=1, st=0.5, end=2.5, d=frozenset({"a"}))]
        with pytest.raises(ClusterError, match="i64"):
            build_segment(bad, shard_id="s", index_key=INDEX_KEY, index_params={})

    def test_ids_beyond_i64_refuse_to_demote(self):
        # The id column is i64 like the timestamp ones: the refusal must be
        # the documented ClusterError, not struct's or numpy's own error.
        for bad_id in (1 << 63, 1 << 80):
            bad = [
                make_object(1, 0, 5, {"a"}),
                TemporalObject(id=bad_id, st=0, end=5, d=frozenset({"a"})),
            ]
            with pytest.raises(ClusterError, match="id .* is not an i64"):
                build_segment(bad, shard_id="s", index_key=INDEX_KEY, index_params={})

    def test_written_segments_carry_the_v2_magic(self, segment):
        assert segment.read_bytes().endswith(MAGIC)
        assert MAGIC == b"RSEG\x00\x02"
        with SegmentReader(segment) as reader:
            assert reader.directory.version == 2


class TestPureTemporalScan:
    """The catalog-column scan (queries with no elements) vs BruteForce."""

    EXTREMES = [
        make_object(1, I64_MIN, I64_MIN, {"a"}),
        make_object(2, I64_MIN, I64_MAX, {"a"}),
        make_object(3, I64_MAX, I64_MAX, {"b"}),
        make_object(4, (1 << 53) + 1, (1 << 53) + 1, {"b"}),
        make_object(5, (1 << 53) + 2, (1 << 53) + 3, {"a", "b"}),
        make_object(6, -1, 0, {"a"}),
        make_object(7, 0, 0, {"c"}),
    ]
    WINDOWS = [
        (I64_MIN, I64_MIN), (I64_MIN, I64_MAX), (I64_MAX, I64_MAX), (-1, 0), (1, 5),
        (I64_MIN - 10, I64_MIN - 1), (I64_MAX + 1, I64_MAX + 10), (-(1 << 70), 1 << 70),
        # Float bounds: fractional, rounding onto a neighbour past 2**53,
        # and past the i64 range on either side.
        (-0.5, 0.5), (0.25, 0.75), (float((1 << 53) + 1), float((1 << 53) + 1)),
        (float(1 << 53), (1 << 53) + 1), ((1 << 53) + 2, float((1 << 53) + 3)),
        (-1e30, -1e25), (-1e30, float(I64_MIN)), (float(I64_MAX), 1e30), (-1e30, 1e30),
    ]

    def test_extreme_intervals_and_bounds(self, tmp_path):
        path = write_segment(
            tmp_path / "x.seg", self.EXTREMES,
            shard_id="s", index_key=INDEX_KEY, index_params={},
        )
        oracle = build_index("brute", Collection(self.EXTREMES))
        with SegmentReader(path) as reader:
            for st, end in self.WINDOWS:
                q = make_query(st, end, set())
                assert reader.query(q) == sorted(oracle.query(q)), (st, end)
            assert reader.descriptions_decoded is False

    def test_random_windows(self, objects, segment):
        collection = Collection(objects)
        oracle = build_index("brute", collection)
        domain = collection.domain()
        with SegmentReader(segment) as reader:
            rng = random.Random(33)
            for _ in range(200):
                st = rng.randint(domain.st - 50, domain.end + 50)
                end = st + rng.choice([0, 1, 10, 500, domain.end])
                q = make_query(st, end, set())
                assert reader.query(q) == sorted(oracle.query(q))


class TestZeroDecodeObservability:
    def test_block_skips_are_counted(self, tmp_path):
        # One popular element spread over many blocks, queried with a
        # narrow id-range partner so most blocks are skippable.
        objects = [
            make_object(i, (i % 50) * 10, (i % 50) * 10 + 5, {"hot", f"rare{i}"})
            for i in range(600)
        ]
        path = write_segment(
            tmp_path / "skip.seg",
            objects,
            shard_id="s",
            index_key=INDEX_KEY,
            index_params={},
        )
        with isolated_registry() as registry:
            with SegmentReader(path) as reader:
                q = make_query(30, 35, {"hot", "rare3"})
                assert reader.query(q) == [3]
                assert reader.descriptions_decoded is False
            skipped = registry.sample_value("repro_storage_blocks_skipped_total")
            decoded = registry.sample_value("repro_storage_blocks_decoded_total")
            queries = registry.sample_value("repro_storage_cold_queries_total")
        assert queries == 1
        assert decoded >= 1
        # 600 postings for "hot" = 5 blocks; the intersect must skip most.
        assert skipped >= 3

    def test_segments_open_gauge(self, segment):
        with isolated_registry() as registry:
            with SegmentReader(segment):
                assert registry.sample_value("repro_storage_segments_open") == 1
            assert registry.sample_value("repro_storage_segments_open") == 0

    def test_writer_metrics(self, objects, tmp_path):
        with isolated_registry() as registry:
            write_segment(
                tmp_path / "m.seg",
                objects,
                shard_id="s",
                index_key=INDEX_KEY,
                index_params={},
            )
            written = registry.sample_value("repro_storage_segments_written_total")
            nbytes = registry.sample_value("repro_storage_segment_bytes_written_total")
        assert written == 1
        assert nbytes == os.path.getsize(tmp_path / "m.seg")


class TestReadOnlyDiscipline:
    def test_cold_postings_refuse_mutation(self, objects, segment):
        element = next(iter(sorted(objects, key=lambda o: o.id)[0].d))
        with SegmentReader(segment) as reader:
            postings = reader.postings(element)
            assert postings is not None
            with pytest.raises(ReadOnlySegmentError):
                postings.add(10**6, 0, 1)
            with pytest.raises(ReadOnlySegmentError):
                postings.delete(10**6)

    def test_cold_backend_not_constructible_by_factory(self):
        assert "cold" in backends.READONLY_POSTINGS_BACKENDS
        assert "cold" not in backends.POSTINGS_BACKENDS
        with pytest.raises(ConfigurationError, match="read-only"):
            backends.make_postings("cold")

    def test_missing_element_has_no_postings(self, segment):
        with SegmentReader(segment) as reader:
            assert reader.postings("no-such-element") is None
            assert reader.term_count("no-such-element") == 0


class TestCorruption:
    """Every damaged byte must raise a typed error, never mis-answer."""

    def test_truncated_footer(self, segment):
        truncate_tail(segment, 4)
        with pytest.raises(CorruptSegmentError):
            SegmentReader(segment)

    def test_truncated_to_nothing(self, segment):
        truncate_tail(segment, os.path.getsize(segment))
        with pytest.raises(CorruptSegmentError):
            SegmentReader(segment)

    def test_flipped_magic(self, segment):
        flip_bit(segment, -1)  # last byte of the footer magic
        with pytest.raises(CorruptSegmentError):
            SegmentReader(segment)

    def test_flipped_directory_byte(self, segment):
        # The directory sits immediately before the footer.
        flip_bit(segment, -(FOOTER_STRUCT.size + 3))
        with pytest.raises(CorruptSegmentError):
            SegmentReader(segment)

    def test_flipped_postings_block(self, objects, segment):
        # Locate a real block through an intact reader, then damage it.
        element = next(iter(sorted(objects, key=lambda o: o.id)[0].d))
        directory, table = read_directory(memoryview(segment.read_bytes()), str(segment))
        offset, length = table[:2, directory.terms[element][0]].tolist()
        flip_bit(segment, offset + length // 2)
        with SegmentReader(segment) as reader:
            postings = reader.postings(element)
            with pytest.raises(CorruptPostingsError):
                postings.ids()

    def test_flipped_block_table(self, segment):
        # A damaged summary must never become a mis-skip, nor a damaged
        # block CRC a refused sound block: the table has a checksum of its
        # own, checked at open.  One flip per column, and both ends.
        directory, table = read_directory(memoryview(segment.read_bytes()), str(segment))
        offset, n_blocks, _crc = directory.block_table
        assert table.shape == (8, n_blocks) and n_blocks > 8
        columns = ["offset", "length", "crc32", "min_id", "max_id", "min_st", "max_end", "count"]
        for column in range(len(columns)):
            at = offset + 8 * (column * n_blocks + n_blocks // 2)
            flip_bit(segment, at)
            with pytest.raises(CorruptSegmentError, match="block table"):
                SegmentReader(segment)
            flip_bit(segment, at)  # restore
        for at in (offset, offset + 64 * n_blocks - 1):
            flip_bit(segment, at, bit=7)
            with pytest.raises(CorruptSegmentError, match="block table"):
                SegmentReader(segment)
            flip_bit(segment, at, bit=7)
        SegmentReader(segment).close()  # restored: sound again

    def test_block_table_bounds_are_checked(self, objects, tmp_path):
        # A directory whose table region runs into the directory itself
        # (a consistent CRC cannot save it) is refused, not sliced.
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        directory, _table = read_directory(memoryview(image), "image")
        dir_offset = FOOTER_STRUCT.unpack(image[-FOOTER_STRUCT.size :])[0]
        directory.block_table = (directory.block_table[0], 1 << 40, directory.block_table[2])
        blob = pack_directory(directory)
        path = tmp_path / "bounds.seg"
        path.write_bytes(image[:dir_offset] + blob + build_footer(dir_offset, blob))
        with pytest.raises(CorruptSegmentError, match="runs past the body"):
            SegmentReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptSegmentError):
            SegmentReader(tmp_path / "absent.seg")

    def test_corrupt_descriptions_blob(self, segment):
        with SegmentReader(segment) as reader:
            offset, _length, _crc = reader.directory.descriptions
        flip_bit(segment, offset + 1)
        with SegmentReader(segment) as reader:
            # Queries never touch the blob, so they still work…
            assert reader.query(make_query(0, 10**6, set())) == reader.object_ids()
            # …but promotion detects the damage instead of resurrecting junk.
            with pytest.raises(CorruptSegmentError):
                reader.objects()
