"""The immutable segment format: fidelity, in-place reads, corruption.

The reader must answer every query bit-identically to a live index over
the same objects without ever building an object, promotion must get the
objects back exactly, and every torn or bit-flipped byte must surface as
a typed error at open — never a wrong answer.
"""

import json
import os
import random
import zlib

import pytest

from repro.core.collection import Collection
from repro.core.errors import (
    ClusterError,
    ConfigurationError,
    CorruptSegmentError,
    InvalidObjectError,
    ReadOnlySegmentError,
)
from repro.core.model import TemporalObject, make_object, make_query
from repro.indexes.registry import build_index
from repro.ir.inverted import TemporalInvertedFile
from repro.obs.registry import isolated_registry
from repro.service.faults import flip_bit, truncate_tail
from repro.storage.format import (
    FOOTER_STRUCT,
    MAGIC,
    build_footer,
    decode_key,
    encode_key,
    pack_header,
    parse_footer,
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


def _header(image):
    dir_offset, dir_length, _crc = parse_footer(image, "image")
    return json.loads(image[dir_offset : dir_offset + dir_length])


def _rewrite_region(image, tmp_path, region, at, raw):
    """``image`` with ``raw`` written at ``at`` inside ``region`` and that
    region's CRC in the header recomputed: only the structural checks can
    refuse it."""
    body = bytearray(image)
    body[at : at + len(raw)] = raw
    offset, length, _crc = _header(image)[region]
    crc = zlib.crc32(bytes(body[offset : offset + length]))
    return _rewrite_header(bytes(body), tmp_path, lambda h: h[region].__setitem__(2, crc))


def _rewrite_header(image, tmp_path, edit):
    """``image`` with its header edited by ``edit`` and re-framed (footer
    CRC recomputed), so only the header's own checks can refuse it."""
    header = _header(image)
    edit(header)
    blob = pack_header(header)
    dir_offset = parse_footer(image, "image")[0]
    path = tmp_path / "hostile.seg"
    path.write_bytes(image[:dir_offset] + blob + build_footer(dir_offset, blob))
    return path


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
                assert reader.query(q).tolist() == sorted(oracle.query(q))
            # The query path must never build the objects.
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
                assert reader.query(q).tolist() == collection.evaluate(q)
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
            assert reader.query(make_query(0, 10, {"e0"})).tolist() == []
            assert reader.query(make_query(0, 10, set())).tolist() == []

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

    def test_ids_beyond_i64_refuse_to_demote(self, tmp_path):
        # The id column is i64, like every answer: an id beyond it is
        # refused by the object itself, typed, so no shard can ever hold
        # one its segment could not store.
        for bad_id in (1 << 63, 1 << 80):
            with pytest.raises(InvalidObjectError, match="id .* is not an i64"):
                TemporalObject(id=bad_id, st=0, end=5, d=frozenset({"a"}))
        # The largest id that is one round-trips through a segment.
        path = write_segment(
            tmp_path / "max.seg",
            [make_object(1, 0, 5, {"a"}), make_object(I64_MAX, 0, 5, {"a"})],
            shard_id="s", index_key=INDEX_KEY, index_params={},
        )
        with SegmentReader(path) as reader:
            assert reader.query(make_query(0, 5, {"a"})).tolist() == [1, I64_MAX]

    def test_written_segments_carry_the_current_magic(self, segment):
        assert segment.read_bytes().endswith(MAGIC)
        assert MAGIC == b"RSEG\x00\x04"
        assert _header(segment.read_bytes())["version"] == 4

    def test_unencodable_elements_refuse_to_demote(self):
        for element in (2.5, True, frozenset({"a"}), ("a", None)):
            bad = [make_object(1, 0, 5, {"a"}), make_object(2, 0, 5, {element})]
            with pytest.raises(ClusterError, match="element .* is not a str, int, bytes"):
                build_segment(bad, shard_id="s", index_key=INDEX_KEY, index_params={})


class TestTermKeys:
    """The term table's typed key encoding: every supported element type
    round-trips, and a segment finds each one — trailing NULs included,
    which numpy strips from ``S`` column values."""

    ELEMENTS = [
        "", "a", "a\x00", "\x00", "é\ud800", b"", b"a", b"a\x00\x00", b"\x00",
        0, 1, -1, 10, 1 << 80, -(1 << 70), (), ("a",), ("a", 1, b"\x00"),
        (("a", ()), (1, (b"",))), "as", ("a", "s"), ("as",), "1:as", ("1:as",),
    ]

    def test_keys_round_trip_and_stay_distinct(self):
        keys = [encode_key(element) for element in self.ELEMENTS]
        assert all(key[-1:] in (b"s", b"b", b"i", b"t") for key in keys)
        assert len(set(keys)) == len(keys)
        for element, key in zip(self.ELEMENTS, keys):
            decoded = decode_key(key)
            assert decoded == element and type(decoded) is type(element)

    def test_unencodable_types_have_no_key(self):
        for element in (True, False, 1.0, None, frozenset(), ("a", 2.5)):
            assert encode_key(element) is None

    def test_malformed_keys_raise_typed(self):
        for raw in (b"", b"a", b"xi", b"\xffs", b"1:at", b"-5:at", b"1:asxt", b"9:ast", b":ast"):
            with pytest.raises(CorruptSegmentError, match="does not decode"):
                decode_key(raw)

    def test_every_element_type_is_found(self, tmp_path):
        objects = [
            make_object(i, i, i + 3, {element, "common"})
            for i, element in enumerate(self.ELEMENTS)
        ]
        path = write_segment(
            tmp_path / "keys.seg", objects, shard_id="s", index_key=INDEX_KEY, index_params={}
        )
        oracle = build_index("brute", Collection(objects))
        with SegmentReader(path) as reader:
            assert len(reader.directory.terms) == len(self.ELEMENTS) + 1
            assert sorted(map(repr, reader.directory.terms)) == sorted(
                map(repr, self.ELEMENTS + ["common"])
            )
            for element in self.ELEMENTS + ["common", "a\x00\x00", b"a\x00", 2, ("a", 2)]:
                q = make_query(-10, 100, {element})
                assert reader.query(q).tolist() == sorted(oracle.query(q)), element
            for element in (1.5, None):
                assert reader.postings(element) is None


class TestNoUnpickling:
    def test_open_queries_and_promotion_never_unpickle(self, objects, segment, no_unpickling):
        # Opening, every element's postings, a pure-temporal query, a
        # membership probe and promotion all run with every unpickler
        # refusing: nothing in a segment is pickled.
        oracle = build_index("brute", Collection(objects))
        elements = sorted({e for obj in objects for e in obj.d}, key=repr)
        with SegmentReader(segment) as reader:
            assert sorted(reader.directory.terms, key=repr) == elements
            for element in elements:
                q = make_query(-(1 << 40), 1 << 40, {element})
                assert reader.query(q).tolist() == sorted(oracle.query(q))
            q = make_query(-(1 << 40), 1 << 40, set())
            assert reader.query(q).tolist() == sorted(oracle.query(q))
            assert all(obj.id in reader for obj in objects)
            assert max(obj.id for obj in objects) + 1 not in reader
            assert reader.descriptions_decoded is False
            assert reader.objects() == sorted(objects, key=lambda obj: obj.id)
            assert reader.descriptions_decoded is True


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
                assert reader.query(q).tolist() == sorted(oracle.query(q)), (st, end)
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
                assert reader.query(q).tolist() == sorted(oracle.query(q))


class TestZeroDecodeObservability:
    def test_block_skips_are_counted(self, tmp_path):
        # The block counters count term runs: one read per run a query
        # scans or cuts its candidates with, one skip per run whose first
        # and last rows bracket no candidate.
        objects = [
            make_object(
                i, (i % 50) * 10, (i % 50) * 10 + 5,
                {"hot", f"rare{i}"} | ({"late"} if i >= 500 else set()),
            )
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
                # rare3's run is read, then hot's cuts the one candidate.
                assert reader.query(make_query(30, 35, {"hot", "rare3"})).tolist() == [3]
                # late's rows are 500 and up: they bracket no candidate.
                assert reader.query(make_query(30, 35, {"late", "rare3"})).tolist() == []
                assert reader.descriptions_decoded is False
            skipped = registry.sample_value("repro_storage_blocks_skipped_total")
            decoded = registry.sample_value("repro_storage_blocks_decoded_total")
            queries = registry.sample_value("repro_storage_cold_queries_total")
        assert queries == 2
        assert decoded == 3
        assert skipped == 1

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
        # Only a SegmentReader mints cold lists; a tIF cannot be built on them.
        with pytest.raises(ConfigurationError, match="'cold'"):
            TemporalInvertedFile(backend="cold")

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
        # A damaged byte of an element's postings — its run of the rows
        # column — fails the open, before any query could read it.
        element = next(iter(sorted(objects, key=lambda o: o.id)[0].d))
        with SegmentReader(segment) as reader:
            start, stop = reader.directory.terms.get(element)
            rows_offset = reader.directory.rows[0]
        flip_bit(segment, rows_offset + 4 * ((start + stop) // 2) + 1)
        with pytest.raises(CorruptSegmentError, match="rows column checksum"):
            SegmentReader(segment)

    def test_flipped_block_table(self, segment):
        # What a v3 block table held — where each term's postings lie and
        # what they hold — is the term offsets, the rows column and the
        # catalog columns: one flip in each, and both ends of the rows
        # column, fail the open naming the region, never a mis-read.
        header = _header(segment.read_bytes())
        rows_offset, rows_length, _crc = header["rows"]
        catalog_offset, _length, _crc = header["catalog"]
        terms_offset, terms_length, _crc = header["terms"]
        count = header["count"]
        assert rows_length // 4 > header["n_terms"] > 8
        flips = {
            "rows column": [rows_offset, rows_offset + rows_length // 2, rows_offset + rows_length - 1],
            "catalog columns": [catalog_offset + 8 * k * count + 3 for k in range(3)],
            "term table": [terms_offset + 8, terms_offset + terms_length - 1],
        }
        for region, offsets in flips.items():
            for at in offsets:
                flip_bit(segment, at, bit=7)
                with pytest.raises(CorruptSegmentError, match=f"{region} checksum"):
                    SegmentReader(segment)
                flip_bit(segment, at, bit=7)  # restore
        SegmentReader(segment).close()  # restored: sound again

    def test_flipped_catalog_columns(self, tmp_path):
        # The ids/sts/ends columns answer membership and pure-temporal
        # queries and seed promotion: a flipped bit in one must fail the
        # open, not turn object 7 into a second 6 or move object 5.
        objects = [make_object(i, 10 * i, 10 * i + 5, {"a", f"r{i % 3}"}) for i in range(64)]
        path = write_segment(
            tmp_path / "catalog.seg", objects, shard_id="s", index_key=INDEX_KEY, index_params={}
        )
        with SegmentReader(path) as reader:
            ids_offset, sts_offset, ends_offset, n = reader.directory.catalog
            assert n == 64 and reader.query(make_query(0, 100, set())).tolist() == list(range(11))
        t_st_5, id_7 = sts_offset + 8 * 5, ids_offset + 8 * 7
        for flips in ([t_st_5], [id_7], [t_st_5, id_7], [ends_offset + 8 * 63 + 7]):
            for at in flips:
                flip_bit(path, at)
            with pytest.raises(CorruptSegmentError, match="catalog columns checksum"):
                SegmentReader(path)
            for at in flips:
                flip_bit(path, at)  # restore
        SegmentReader(path).close()

    def test_flipped_term_table(self, objects, segment):
        header = _header(segment.read_bytes())
        offset, length, _crc = header["terms"]
        for at in (offset, offset + 8 * header["n_terms"], offset + length - 1):
            flip_bit(segment, at)
            with pytest.raises(CorruptSegmentError, match="term table checksum"):
                SegmentReader(segment)
            flip_bit(segment, at)
        SegmentReader(segment).close()

    def test_term_rows_must_partition_the_block_table(self, objects, tmp_path):
        # A term table with a sound CRC whose offsets are not
        # 0 = o0 < o1 < … = n_rows would hand a term someone else's rows
        # (or none): refused at open.
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        header = _header(image)
        offset, length, _crc = header["terms"]
        n_rows = header["rows"][1] // 4
        for at, value in [(1, 0), (2, 1), (0, 1), (header["n_terms"], n_rows + 1)]:
            path = _rewrite_region(
                image, tmp_path, "terms", offset + 8 * at, value.to_bytes(8, "little")
            )
            with pytest.raises(CorruptSegmentError, match="do not partition"):
                SegmentReader(path)

    def test_block_table_bounds_are_checked(self, objects, tmp_path):
        # A header whose rows region runs into the header itself (a
        # consistent CRC cannot save it) is refused, not sliced.
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        path = _rewrite_header(image, tmp_path, lambda h: h["rows"].__setitem__(1, 4 << 40))
        with pytest.raises(CorruptSegmentError, match="rows column .* runs past the body"):
            SegmentReader(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h.pop("count"), "'count' is missing"),
            (lambda h: h.pop("terms"), "'terms' is missing"),
            (lambda h: h.__setitem__("n_terms", "7"), "'n_terms' is missing or malformed"),
            (lambda h: h.__setitem__("count", True), "'count' is missing or malformed"),
            (lambda h: h["catalog"].__setitem__(0, "0"), "'catalog' is missing or malformed"),
            (lambda h: h.__setitem__("span", [0.5, 2]), "'span' is missing or malformed"),
            (lambda h: h.__setitem__("version", 2), "'version' is missing or malformed"),
            (lambda h: h.__setitem__("key_width", 0), "'key_width' is missing or malformed"),
            (lambda h: h["rows"].pop(), "'rows' is missing or malformed"),
            (lambda h: h.__setitem__("count", 1 << 31), "'count' .* \\(2147483648\\)"),
            (lambda h: h["terms"].__setitem__(0, sum(h["terms"][:2])),  # dir_offset
             "term table .* runs past the body"),
            (lambda h: h["rows"].__setitem__(1, h["rows"][1] - 2), "rows region .* does not fit"),
            (lambda h: h["catalog"].__setitem__(1, 8), "catalog region of 8 bytes does not fit"),
            (lambda h: h.__setitem__("n_terms", h["n_terms"] + 1), "terms region .* does not fit"),
            (lambda h: h.__setitem__("key_width", h["key_width"] + 1),
             "terms region .* does not fit"),
        ],
    )
    def test_hostile_headers_raise_typed(self, objects, tmp_path, edit, match):
        # A header with a sound CRC but a missing, wrong-typed or
        # out-of-bounds field is CorruptSegmentError — never KeyError or
        # TypeError, and never a slice of the wrong bytes.
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        path = _rewrite_header(image, tmp_path, edit)
        with pytest.raises(CorruptSegmentError, match=match):
            SegmentReader(path)

    @pytest.mark.parametrize("blob", [b"{not json", b"[1, 2]", b"\xff\xfe", b"[" * 100_000])
    def test_unparseable_headers_raise_typed(self, objects, tmp_path, blob):
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        dir_offset = parse_footer(image, "image")[0]
        path = tmp_path / "garbage.seg"
        path.write_bytes(image[:dir_offset] + blob + build_footer(dir_offset, blob))
        with pytest.raises(CorruptSegmentError, match="segment header is not"):
            SegmentReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptSegmentError):
            SegmentReader(tmp_path / "absent.seg")

    def test_corrupt_descriptions_blob(self, objects, tmp_path):
        # A description is rebuilt from the term keys and runs.  A key that
        # does not decode, behind a sound CRC and in key order, is not
        # read by queries on other terms — but promotion detects it
        # instead of resurrecting junk.
        image = build_segment(objects, shard_id="s", index_key=INDEX_KEY, index_params={})
        header = _header(image)
        offset, length, _crc = header["terms"]
        width = header["key_width"]
        path = _rewrite_region(
            image, tmp_path, "terms", offset + length - width, b"\xff" * (width - 1) + b"s"
        )
        oracle = build_index("brute", Collection(objects))
        with SegmentReader(path) as reader:
            last = max(map(encode_key, {e for obj in objects for e in obj.d}))
            kept = next(e for obj in objects for e in obj.d if encode_key(e) != last)
            q = make_query(0, 10**6, {kept})
            assert reader.query(q).tolist() == sorted(oracle.query(q))
            assert reader.query(make_query(0, 10**6, set())).tolist() == reader.object_ids()
            with pytest.raises(CorruptSegmentError, match="does not decode"):
                reader.objects()


class TestLifetimes:
    def test_close_succeeds_while_postings_and_answers_are_held(self, objects, segment):
        # Postings views hold the reader's columns object, never a view of
        # the mapping, and answers own their ids: closing unmaps the file
        # while both are still held.
        element = next(iter(sorted(objects, key=lambda o: o.id)[0].d))
        reader = SegmentReader(segment)
        postings = reader.postings(element)
        answer = reader.query(make_query(-(1 << 40), 1 << 40, {element}))
        pure = reader.query(make_query(-(1 << 40), 1 << 40, set()))
        held = postings.ids()
        reader.close()
        assert reader.closed and reader._mmap.closed
        assert answer.tolist() == held and answer.base is None and pure.base is None
        assert len(pure) == len(objects)
        with pytest.raises(ValueError, match="closed segment"):
            postings.ids()


#: Elements of every encodable kind, and two no segment will hold.
POOL = ["a", "b", "", "é\ud800", b"", b"\x00", 0, -1, 1 << 70, (), ("a", 1), (("x",), b"y")]
ABSENT = ["zzz", ("b",)]


def _random_shard(rng):
    """Up to 60 objects: ids and times drawn from the i64 edges and a
    small range, descriptions of any kind, some of them empty."""
    n = rng.choice([0, 1, 2, 5, 60])
    ids = rng.sample([0, 1, I64_MAX - 1, I64_MAX, *range(2, 400)], n)
    edges = [I64_MIN, I64_MIN + 1, -1, 0, I64_MAX - 1, I64_MAX]
    objects = []
    for object_id in ids:
        st, end = sorted(rng.choice(edges) if rng.random() < 0.2 else rng.randint(-50, 50)
                         for _ in range(2))
        d = set(rng.sample(POOL, rng.choice([0, 1, 1, 2, 4])))
        objects.append(make_object(object_id, st, end, d))
    return objects


def _random_queries(rng, n):
    edges = [I64_MIN, -60, -1, 0, 0.5, 50, I64_MAX, float(I64_MAX), -1e30, 1e30]
    queries = []
    for _ in range(n):
        st, end = sorted(rng.choice(edges) if rng.random() < 0.3 else rng.randint(-60, 60)
                         for _ in range(2))
        queries.append(make_query(st, end, rng.sample(POOL + ABSENT, rng.choice([0, 1, 1, 2, 3]))))
    return queries


class TestV4Property:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_shards_answer_like_brute_force_and_round_trip(self, seed, tmp_path):
        rng = random.Random(seed)
        for shard in range(4):
            objects = _random_shard(rng)
            path = write_segment(
                tmp_path / f"{shard}.seg", objects, shard_id="s", index_key=INDEX_KEY,
                index_params={},
            )
            oracle = build_index("brute", Collection(objects)) if objects else None
            with SegmentReader(path) as reader:
                for q in _random_queries(rng, 40):
                    want = sorted(oracle.query(q)) if oracle is not None else []
                    assert reader.query(q).tolist() == want, (seed, shard, q)
                assert reader.descriptions_decoded is False
                got = reader.objects()
            assert got == sorted(objects, key=lambda obj: obj.id)
            assert [type(e) for obj in got for e in sorted(obj.d, key=repr)] == [
                type(e) for obj in sorted(objects, key=lambda o: o.id)
                for e in sorted(obj.d, key=repr)
            ]


class TestEveryByte:
    """A small segment, torn at every offset and flipped at every bit."""

    OBJECTS = [
        make_object(1, 0, 5, {"a", "b"}),
        make_object(4, I64_MIN, -3, {"a", ("t", 1)}),
        make_object(9, 3, I64_MAX, {b"\x00"}),
        make_object(12, 7, 7, set()),
        make_object(I64_MAX, -2, 2, {"b", 5}),
    ]
    QUERIES = [
        make_query(lo, hi, d)
        for lo, hi in [(I64_MIN, I64_MAX), (0, 4), (6, 8), (-5, -3)]
        for d in [set(), {"a"}, {"b", b"\x00"}, {("t", 1)}, {5}, {"a", "b"}]
    ]

    def _observed(self, path):
        with SegmentReader(path) as reader:
            return [reader.query(q).tolist() for q in self.QUERIES], reader.objects()

    def test_every_truncation_and_bit_flip_is_typed(self, tmp_path):
        image = build_segment(self.OBJECTS, shard_id="s", index_key=INDEX_KEY, index_params={})
        path = tmp_path / "small.seg"
        path.write_bytes(image)
        expected = self._observed(path)
        assert expected[1] == self.OBJECTS
        header = _header(image)
        rows_end = header["rows"][0] + header["rows"][1]
        padding = set(range(rows_end, header["catalog"][0]))
        assert padding  # an odd number of rows: the catalog is aligned past them
        for cut in range(len(image)):
            path.write_bytes(image[:cut])
            with pytest.raises(CorruptSegmentError):
                SegmentReader(path)
        opened = set()
        for at in range(len(image)):
            for bit in range(8):
                damaged = bytearray(image)
                damaged[at] ^= 1 << bit
                path.write_bytes(bytes(damaged))
                try:
                    observed = self._observed(path)
                except CorruptSegmentError:
                    continue
                assert observed == expected, (at, bit)
                opened.add(at)
        # Every byte is under a checksum but the alignment padding.
        assert opened == padding
