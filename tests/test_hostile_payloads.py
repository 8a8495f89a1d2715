"""Hostile bytes with a valid checksum must not run code (ROADMAP finding 2).

Each test frames hostile content with a correct length and CRC.  A CRC
finds damage, not malice, so the load must refuse the content by what it
is (a typed error) without ever calling anything.  For an index snapshot
and a WAL record the content is a payload that pickles a call to
:func:`_record`; both formats still unpickle it, so these are expected
failures, ``strict`` so that the change that drops pickle from a format
must flip its test to a pass.  A segment holds no pickle since format v4:
its hostile content is a rows column that would hand a query or a
promotion rows outside its terms or its catalog.
"""

import json
import pickle
import zlib

import pytest

from repro.core.errors import CorruptSegmentError, CorruptSnapshotError
from repro.core.model import make_object
from repro.indexes.persistence import _MAGIC, _header_for, loads_index
from repro.indexes.registry import build_index
from repro.service.wal import WriteAheadLog, insert_op, read_wal
from repro.storage.format import build_footer, pack_header, parse_footer
from repro.storage.reader import SegmentReader
from repro.storage.writer import build_segment

#: Calls that hostile payloads made.
CALLS = []


def _record(*args):
    CALLS.append(args)


class _Hostile:
    """Pickles as a call to :func:`_record`."""

    def __reduce__(self):
        return _record, ("called",)


PAYLOAD = pickle.dumps(_Hostile(), protocol=pickle.HIGHEST_PROTOCOL)

NOT_YET = pytest.mark.xfail(
    strict=True, reason="the format still unpickles its payload (no-pickle item)"
)


@pytest.fixture(autouse=True)
def no_calls_yet():
    CALLS.clear()
    yield
    CALLS.clear()


@NOT_YET
def test_a_snapshot_with_a_valid_checksum_runs_nothing(running_example):
    header = json.dumps(
        _header_for(build_index("tif", running_example), PAYLOAD), separators=(",", ":")
    ).encode()
    blob = _MAGIC + len(header).to_bytes(4, "little") + header + PAYLOAD
    with pytest.raises(CorruptSnapshotError):
        loads_index(blob)
    assert CALLS == []


@NOT_YET
def test_a_wal_record_with_a_valid_checksum_runs_nothing(tmp_path):
    segment = tmp_path / "wal-000001.log"
    with WriteAheadLog(segment, fsync=False) as wal:
        wal.append(insert_op(make_object(1, 0, 5, {"a"}), lsn=1))
    frame = len(PAYLOAD).to_bytes(4, "little") + zlib.crc32(PAYLOAD).to_bytes(4, "little")
    with open(segment, "ab") as handle:
        handle.write(frame + PAYLOAD)
    result = read_wal(segment)
    # The sound record replays; the hostile one is refused as unreadable.
    assert len(result.records) == 1 and result.error is not None
    assert CALLS == []


def _segment_image():
    """Four objects; ``"a"``'s run is rows ``[0, 1, 2]`` and ``"b"``'s
    ``[1, 3]`` (terms in key order)."""
    objects = [
        make_object(10, 0, 5, {"a"}),
        make_object(11, 1, 6, {"a", "b"}),
        make_object(12, 2, 7, {"a"}),
        make_object(13, 3, 8, {"b"}),
    ]
    return build_segment(objects, shard_id="s", index_key="tif", index_params={})


def _with_region(image, region, at, raw):
    """``image`` with ``raw`` written ``at`` bytes into ``region``, that
    region's CRC and the header's re-framed: every checksum holds."""
    dir_offset, dir_length, _crc = parse_footer(image, "image")
    header = json.loads(image[dir_offset : dir_offset + dir_length])
    body = bytearray(image[:dir_offset])
    offset, length, _crc = header[region]
    body[offset + at : offset + at + len(raw)] = raw
    header[region][2] = zlib.crc32(bytes(body[offset : offset + length]))
    blob = pack_header(header)
    return bytes(body) + blob + build_footer(dir_offset, blob)


def _rows(*rows):
    return b"".join(row.to_bytes(4, "little", signed=True) for row in rows)


@pytest.mark.parametrize(
    "region, at, raw, match",
    [
        ("rows", 4, _rows(4), "outside the 4-object catalog"),  # a row >= count
        ("rows", 0, _rows(-1), "outside the 4-object catalog"),  # a negative row
        ("rows", 4, _rows(0), "do not ascend"),  # a term's rows repeat
        ("rows", 4, _rows(2, 1), "do not ascend"),  # a term's rows descend
        ("rows", 12, _rows(3, 1), "do not ascend"),  # "b" descends
        ("terms", 8, (2).to_bytes(8, "little"), "do not ascend"),  # "b" gets "a"'s row 2
        ("terms", 0, (1).to_bytes(8, "little"), "do not partition"),  # row 0 is no term's
        ("terms", 8, (0).to_bytes(8, "little"), "do not partition"),  # an empty run
        ("terms", 16, (6).to_bytes(8, "little"), "do not partition"),  # past the column
    ],
)
def test_segment_descriptions_with_a_valid_checksum_run_nothing(
    tmp_path, no_unpickling, region, at, raw, match
):
    # A description is the terms whose runs hold an object's row: rows
    # that lie outside the catalog, repeat or descend within a run, or
    # offsets that do not cut the column into runs would describe
    # objects with what their writer never wrote.  Each is refused at
    # open, before any query or promotion reads it.
    sound = tmp_path / "sound.seg"
    sound.write_bytes(_segment_image())
    with SegmentReader(sound) as reader:
        assert reader.directory.terms.get("a") == (0, 3)
        assert reader.directory.terms.get("b") == (3, 5)
    path = tmp_path / "hostile.seg"
    path.write_bytes(_with_region(_segment_image(), region, at, raw))
    with pytest.raises(CorruptSegmentError, match=match):
        SegmentReader(path)
    assert CALLS == []


def test_the_payloads_are_framed_soundly():
    # What makes the expected failures meaningful: each frame passes its
    # checksum, so only the payload's content can refuse it.
    assert pickle.loads(PAYLOAD) is None and CALLS == [("called",)]
