"""Hostile bytes with a valid checksum must not run code (ROADMAP finding 2).

Each test frames a payload that pickles a call to :func:`_record` with a
correct length and CRC, in one of the three formats that unpickle bytes
read from disk: an index snapshot, a WAL record and a segment's
descriptions blob.  A CRC finds damage, not malice, so the load must refuse
the payload by what it is (a typed error) without ever calling the
function.  Today each of them unpickles it: these are expected failures,
``strict`` so that the change that drops pickle from a format must flip
its test to a pass.
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
from repro.storage import format as segment_format

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


@NOT_YET
def test_segment_descriptions_with_a_valid_checksum_run_nothing():
    blob = zlib.compress(PAYLOAD, 1)
    directory = segment_format.SegmentDirectory.__new__(segment_format.SegmentDirectory)
    directory.descriptions = (0, len(blob), zlib.crc32(blob))
    with pytest.raises(CorruptSegmentError):
        segment_format.unpack_descriptions(directory, blob, "x.seg")
    assert CALLS == []


def test_the_payloads_are_framed_soundly():
    # What makes the expected failures meaningful: each frame passes its
    # checksum, so only the payload's content can refuse it.
    assert pickle.loads(PAYLOAD) is None and CALLS == [("called",)]
    blob = zlib.compress(PAYLOAD, 1)
    directory = segment_format.SegmentDirectory.__new__(segment_format.SegmentDirectory)
    directory.descriptions = (0, len(blob), zlib.crc32(blob))
    assert segment_format.unpack_descriptions(directory, blob, "x.seg") is None
