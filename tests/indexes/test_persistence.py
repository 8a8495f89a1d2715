"""Tests for index snapshots (save/load built indexes)."""

import json
import pickle

import pytest

from repro.core.errors import CorruptSnapshotError, ReproError
from repro.core.model import make_object, make_query
from repro.indexes.persistence import (
    dumps_index,
    load_index,
    loads_index,
    read_header,
    save_index,
)
from repro.indexes.registry import INDEX_CLASSES, PAPER_METHODS, build_index
from repro.bench.tuned import tuned


@pytest.mark.parametrize("key", PAPER_METHODS)
def test_roundtrip_every_method(key, running_example, example_query, tmp_path):
    index = build_index(key, running_example, **tuned(key))
    path = tmp_path / f"{key}.idx"
    save_index(index, path)
    restored = load_index(path)
    assert restored.name == index.name
    assert restored.query(example_query).tolist() == [2, 4, 7]
    assert len(restored) == len(index)


def test_restored_index_stays_updatable(running_example, example_query, tmp_path):
    index = build_index("irhint-perf", running_example)
    path = tmp_path / "i.idx"
    save_index(index, path)
    restored = load_index(path)
    restored.insert(make_object(60, 2, 4, {"a", "c"}))
    restored.delete(4)
    assert restored.query(example_query).tolist() == [2, 7, 60]
    # The on-disk snapshot is unaffected.
    assert load_index(path).query(example_query).tolist() == [2, 4, 7]


def test_header_is_cheap_and_informative(running_example, tmp_path):
    index = build_index("tif-slicing", running_example)
    path = tmp_path / "i.idx"
    save_index(index, path)
    header = read_header(path)
    assert header["index_class"] == "TIFSlicing"
    assert header["objects"] == 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.idx"
    path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
    with pytest.raises(ReproError, match="bad magic"):
        load_index(path)


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "junk.idx"
    path.write_bytes(b"RPROIDX1" + (10).to_bytes(4, "little") + b"not json!!")
    with pytest.raises(ReproError, match="corrupt"):
        read_header(path)


def test_save_rejects_non_index(tmp_path):
    with pytest.raises(ReproError):
        save_index({"not": "an index"}, tmp_path / "x.idx")  # type: ignore[arg-type]


def test_in_memory_roundtrip(running_example, example_query):
    index = build_index("irhint-size", running_example)
    blob = dumps_index(index)
    restored = loads_index(blob)
    assert restored.query(example_query).tolist() == [2, 4, 7]
    with pytest.raises(ReproError):
        loads_index(b"garbage")


@pytest.mark.parametrize("key", sorted(INDEX_CLASSES))
def test_roundtrip_preserves_queries_for_every_registry_index(
    key, running_example, example_query, tmp_path
):
    """Identical query results before and after persistence, all indexes."""
    probes = [
        example_query,
        make_query(0, 7),  # pure temporal
        make_query(5, 5, {"b"}),  # stabbing
        make_query(0, 7, {"a", "b", "c"}),
        make_query(0, 7, {"nope"}),
    ]
    index = build_index(key, running_example, **tuned(key))
    before = [index.query(q).tolist() for q in probes]
    path = tmp_path / f"{key}.idx"
    save_index(index, path)
    restored = load_index(path)
    assert type(restored) is type(index)
    assert [restored.query(q).tolist() for q in probes] == before
    assert len(restored) == len(index)
    assert restored.size_bytes() == index.size_bytes()


def test_save_is_atomic_no_temp_residue(running_example, tmp_path):
    index = build_index("brute", running_example)
    path = tmp_path / "i.idx"
    save_index(index, path)
    save_index(index, path)  # overwrite in place is also atomic
    assert [p.name for p in tmp_path.iterdir()] == ["i.idx"]


def test_save_fsyncs_the_directory_after_the_rename(running_example, tmp_path, monkeypatch):
    """The rename is durable only once its directory entry is fsynced."""
    from repro.service.fsio import REAL_FS

    synced = []
    monkeypatch.setattr(REAL_FS, "fsync_dir", synced.append)
    path = tmp_path / "i.idx"
    save_index(build_index("brute", running_example), path)
    assert synced == [path.parent]
    assert load_index(path).query(make_query(0, 7, {"a"})).tolist()


def test_v2_header_carries_checksum(running_example, tmp_path):
    index = build_index("brute", running_example)
    path = tmp_path / "i.idx"
    save_index(index, path)
    header = read_header(path)
    assert header["format"] == 2
    assert header["payload_bytes"] > 0
    assert isinstance(header["payload_crc32"], int)


def test_truncated_magic_rejected(tmp_path):
    path = tmp_path / "t.idx"
    path.write_bytes(b"RPRO")
    with pytest.raises(CorruptSnapshotError, match="truncated"):
        load_index(path)


def test_truncated_header_length_rejected(tmp_path):
    path = tmp_path / "t.idx"
    path.write_bytes(b"RPROIDX1" + b"\x07")
    with pytest.raises(CorruptSnapshotError, match="truncated"):
        read_header(path)


def test_truncated_header_body_rejected(tmp_path):
    path = tmp_path / "t.idx"
    path.write_bytes(b"RPROIDX1" + (500).to_bytes(4, "little") + b'{"format"')
    with pytest.raises(CorruptSnapshotError, match="truncated"):
        read_header(path)


def test_implausible_header_length_rejected(tmp_path):
    path = tmp_path / "t.idx"
    path.write_bytes(b"RPROIDX1" + (1 << 31).to_bytes(4, "little") + b"x" * 64)
    with pytest.raises(CorruptSnapshotError, match="implausible"):
        read_header(path)


def test_truncated_payload_rejected(running_example, tmp_path):
    index = build_index("tif", running_example)
    path = tmp_path / "t.idx"
    save_index(index, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-30])
    with pytest.raises(CorruptSnapshotError, match="truncated snapshot payload"):
        load_index(path)


def test_flipped_payload_bit_rejected(running_example, tmp_path):
    index = build_index("tif", running_example)
    path = tmp_path / "t.idx"
    save_index(index, path)
    blob = bytearray(path.read_bytes())
    blob[-7] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptSnapshotError, match="checksum mismatch"):
        load_index(path)


def _v1_blob(index):
    """A snapshot exactly as the v1 writer (seed release) laid it out."""
    header = {
        "format": 1,
        "library": "0.0",
        "index_class": type(index).__name__,
        "index_name": index.name,
        "objects": len(index),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (
        b"RPROIDX1"
        + len(header_bytes).to_bytes(4, "little")
        + header_bytes
        + pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
    )


def test_v1_snapshots_still_load(running_example, example_query, tmp_path):
    index = build_index("irhint-perf", running_example)
    path = tmp_path / "legacy.idx"
    path.write_bytes(_v1_blob(index))
    assert read_header(path)["format"] == 1
    restored = load_index(path)
    assert restored.query(example_query).tolist() == [2, 4, 7]
    assert loads_index(_v1_blob(index)).query(example_query).tolist() == [2, 4, 7]


def test_v1_unpickling_damage_is_a_corrupt_snapshot(running_example, tmp_path):
    # v1 has no checksum; damage surfaces at unpickling and must still be
    # branded CorruptSnapshotError for the recovery ladder to catch.
    index = build_index("brute", running_example)
    blob = bytearray(_v1_blob(index))
    blob[-4] ^= 0xFF
    with pytest.raises(CorruptSnapshotError):
        loads_index(bytes(blob))


def test_format_version_guard(running_example, tmp_path):
    index = build_index("tif", running_example)
    path = tmp_path / "i.idx"
    save_index(index, path)
    raw = path.read_bytes()
    # Forge a future format version in the header.
    length = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + length])
    header["format"] = 999
    forged = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + len(forged).to_bytes(4, "little") + forged + raw[12 + length :])
    with pytest.raises(ReproError, match="unsupported"):
        load_index(path)



def _header(blob):
    return json.loads(blob[12 : 12 + int.from_bytes(blob[8:12], "little")])


def _with_header(blob, **fields):
    """``blob`` with ``fields`` rewritten in its JSON header."""
    length = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + length])
    header.update(fields)
    forged = json.dumps(header, separators=(",", ":")).encode()
    return blob[:8] + len(forged).to_bytes(4, "little") + forged + blob[12 + length :]


@pytest.mark.parametrize("kind", [bool, float, str])
@pytest.mark.parametrize("field", ["format", "payload_bytes", "payload_crc32"])
def test_header_integers_must_be_ints(running_example, field, kind):
    # JSON true == 1 and 2.0 == 2 in Python: a check by equality would read
    # a header with "format": true as a checksum-free v1 snapshot.
    blob = dumps_index(build_index("tif", running_example))
    forged = _with_header(blob, **{field: kind(_header(blob)[field])})
    with pytest.raises(CorruptSnapshotError, match=field):
        loads_index(forged)


def test_boolean_format_does_not_skip_the_checksum(running_example, example_query):
    blob = dumps_index(build_index("tif", running_example))
    assert loads_index(_with_header(blob, format=2)).query(example_query).tolist() == [2, 4, 7]
    with pytest.raises(CorruptSnapshotError, match="checksum"):
        loads_index(_with_header(blob, format=2, payload_crc32=0))
    with pytest.raises(CorruptSnapshotError):
        loads_index(_with_header(blob, format=True, payload_crc32=0))
