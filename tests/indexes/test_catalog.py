"""The object catalog against a plain-dict model, across seal points.

A :class:`~repro.indexes.catalog.Catalog` keeps the objects inserted since
its last load in a dict head and what a load restored as sealed columns.
Random inserts and deletes run between seal points (pickle → load →
mutate → pickle); after every step each read — ``len``, ``in``, ``get``,
``objects()``, ``object_ids()``, the overlap scan and the pair columns —
must equal the model's, a materialised object must equal the original
down to its field types, and the bytes must be canonical: those of a
fresh catalog of the model's objects, and a load pickles to the bytes it
was loaded from.
"""

from __future__ import annotations

import pickle
import pickletools
import random

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object
from repro.indexes.catalog import Catalog
from repro.indexes.persistence import dumps_index, loads_index
from repro.indexes.registry import available_indexes, build_index
from repro.storage.format import encode_key

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

#: One of every kind ``format.encode_key`` takes.  No str or bytes value
#: occurs in two elements: pickle shares repeated objects by identity, and
#: a loaded catalog's terms are not the caller's objects.
ELEMENTS = [
    "a", "", "ünï\udc80", b"raw", b"", 0, -7, 1 << 70,
    ("t", 1), ("u", (b"v", "w"), -3), (),
]

ENDPOINTS = {
    "int": [I64_MIN, -5, 0, 1, 7, 40, 1 << 40, I64_MAX],
    "float": [-1e300, -2.5, -0.0, 0.5, 3.25, 2.0**63, 1e300],
    "mixed": [I64_MIN, -0.0, 0, 0.5, 7, 2.0**53 + 2, 1 << 70, I64_MAX],
}


def _object(rng, object_id, regime):
    st, end = sorted(rng.sample(ENDPOINTS[regime], 2), key=float)
    d = rng.sample(ELEMENTS, rng.choice([0, 1, 2, 4]))
    return make_object(object_id, st, end, d)


def _exact(obj):
    """Field values with their types: 1, 1.0 and -0.0 differ here."""
    return (obj.id, repr(obj.st), repr(obj.end), sorted(f"{type(e)}{e!r}" for e in obj.d))


def _check(catalog, model, rng):
    expected = sorted(model)
    assert len(catalog) == len(model)
    assert sorted(catalog) == expected
    assert catalog.object_ids().tolist() == expected
    assert catalog.object_ids().dtype.str == "<i8"
    assert [_exact(o) for o in catalog.objects()] == [_exact(model[i]) for i in expected]
    for object_id in [*rng.sample(range(48), 8), I64_MAX]:
        assert (object_id in catalog) == (object_id in model)
        got = catalog.get(object_id)
        if object_id in model:
            assert _exact(got) == _exact(model[object_id])
        else:
            assert got is None
    for lo, hi in [(I64_MIN, I64_MAX), (-3, 0.5), (0, 0), (7.5, 2.0**63), (1e301, 1e302)]:
        want = [i for i in expected if model[i].st <= hi and lo <= model[i].end]
        assert catalog.overlapping(lo, hi).tolist() == want
    terms, codes, ids = catalog.pairs()
    pairs = sorted((i, f"{type(terms[c])}{terms[c]!r}") for c, i in zip(codes.tolist(), ids.tolist()))
    assert pairs == sorted((i, f"{type(e)}{e!r}") for i in expected for e in model[i].d)


def _seal(catalog, model):
    """Pickle → load; the bytes are the model's and load → pickle keeps them."""
    blob = pickle.dumps(catalog, protocol=pickle.HIGHEST_PROTOCOL)
    assert blob == pickle.dumps(Catalog(list(model.values())), protocol=pickle.HIGHEST_PROTOCOL)
    loaded = pickle.loads(blob)
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == blob
    return loaded


def test_every_element_kind_has_a_key():
    assert all(encode_key(element) is not None for element in ELEMENTS)


@pytest.mark.parametrize("regime", sorted(ENDPOINTS))
@pytest.mark.parametrize("seed", range(6))
def test_catalog_matches_a_dict_model_across_seals(seed, regime):
    rng = random.Random(seed * 31 + len(regime))
    model = {}
    catalog = Catalog()
    ids = [*range(48), I64_MAX]
    for step in range(160):
        roll = rng.random()
        if roll < 0.08:
            catalog = _seal(catalog, model)
        elif roll < 0.35 and model:
            victim = rng.choice(sorted(model))
            del model[victim]
            catalog.discard(victim)
        else:
            free = [i for i in ids if i not in model]
            if free:
                obj = _object(rng, rng.choice(free), regime)
                model[obj.id] = obj
                catalog.add(obj)
        if step % 8 == 0:
            _check(catalog, model, rng)
    _check(catalog, model, rng)
    _check(_seal(catalog, model), model, rng)


def test_a_load_reads_columns_and_reads_never_write():
    objects = [make_object(i, i, i + 3, {"a", ("t", i % 3)}) for i in range(50)]
    loaded = pickle.loads(pickle.dumps(Catalog(objects)))
    assert not loaded._head and len(loaded._rows) == 50
    for column in (loaded._ids, loaded._sts, loaded._ends, loaded._runs, loaded._cuts):
        assert not column.flags.writeable
    before = pickle.dumps(loaded)
    assert loaded.get(7) == objects[7] and loaded.objects() == objects
    assert loaded.get(7) is not loaded.get(7)  # made on the spot, never kept
    assert loaded.get(loaded.object_ids()[7]) == objects[7]  # an int64 id finds its row
    assert not loaded._head and pickle.dumps(loaded) == before


def _globals(blob):
    """Every ``module name`` global a pickle references."""
    strings, found = [], set()
    for opcode, arg, _pos in pickletools.genops(blob):
        if isinstance(arg, str):
            strings.append(arg)
        if opcode.name == "STACK_GLOBAL":
            found.add(" ".join(strings[-2:]))
        elif opcode.name == "GLOBAL":
            found.add(arg)
    return found


def test_an_irhint_perf_snapshot_references_no_object_class():
    objects = [make_object(i, 10 * i, 10 * i + 25, {"hot", f"r{i % 7}"}) for i in range(300)]
    index = build_index("irhint-perf", Collection(objects))
    index.delete(5)
    index.insert(make_object(1_000, 3, 4, {"hot"}))
    blob = dumps_index(index)
    referenced = _globals(blob[blob.index(b"\x80\x05"):])
    assert "repro.indexes.catalog Catalog" in referenced
    assert not [name for name in referenced if "TemporalObject" in name or "frozenset" in name]


@pytest.mark.parametrize("key", sorted(available_indexes()))
def test_a_loaded_snapshot_pickles_to_its_own_bytes(key):
    objects = [make_object(i, 10 * i, 10 * i + 25, {"hot", f"r{i % 7}"}) for i in range(200)]
    objects.append(make_object(500, 12.5, 40.25, {"hot", "r3"}))
    index = build_index(key, Collection(objects))
    for object_id in (3, 4, 50):
        index.delete(object_id)
    blob = dumps_index(index)
    loaded = loads_index(blob)
    assert dumps_index(loaded) == blob
    loaded.delete(60)  # a sealed row, made to be deleted
    index.delete(60)
    assert dumps_index(loaded) == dumps_index(index)
