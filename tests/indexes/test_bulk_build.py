"""The bulk load against the insert loop it replaces.

``TemporalIRIndex.build`` reads a collection once into columns and cuts
every run from one sort (``BuildColumns``, ``PackedPostingsList.from_columns``);
the slicing indexes cut each run into its slices' sub-lists, Sharding sorts
each by ``(t_st, id)`` into its shards; ``Hint.build`` sorts its records by
id once.  An id-ascending collection must pickle byte for byte as the loop
leaves it, any other must answer, explain and count as the loop's does,
and what the columns cannot hold (a float or an out-of-i64 endpoint, a
repeated id) must take the loop itself.  Sharding's build cuts other
shards than its inserts make (ideal chains, merged); its build answers,
explains and counts alike whatever the collection's order.
"""

import gc
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from repro.bench.tuned import tuned
from repro.core.collection import Collection
from repro.core.errors import DuplicateObjectError
from repro.core.model import TemporalObject, make_object, make_query
from repro.datasets.synthetic import generate_synthetic
from repro.indexes.explain import explain
from repro.indexes.registry import INDEX_CLASSES, build_index
from repro.intervals.hint import Hint
from repro.ir.packed import PackedPostingsList, id_sorted
from tests.conftest import random_objects, random_queries

BULK_KEYS = [
    "tif", "irhint-perf", "irhint-size", "tif-hint-binary", "tif-hint-merge",
    "tif-slicing", "tif-hint-slicing",
]
KEYS = BULK_KEYS + ["brute"]


def loop_built(key, objects):
    """The index as ``build`` made it before the bulk load: configured for
    the objects (a slicing grid), then insert by insert."""
    index = INDEX_CLASSES[key]()
    index._configure_for(objects)
    for obj in objects:
        index.insert(obj)
    index._settle()
    return index


def loop_hint(records, num_bits=8):
    hint = Hint(num_bits)
    for record in records:
        hint.insert(*record)
    return hint


def wide_objects(n, seed):
    """Descriptions of up to 40 elements: a set copied with ``set()`` then
    often iterates in another order than the original."""
    rng = random.Random(seed)
    elements = [f"w{i}" for i in range(120)]
    return [
        make_object(i, st, st + rng.randint(0, 500), rng.sample(elements, rng.randint(0, 40)))
        for i, st in enumerate(rng.randint(-5_000, 5_000) for _ in range(n))
    ]


def ascending_collections():
    return {
        "random": random_objects(400, seed=3),
        "wide": wide_objects(200, seed=4),
        "empty": [],
        "no-elements": [make_object(i, i, i + 3) for i in range(10)],
        "edge": [
            make_object(0, -(1 << 63), -5, {"a"}),
            make_object(7, -10, 10, {"a", "b"}),
            make_object(9, 0, (1 << 63) - 1, {"b"}),
            make_object((1 << 63) - 1, -3, 3, {"a", "b", "c"}),
        ],
    }


def shuffled(objects, seed):
    objects = list(objects)
    random.Random(seed).shuffle(objects)
    return objects


def answers(index, queries):
    return [index.query(q).tolist() for q in queries]


def probe_queries(objects):
    queries = [make_query(-(1 << 63), (1 << 63) - 1), make_query(-20, 20, {"a"})]
    if objects:
        queries += random_queries(Collection(objects), 60, seed=8)
    return queries


# ---------------------------------------------------------------- the layout
def test_from_columns_is_the_list_appends_make():
    ids, sts, ends = [1, 4, 9, 12], [-3, 0, 5, 5], [2, 0, 8, 1 << 62]
    appended = PackedPostingsList()
    for entry in zip(ids, sts, ends):
        appended.add(*entry)
    columns = [np.array(column, dtype=np.int64) for column in (ids, sts, ends)]
    built = PackedPostingsList.from_columns(*columns)
    assert pickle.dumps(built) == pickle.dumps(appended)
    assert built.layout_epoch == 1 and built.alive_column() is None
    columns[0][0] = 99  # the list holds copies
    assert built.ids() == ids
    as_bytes = [memoryview(column).cast("B")[8:24] for column in columns]
    assert list(PackedPostingsList.from_columns(*as_bytes).entries()) == list(
        zip(ids[1:3], sts[1:3], ends[1:3])
    )
    empty = PackedPostingsList.from_columns(*(np.empty(0, dtype=np.int64),) * 3)
    assert pickle.dumps(empty) == pickle.dumps(PackedPostingsList())


def test_id_sorted_holds_what_add_would_and_nothing_else():
    held = id_sorted([9, 2, 5], [0, -1, 3], [4, 1, 1 << 62])
    assert held.ids.tolist() == [2, 5, 9] and held.order.tolist() == [1, 2, 0]
    assert held.sts.tolist() == [-1, 3, 0] and held.ends.tolist() == [1, 1 << 62, 4]
    assert id_sorted([1, 2], [0, 0], [1, 1]).order is None
    assert id_sorted([1, 2], [0, 0.5], [1, 1]) is None  # a float spills
    assert id_sorted([1, 2], [0, 0], [1, 1 << 63]) is None  # past i64
    assert id_sorted([3, 1, 3], [0, 0, 0], [1, 1, 1]) is None  # a repeated id


# ------------------------------------------------------ bytes, answers, stats
@pytest.mark.parametrize("name", sorted(ascending_collections()))
@pytest.mark.parametrize("key", KEYS)
def test_id_ascending_builds_pickle_as_the_loop(key, name):
    objects = ascending_collections()[name]
    bulk = INDEX_CLASSES[key].build(objects)
    loop = loop_built(key, objects)
    assert pickle.dumps(bulk) == pickle.dumps(loop)
    queries = probe_queries(objects)
    assert answers(bulk, queries) == answers(loop, queries)
    assert bulk.stats() == loop.stats()


@pytest.mark.parametrize("name", sorted(ascending_collections()))
def test_hint_build_pickles_as_the_loop(name):
    records = [(o.id, o.st, o.end) for o in ascending_collections()[name]]
    for given in (records, shuffled(records, 5)):
        bulk, loop = Hint.build(given, num_bits=8), loop_hint(given)
        assert bulk.range_query(-(1 << 63), (1 << 63) - 1) == sorted(r[0] for r in records)
        if given is records:
            assert pickle.dumps(bulk) == pickle.dumps(loop)
        for q_st, q_end in [(-20, 20), (0, 10), (-(1 << 63), 0)]:
            assert bulk.range_query(q_st, q_end) == loop.range_query(q_st, q_end)


@pytest.mark.parametrize("tables", [False, True])
@pytest.mark.parametrize("key", KEYS)
def test_shuffled_ids_answer_explain_and_count_as_the_loop(key, tables, request):
    if tables:
        request.getfixturevalue("small_tables")
    objects = shuffled(random_objects(300, seed=21), seed=22)
    bulk = INDEX_CLASSES[key].build(objects)
    loop = loop_built(key, objects)
    queries = probe_queries(objects)
    assert answers(bulk, queries) == answers(loop, queries)
    if key != "brute":  # the oracle has no explainer
        for q in queries:
            if q.d:
                assert explain(bulk, q).phases == explain(loop, q).phases
    assert bulk.stats() == loop.stats()
    assert list(bulk.dictionary.items()) == list(loop.dictionary.items())


@pytest.mark.parametrize("tables", [False, True])
def test_sharding_builds_alike_in_any_order(tables, request):
    if tables:
        request.getfixturevalue("small_tables")
    objects = random_objects(300, seed=21)
    bulk = INDEX_CLASSES["tif-sharding"].build(shuffled(objects, seed=22), max_shards=4)
    ordered = INDEX_CLASSES["tif-sharding"].build(objects, max_shards=4)
    shards = {e: [list(shard.ids) for shard in s] for e, s in ordered._shards.items()}
    assert {e: [list(shard.ids) for shard in s] for e, s in bulk._shards.items()} == shards
    queries = probe_queries(objects)
    assert answers(bulk, queries) == answers(ordered, queries)
    assert answers(bulk, queries) == answers(INDEX_CLASSES["brute"].build(objects), queries)
    for q in queries:
        if q.d:
            assert explain(bulk, q).phases == explain(ordered, q).phases
            assert explain(bulk, q).detail == explain(ordered, q).detail
    assert bulk.stats() == ordered.stats()


# ----------------------------------------------------------- the loop's cases
@pytest.mark.parametrize(
    "odd", [2.5, 1 << 63, -(1 << 63) - 1], ids=["float", "above-i64", "below-i64"]
)
@pytest.mark.parametrize("key", BULK_KEYS + ["tif-sharding"])
def test_an_endpoint_no_slot_holds_takes_the_loop_and_spills(key, odd):
    objects = random_objects(80, seed=9)
    st, end = (odd, odd + 1) if odd > 0 else (odd, 0)
    objects.append(TemporalObject(id=500, st=st, end=end, d=frozenset({"e0", "odd"})))
    bulk = INDEX_CLASSES[key].build(objects)
    assert pickle.dumps(bulk) == pickle.dumps(loop_built(key, objects))
    queries = probe_queries(objects[:-1]) + [make_query(st, end, {"odd"})]
    assert answers(bulk, queries) == answers(INDEX_CLASSES["brute"].build(objects), queries)
    assert bulk.query(make_query(st, end, {"odd"})).tolist() == [500]
    if key == "tif":
        assert bulk.inverted_file.postings("odd").layout_epoch == 0
    elif key == "irhint-size":
        assert bulk.interval_hint._run.layout_epoch == 0
    elif key == "tif-slicing":
        assert all(not run.layout_epoch for run in bulk._sliced.lists["odd"].values())
    elif key == "tif-sharding":
        assert isinstance(bulk._shards["odd"][0].sts, list)
    else:
        assert bulk.hint_for("odd")._run.layout_epoch == 0


def test_hint_build_takes_the_loop_for_what_columns_cannot_hold():
    float_records = [(1, 0, 5), (2, 1.5, 3), (3, 2, 4)]
    bulk = Hint.build(float_records, num_bits=4)
    assert pickle.dumps(bulk) == pickle.dumps(loop_hint(float_records, 4))
    assert bulk._run.layout_epoch == 0
    # A repeated id: the last interval wins, as re-inserting a live id does.
    repeated = [(1, 0, 5), (2, 1, 3), (1, 7, 9)]
    bulk = Hint.build(repeated, num_bits=4)
    assert pickle.dumps(bulk) == pickle.dumps(loop_hint(repeated, 4))
    assert bulk._run.interval(1) == (7, 9)


@pytest.mark.parametrize("key", sorted(INDEX_CLASSES))  # every registry index, a plain list
def test_duplicate_ids_raise_the_loops_error(key):
    objects = random_objects(30, seed=12)
    objects.append(make_object(objects[4].id, 0, 1, {"e1"}))
    with pytest.raises(DuplicateObjectError, match=f"object id {objects[4].id}"):
        INDEX_CLASSES[key].build(objects)


# ------------------------------------------------------- updates after a load
@pytest.mark.parametrize("key", KEYS)
def test_updates_after_a_bulk_load_leave_the_loops_state(key, request):
    request.getfixturevalue("small_tables")
    objects = [o for o in random_objects(400, seed=31) if o.id % 3]  # gaps for mid-list ids
    bulk = INDEX_CLASSES[key].build(objects)
    loop = loop_built(key, objects)
    queries = probe_queries(objects)
    by_id = {o.id: o for o in objects}
    steps = [("insert", make_object(1_000, 5, 900, {"e0", "e1", "new"}))]  # append
    steps += [("insert", make_object(i, i, i + 40, {"e0", "e2"})) for i in (3, 99, 201)]  # mid-list
    steps += [("delete", i) for i in (1, 2, 4)]
    steps += [("insert", by_id[i]) for i in (1, 4)]  # revive the same interval
    # Tombstone most of e0's run: past half dead, the run compacts itself.
    steps += [("delete", o.id) for o in objects if "e0" in o.d and o.id not in (1, 2, 4)][:-5]
    for op, arg in steps:
        for index in (bulk, loop):
            getattr(index, op)(arg)
        if op == "delete" and arg % 17 == 0:
            assert answers(bulk, queries) == answers(loop, queries)
    assert pickle.dumps(bulk) == pickle.dumps(loop)
    assert answers(bulk, queries) == answers(loop, queries)
    assert bulk.stats() == loop.stats()


def test_a_bulk_build_draws_a_fresh_version():
    objects = random_objects(50, seed=1)
    first, second = build_index("tif", objects), build_index("tif", objects)
    assert first.version != second.version


# ------------------------------------------------------------------- memory
def test_build_transients_stay_small():
    """At the ledger's 2·10⁴ collection (``benchmarks.ledger.data``'s
    generator arguments), the build's traced peak stays within 1.6× what
    the finished index retains: the load sorts narrow codes and gathers
    a chunk of runs at a time, never the whole flattened collection."""
    collection = generate_synthetic(cardinality=20_000, dict_size=8_000, sigma=8_000_000.0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_index("irhint-perf", collection, **tuned("irhint-perf"))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == 20_000
    assert peak - before <= 1.6 * (retained - before)
