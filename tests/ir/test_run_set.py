"""The run set: many packed runs pickled as a few contiguous columns.

``pack_runs``/``unpack_runs`` (:mod:`repro.ir.packed`) on their own, and
the HINT-first indexes that checkpoint their element → ``Hint`` map as one
run set (``tif-hint-binary``, ``tif-hint-merge``, ``irhint-perf``): every
run's physical slots, tombstones, dead count and layout epoch survive a
round trip, the bytes are a fixed point of load and dump, a bulk build and
the insert loop write the same bytes, and a loaded index keeps answering
as the oracle does under further updates.
"""

import pickle
import pickletools
import random
from array import array

import pytest

from repro.core.collection import Collection
from repro.core.model import make_object, make_query
from repro.indexes.persistence import dumps_index, loads_index
from repro.indexes.registry import INDEX_CLASSES, build_index
from repro.ir.packed import PackedPostingsList, pack_runs, unpack_runs

from tests.conftest import random_queries

KEYS = ("tif-hint-binary", "tif-hint-merge", "irhint-perf")


def slots(run):
    """Everything a run holds, slot for slot, and the column types."""
    return (
        type(run._ids), list(run._ids), list(run._sts), list(run._ends),
        bytes(run._alive), run._n_dead, run.layout_epoch,
    )


def run_of(entries):
    run = PackedPostingsList()
    for entry in entries:
        run.add(*entry)
    return run


def odd_runs():
    """An empty run, a tombstoned one, a revived one, one at epoch 3, one
    emptied by deletes, and a spilled one with a dead slot."""
    tombstoned = run_of((i, i, i + 5) for i in range(0, 40, 2))
    tombstoned.delete(4)
    tombstoned.delete(30)
    revived = run_of([(1, 0, 9), (2, 3, 4), (7, 1, 1)])
    revived.delete(2)
    revived.add(2, 3, 4)
    moved = run_of([(10, 0, 1), (30, 2, 3)])
    moved.add(20, 5, 6)  # mid-list: epoch 2
    moved.add(5, 0, 0)  # epoch 3
    emptied = run_of([(3, 0, 1), (4, 0, 1)])
    emptied.delete(3)
    emptied.delete(4)
    spilled = run_of([(1, 0, 5), (2, 0.5, 7.25), (9, -3, 1 << 70)])
    spilled.delete(1)
    return [PackedPostingsList(), tombstoned, revived, moved, emptied, spilled]


# ------------------------------------------------------------------ the codec
def test_unpack_gives_back_every_run_slot_for_slot():
    runs = odd_runs()
    assert [run.layout_epoch for run in runs] == [1, 1, 1, 3, 1, 0]
    state = pack_runs(runs)
    restored = unpack_runs(pickle.loads(pickle.dumps(state)))
    assert [slots(run) for run in restored] == [slots(run) for run in runs]
    # Only the runs with dead slots carry tombstone bytes.
    assert len(state[6]) == sum(run.physical_len() for run in runs if run._n_dead)
    assert pack_runs(restored) == state


def test_restored_runs_own_their_columns_and_keep_working():
    runs = odd_runs()
    restored = unpack_runs(pack_runs(runs))
    for before, after in zip(runs, restored):
        after.add(1_000, 0, 1)
        assert 1_000 not in before
        assert after.interval(1_000) == (0, 1)
    restored[1].add(4, 4, 9)  # a revive in a restored run
    assert restored[1].interval(4) == (4, 9) and restored[1]._n_dead == 1


def test_no_runs_is_an_empty_set():
    assert unpack_runs(pack_runs([])) == []


@pytest.mark.parametrize("field", [0, 3, 6])
def test_columns_that_disagree_with_the_lengths_raise(field):
    state = list(pack_runs(odd_runs()))
    state[field] = state[field] + bytes(8)
    with pytest.raises(ValueError):
        unpack_runs(tuple(state))


def test_a_missing_spilled_run_raises():
    state = list(pack_runs(odd_runs()))
    state[-1] = state[-1] + [([1], [0.5], [2.5])]
    with pytest.raises(ValueError, match="disagree"):
        unpack_runs(tuple(state))


# --------------------------------------------------------------- the indexes
def base_objects():
    """Id-ascending objects with gaps for mid-list ids; ``"solo"`` sits on
    three objects, so deleting them empties its run."""
    rng = random.Random(46)
    objects = []
    for i in range(1, 301):
        st = rng.randrange(0, 5_000)
        d = {f"e{rng.randrange(12)}" for _ in range(rng.randrange(1, 4))}
        if i in (30, 60, 90):
            d.add("solo")
        objects.append(make_object(3 * i, st, st + rng.randrange(0, 400), d))
    return objects


def churn(index):
    """Tombstones, a revive, mid-list inserts, an emptied run and a spilled
    (float) run, applied to ``index``; returns the ops for an oracle."""
    ops = [("delete", i) for i in (6, 9, 90, 300, 450)]
    ops += [("delete", i) for i in (180, 270)]  # "solo" is now empty
    held = {o.id: o for o in base_objects()}
    ops += [("insert", held[300])]  # revived with its own interval
    ops += [("insert", make_object(i, i, i + 50, {"e0", "e1"})) for i in (4, 151, 152)]  # mid-list
    ops += [("insert", make_object(2_000, 10.5, 99.25, {"e0", "spilled"}))]
    ops += [("insert", make_object(2_001, 1, 2, {"spilled"})), ("delete", 2_001)]
    for op, arg in ops:
        getattr(index, op)(arg)
    return ops


def loop_built(key, objects):
    index = INDEX_CLASSES[key]()
    for obj in objects:
        index.insert(obj)
    index._settle()
    return index


def runs_of(index):
    return {element: slots(hint._run) for element, hint in index._hints.items()}


def queries_for(objects):
    queries = random_queries(Collection(objects), 60, seed=46)
    queries += [make_query(0, 6_000, {"e0"}), make_query(10, 20, {"e0", "spilled"}),
                make_query(0, 6_000, {"solo"}), make_query(-1e30, 1e30, {"e1"})]
    return queries


@pytest.mark.parametrize("key", KEYS)
def test_a_churned_index_round_trips_its_runs(key):
    index = build_index(key, Collection(base_objects()))
    churn(index)
    runs = runs_of(index)
    assert runs["spilled"][-1] == 0 and runs["solo"][-2] == 3
    assert max(run[-1] for run in runs.values()) > 1  # a mid-list insert moved slots
    assert any(run[-2] for run in runs.values())  # tombstones
    blob = dumps_index(index)
    loaded = loads_index(blob)
    assert runs_of(loaded) == runs
    assert list(loaded._hints) == list(index._hints)
    assert dumps_index(loaded) == blob


@pytest.mark.parametrize("key", KEYS)
def test_the_snapshot_holds_no_hint_or_run_object(key):
    index = build_index(key, Collection(base_objects()))
    churn(index)
    blob = dumps_index(index)
    names = {
        arg for opcode, arg, _pos in pickletools.genops(blob[blob.index(b"\x80\x05"):])
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE")
    }
    assert "Hint" not in names and "PackedPostingsList" not in names


@pytest.mark.parametrize("key", KEYS)
def test_an_empty_index_round_trips(key):
    for index in (build_index(key, Collection([])), INDEX_CLASSES[key]()):
        blob = dumps_index(index)
        loaded = loads_index(blob)
        assert loaded._hints == {} and len(loaded) == 0
        assert dumps_index(loaded) == blob
        loaded.insert(make_object(1, 0, 5, {"a"}))
        assert loaded.query(make_query(0, 9, {"a"})).tolist() == [1]


@pytest.mark.parametrize("key", KEYS)
def test_bulk_and_loop_write_the_same_bytes(key):
    objects = base_objects()
    bulk = build_index(key, Collection(objects))
    loop = loop_built(key, objects)
    assert dumps_index(bulk) == dumps_index(loop)
    churn(bulk)
    churn(loop)
    assert dumps_index(bulk) == dumps_index(loop)


@pytest.mark.parametrize("key", KEYS)
def test_a_loaded_index_answers_as_the_oracle_under_updates(key):
    objects = base_objects()
    index = build_index(key, Collection(objects))
    oracle = build_index("brute", Collection(objects))
    churn(index)
    churn(oracle)
    loaded = loads_index(dumps_index(index))
    more = [("insert", make_object(5, 100, 200, {"e2", "solo"})),  # revives "solo"'s run
            ("insert", make_object(2_002, 7.75, 8, {"spilled", "e3"})),
            ("delete", 2_000), ("delete", 12), ("insert", make_object(7, 0, 1 << 62, {"e4"}))]
    more += [("delete", o.id) for o in objects if "e5" in o.d][:20]
    for op, arg in more:
        getattr(loaded, op)(arg)
        getattr(oracle, op)(arg)
    live = oracle.objects()
    for q in queries_for(live):
        assert loaded.query(q).tolist() == oracle.query(q).tolist(), q
    again = loads_index(dumps_index(loaded))
    for q in queries_for(live):
        assert again.query(q).tolist() == oracle.query(q).tolist(), q


def test_int64_columns_join_in_run_order():
    runs = [run_of([(1, 2, 3)]), run_of([(4, 5, 6), (7, 8, 9)])]
    state = pack_runs(runs)
    assert array("q", state[3]).tolist() == [1, 4, 7]
    assert array("q", state[0]).tolist() == [1, 2]
