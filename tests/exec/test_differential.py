"""Seeded randomized differential testing: every index vs BruteForce.

The harness interleaves queries, inserts and deletes — the workload an
execution layer that reorders, deduplicates and caches queries is most
likely to break — and cross-checks every answer against the
:class:`~repro.indexes.brute.BruteForce` oracle, on the direct
``index.query`` path, through a caching :class:`QueryExecutor`, and
against a 4-shard replicated :class:`~repro.cluster.TemporalCluster`
(scatter-gather, boundary dedup, per-shard cache invalidation).

Determinism: no wall-clock, no unseeded RNG.  Every trace derives from an
explicit integer seed; on a mismatch the failure message prints that seed
and the full operation trace up to (and including) the failing step, so
the run reproduces with::

    REPRO_DIFF_OPS=<n> pytest tests/exec/test_differential.py -k <key>

CI caps the per-trace operation budget with the ``REPRO_DIFF_OPS``
environment variable (see .github/workflows/ci.yml); the default budget
spreads 240+ interleavings across the seeds below for every registry key.
"""

from __future__ import annotations

import os
import random
from typing import List, Optional, Tuple

import pytest

from repro.core.collection import Collection
from repro.core.model import TemporalObject, TimeTravelQuery, make_object, make_query
from repro.datasets.synthetic import generate_synthetic
from repro.exec import QueryExecutor
from repro.indexes.brute import BruteForce
from repro.indexes.registry import INDEX_CLASSES, build_index

ALL_KEYS = sorted(INDEX_CLASSES)

#: Operations per (key, seed) trace; CI pins this via REPRO_DIFF_OPS.
N_OPS = int(os.environ.get("REPRO_DIFF_OPS", "120"))

#: Two independent traces per key — with N_OPS=120 that is 240 interleaved
#: operations per index, per executor mode.
SEEDS = (2025, 8061)

#: Element universe matching the synthetic generator's ``e<i>`` naming.
DICT_SIZE = 24

#: An element no object ever carries (exercises unknown-element queries).
UNKNOWN_ELEMENT = "never-indexed"

Op = Tuple  # ("query", q) | ("insert", obj) | ("delete", object_id)


def small_collection(seed: int) -> Collection:
    """A small synthetic base collection (repro.datasets.synthetic)."""
    return generate_synthetic(
        cardinality=48,
        domain_size=2_000,
        sigma=400.0,
        dict_size=DICT_SIZE,
        desc_size=3,
        seed=seed,
    )


def _random_query(rng: random.Random) -> TimeTravelQuery:
    st = rng.randint(-50, 2_050)
    extent = rng.choice([0, 0, 1, 5, 40, 200, 1_000])  # points are common
    roll = rng.random()
    if roll < 0.15:
        d: frozenset = frozenset()  # pure temporal
    elif roll < 0.25:
        d = frozenset({UNKNOWN_ELEMENT})
    else:
        k = rng.randint(1, 3)
        d = frozenset(f"e{rng.randrange(DICT_SIZE)}" for _ in range(k))
    return make_query(st, st + extent, d)


def _random_object(rng: random.Random, object_id: int) -> TemporalObject:
    st = rng.randint(0, 2_000)
    end = st + rng.choice([0, 1, 10, 100, 600])
    k = rng.randint(1, 4)
    d = frozenset(f"e{rng.randrange(DICT_SIZE)}" for _ in range(k))
    return make_object(object_id, st, end, d)


def make_trace(seed: int, n_ops: int, live: List[int], next_id: int) -> List[Op]:
    """A deterministic interleaving of queries, inserts and deletes."""
    rng = random.Random(seed * 7919 + 13)
    live = list(live)
    ops: List[Op] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("query", _random_query(rng)))
        elif roll < 0.80 or not live:
            ops.append(("insert", _random_object(rng, next_id)))
            live.append(next_id)
            next_id += 1
        else:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(("delete", victim))
    return ops


def format_trace(ops: List[Op]) -> str:
    lines = []
    for i, op in enumerate(ops):
        if op[0] == "query":
            q = op[1]
            lines.append(f"  {i:3d} query  [{q.st}, {q.end}] d={sorted(map(str, q.d))}")
        elif op[0] == "insert":
            o = op[1]
            lines.append(
                f"  {i:3d} insert id={o.id} [{o.st}, {o.end}] d={sorted(map(str, o.d))}"
            )
        else:
            lines.append(f"  {i:3d} delete id={op[1]}")
    return "\n".join(lines)


def run_differential(
    key: str,
    seed: int,
    executor_config: Optional[dict],
    n_ops: int = N_OPS,
) -> None:
    """Replay one trace against ``key`` and the oracle; fail on mismatch."""
    collection = small_collection(seed)
    index = build_index(key, collection)
    oracle = BruteForce.build(collection)
    executor = (
        QueryExecutor(index, **executor_config) if executor_config is not None else None
    )
    live = collection.ids()
    ops = make_trace(seed, n_ops, live, max(live) + 1 if live else 0)
    for step, op in enumerate(ops):
        if op[0] == "query":
            expected = oracle.query(op[1])
            got = executor.run_one(op[1]) if executor is not None else index.query(op[1])
            if got != expected:
                pytest.fail(
                    f"{key}: differential mismatch at step {step} "
                    f"(seed={seed}, n_ops={n_ops}, "
                    f"executor={executor_config!r}):\n"
                    f"  got      {got}\n"
                    f"  expected {expected}\n"
                    f"reproducing trace (base collection = "
                    f"small_collection({seed})):\n"
                    f"{format_trace(ops[: step + 1])}"
                )
        elif op[0] == "insert":
            index.insert(op[1])
            oracle.insert(op[1])
        else:
            index.delete(op[1])
            oracle.delete(op[1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", ALL_KEYS)
def test_differential_direct(key, seed):
    """Interleaved query/insert/delete: bare index vs the oracle."""
    run_differential(key, seed, executor_config=None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", ALL_KEYS)
def test_differential_with_executor_and_cache(key, seed):
    """Same traces through a caching executor: invalidation under fire.

    The cache is deliberately large enough to survive between mutations
    and small enough to evict — both the stale-entry and the LRU paths
    are continuously exercised.
    """
    run_differential(
        key, seed, executor_config={"cache_size": 8}
    )


def test_differential_batched():
    """Batched execution between mutation bursts.

    Batches carry duplicates (dedup path), run in locality-sorted order
    and fill a cache; the oracle answers each query individually in
    submission order.  Mutations between batches must invalidate the cache.
    """
    seed = 424242
    collection = small_collection(seed)
    index = build_index("irhint-perf", collection)
    oracle = BruteForce.build(collection)
    executor = QueryExecutor(index, cache_size=64)
    rng = random.Random(seed)
    live = collection.ids()
    next_id = max(live) + 1
    for round_number in range(4):
        batch = [_random_query(rng) for _ in range(20)]
        batch += [batch[i] for i in range(0, len(batch), 3)]  # duplicates
        expected = [oracle.query(q) for q in batch]
        got = executor.run(batch)
        assert got == expected, (
            f"round {round_number} (seed={seed}): "
            "batched answers diverge from oracle"
        )
        for _ in range(8):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                index.delete(victim)
                oracle.delete(victim)
            else:
                obj = _random_object(rng, next_id)
                next_id += 1
                live.append(obj.id)
                index.insert(obj)
                oracle.insert(obj)


#: Registry keys replayed against a shard cluster (≥ 3 index families).
CLUSTER_KEYS = ("brute", "tif-slicing", "irhint-perf")


def run_differential_cluster(
    key: str, seed: int, directory, n_ops: int = N_OPS
) -> None:
    """Replay one trace against a 4-shard cluster and the oracle.

    Same seeded interleavings as the single-index harness; answers must
    match the oracle *as sets and carry no duplicates* — an object that
    straddles a shard boundary is stored in several shards but must be
    returned exactly once.
    """
    from repro.cluster import TemporalCluster

    collection = small_collection(seed)
    oracle = BruteForce.build(collection)
    live = collection.ids()
    ops = make_trace(seed, n_ops, live, max(live) + 1 if live else 0)
    with TemporalCluster.create(
        directory,
        collection,
        index_key=key,
        n_shards=4,
        n_replicas=2,
        wal_fsync=False,
        cache_size=8,
    ) as cluster:
        for step, op in enumerate(ops):
            if op[0] == "query":
                expected = sorted(oracle.query(op[1]))
                got = cluster.query(op[1])
                if got != expected or len(got) != len(set(got)):
                    pytest.fail(
                        f"{key}: cluster differential mismatch at step {step} "
                        f"(seed={seed}, n_ops={n_ops}):\n"
                        f"  got      {got}\n"
                        f"  expected {expected}\n"
                        f"reproducing trace (base collection = "
                        f"small_collection({seed})):\n"
                        f"{format_trace(ops[: step + 1])}"
                    )
            elif op[0] == "insert":
                cluster.insert(op[1])
                oracle.insert(op[1])
            else:
                cluster.delete(op[1])
                oracle.delete(op[1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", CLUSTER_KEYS)
def test_differential_cluster(key, seed, tmp_path):
    """Interleaved query/insert/delete against a 4-shard replicated
    cluster: scatter-gather + dedup + per-shard cache invalidation vs the
    oracle, on the same traces the single-index harness replays."""
    run_differential_cluster(key, seed, tmp_path / "cluster")


#: Keys for the tiered leg: the default composite plus the pure tIF whose
#: postings the segment format mirrors block-for-block.
TIERED_KEYS = ("tif", "irhint-perf")

#: Re-freeze cadence for the tiered leg: every this many operations, all
#: hot shards but the newest demote to mmap'd segments.
TIER_EVERY = 20


def run_differential_tiered(
    key: str, seed: int, directory, n_ops: int = N_OPS
) -> None:
    """Replay one trace against a *mixed hot/cold* cluster and the oracle.

    Every :data:`TIER_EVERY` steps all hot shards but the newest demote
    to cold segments, so queries scatter across mmap'd and RAM-resident
    shards; inserts and deletes that land on a cold shard trigger the
    write-path promotion hook mid-trace.  Answers must stay bit-identical
    to the oracle through every tier flip.
    """
    from repro.cluster import TemporalCluster

    collection = small_collection(seed)
    oracle = BruteForce.build(collection)
    live = collection.ids()
    ops = make_trace(seed, n_ops, live, max(live) + 1 if live else 0)
    served_cold = False
    with TemporalCluster.create(
        directory,
        collection,
        index_key=key,
        n_shards=4,
        n_replicas=2,
        wal_fsync=False,
        cache_size=8,
    ) as cluster:
        for step, op in enumerate(ops):
            if step % TIER_EVERY == TIER_EVERY - 1:
                hot = [
                    shard_id
                    for shard_id in cluster.table.shard_ids()
                    if not cluster.tier_state.is_cold(shard_id)
                ]
                for shard_id in hot[:-1]:
                    cluster.demote(shard_id)
                served_cold = served_cold or bool(cluster.tier_state.cold)
            if op[0] == "query":
                expected = sorted(oracle.query(op[1]))
                got = cluster.query(op[1])
                if got != expected or len(got) != len(set(got)):
                    pytest.fail(
                        f"{key}: tiered differential mismatch at step {step} "
                        f"(seed={seed}, n_ops={n_ops}, cold="
                        f"{sorted(cluster.tier_state.cold)}):\n"
                        f"  got      {got}\n"
                        f"  expected {expected}\n"
                        f"reproducing trace (base collection = "
                        f"small_collection({seed})):\n"
                        f"{format_trace(ops[: step + 1])}"
                    )
            elif op[0] == "insert":
                cluster.insert(op[1])
                oracle.insert(op[1])
            else:
                cluster.delete(op[1])
                oracle.delete(op[1])
    assert served_cold, "the tiered trace never actually demoted a shard"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", TIERED_KEYS)
def test_differential_tiered_cluster(key, seed, tmp_path):
    """The cluster leg with the storage tier in the loop: periodic
    demotions freeze shards into mmap'd segments mid-trace, mutations
    promote them back, and every answer stays oracle-identical."""
    run_differential_tiered(key, seed, tmp_path / "cluster")


def test_trace_generation_is_deterministic():
    """Identical seeds yield identical traces — the reproducibility
    contract the failure message relies on."""
    a = make_trace(99, 40, [1, 2, 3], 4)
    b = make_trace(99, 40, [1, 2, 3], 4)
    assert a == b
    assert any(op[0] == "query" for op in a)
    assert any(op[0] == "insert" for op in a)


# ----------------------------------------------- postings backend legs
#: Postings-heavy registry keys replayed once per postings backend: the
#: whole tIF/irHINT family must answer identically whatever representation
#: stores its lists (see repro.ir.backends).
POSTINGS_BACKEND_KEYS = ("tif", "tif-slicing", "irhint-perf")


@pytest.mark.parametrize("backend", ["list", "packed", "compressed"])
@pytest.mark.parametrize("key", POSTINGS_BACKEND_KEYS)
def test_differential_postings_backends(key, backend, monkeypatch):
    """Interleaved query/insert/delete with the postings backend pinned
    via REPRO_POSTINGS_BACKEND: every backend, same answers."""
    from repro.ir.backends import POSTINGS_BACKEND_ENV

    monkeypatch.setenv(POSTINGS_BACKEND_ENV, backend)
    run_differential(key, SEEDS[0], executor_config=None)


# ----------------------------------------------------- network daemon leg
@pytest.fixture()
def lock_order_checked():
    """With ``REPRO_LOCKCHECK=1``, fail the daemon legs on a lock-ordering
    cycle or an await-while-holding-writer (see repro.analysis.lockcheck)."""
    from repro.analysis import lockcheck

    if not lockcheck.enabled_from_env():
        yield
        return
    checker = lockcheck.install()
    try:
        yield
    finally:
        lockcheck.uninstall()
        checker.assert_clean()


def test_differential_server_with_chaos(tmp_path, lock_order_checked):
    run_differential_server(tmp_path)


@pytest.mark.parametrize("backend", ["list", "compressed"])
def test_differential_server_postings_backends(
    backend, tmp_path, monkeypatch, lock_order_checked
):
    """The daemon answers bounded store reads on its event loop, so every
    backend's kernels run there: the chaos leg again, on each of the
    other postings backends (packed is the leg above)."""
    from repro.ir.backends import POSTINGS_BACKEND_ENV

    monkeypatch.setenv(POSTINGS_BACKEND_ENV, backend)
    run_differential_server(tmp_path)


def run_differential_server(tmp_path) -> None:
    """One seeded chaos interleaving replayed over the network daemon.

    The same trace generator drives the daemon through its bundled
    client while a seeded ``chaos_net_plan`` drops, delays and cuts
    frames at the daemon's transport boundaries.  The client's bounded
    retries plus at-least-once mutation resolution must keep every query
    answer byte-identical to the oracle — faults may cost latency, never
    correctness.
    """
    from repro.server import DaemonClient, ServerConfig, TenantRegistry
    from repro.server import start_daemon_thread
    from repro.service.faults import NetworkFaultInjector, chaos_net_plan
    from repro.service.store import DurableIndexStore
    from repro.utils.retry import RetryPolicy

    seed = SEEDS[0]
    fault_seed = int(os.environ.get("REPRO_FAULT_SEED", "20250806"))
    n_ops = min(N_OPS, 60)  # the network round-trips dominate; keep it tight

    collection = small_collection(seed)
    oracle = BruteForce.build(collection)
    root = tmp_path / "tenants"
    root.mkdir()
    store = DurableIndexStore.open(
        root / "docs", index_key="irhint-perf", wal_fsync=False
    )
    for obj in collection:
        store.insert(obj)
    store.close()

    live = collection.ids()
    ops = make_trace(seed, n_ops, live, max(live) + 1 if live else 0)
    injector = NetworkFaultInjector(
        chaos_net_plan(
            fault_seed, n_ops * 8, p_drop=0.03, p_delay=0.05, p_close=0.02,
            delay=0.02,
        )
    )
    registry = TenantRegistry.open_root(root, wal_fsync=False)
    handle = start_daemon_thread(
        registry, ServerConfig(max_inflight=2), net_faults=injector
    )
    try:
        with DaemonClient(
            "127.0.0.1",
            handle.port,
            timeout=0.75,
            retry=RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.1),
        ) as client:
            for step, op in enumerate(ops):
                if op[0] == "query":
                    q = op[1]
                    expected = sorted(oracle.query(q))
                    got = client.query("docs", q.st, q.end, sorted(map(str, q.d)))
                    if got["ids"] != expected:
                        pytest.fail(
                            f"server differential mismatch at step {step} "
                            f"(seed={seed}, fault_seed={fault_seed}, "
                            f"n_ops={n_ops}):\n"
                            f"  got      {got['ids']}\n"
                            f"  expected {expected}\n"
                            f"reproducing trace:\n{format_trace(ops[: step + 1])}"
                        )
                elif op[0] == "insert":
                    obj = op[1]
                    client.insert(
                        "docs", obj.id, obj.st, obj.end, sorted(map(str, obj.d))
                    )
                    oracle.insert(obj)
                else:
                    client.delete("docs", op[1])
                    oracle.delete(op[1])
        assert injector.actions_fired > 0, "chaos schedule never fired"
    finally:
        handle.stop(30)


# ------------------------------------------------- irHINT crossover legs
# ``irhint-perf`` scans a list flat below its crossover length and through
# a time-first table above it.  At the shipped crossover these collections
# never reach a table; forced down to 8 entries (tests/conftest.py,
# ``small_tables``) their longer lists do.  Both settings, every path.
@pytest.fixture(params=["shipped", "forced-to-8"])
def crossover(request):
    if request.param == "forced-to-8":
        request.getfixturevalue("small_tables")
    return request.param


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_irhint_crossover_direct(crossover, seed):
    run_differential("irhint-perf", seed, executor_config=None)


def test_differential_irhint_crossover_durable_store(crossover, tmp_path):
    """Through a durable store, checkpointed and reopened mid-trace: the
    recovered index carries no table and must rebuild what it needs."""
    from repro.indexes import timefirst
    from repro.service.store import DurableIndexStore

    seed = SEEDS[0]
    collection = small_collection(seed)
    oracle = BruteForce.build(collection)
    store = DurableIndexStore.open(tmp_path / "docs", index_key="irhint-perf", wal_fsync=False)
    for obj in collection:
        store.insert(obj)
    live = collection.ids()
    ops = make_trace(seed, N_OPS, live, max(live) + 1)
    tables_seen = 0
    for step, op in enumerate(ops):
        if step == N_OPS // 2:
            store.checkpoint()
        if step in (N_OPS // 2, 3 * N_OPS // 4):  # from the snapshot, then + WAL tail
            store.close()
            store = DurableIndexStore.open(tmp_path / "docs", index_key="irhint-perf", wal_fsync=False)
            assert store.index._tables == {}
        if op[0] == "query":
            assert store.query(op[1]) == oracle.query(op[1]), (
                f"durable-store differential mismatch at step {step} (seed={seed}, "
                f"crossover={crossover}):\n{format_trace(ops[: step + 1])}"
            )
            tables_seen += bool(store.index._tables)
        elif op[0] == "insert":
            store.insert(op[1])
            oracle.insert(op[1])
        else:
            store.delete(op[1])
            oracle.delete(op[1])
    store.close()
    assert bool(tables_seen) == (timefirst.TABLE_MIN == 8)


def test_differential_irhint_crossover_forced_through_the_daemon(
    small_tables, tmp_path, lock_order_checked
):
    run_differential_server(tmp_path)
