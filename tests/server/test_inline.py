"""The inline/hop choice: which reads the daemon answers on its event loop.

A store read runs on the loop only when admission granted its slot
without queueing, the tenant's read lock was free without waiting, and
the index bounds its work within ``INLINE_BUDGET``; everything else hops
to the pool.  The pool is a counting stand-in, so each test sees exactly
how many requests hopped.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.collection import Collection
from repro.core.model import make_query
from repro.indexes.brute import BruteForce
from repro.server import ServerConfig
from repro.server.daemon import INLINE_BUDGET, QueryDaemon
from repro.utils.locks import AsyncRWLock

QUERY = {"verb": "query", "tenant": "docs", "start": 0, "end": 5_000, "elements": ["e0", "e3"]}


class CountingPool(ThreadPoolExecutor):
    def __init__(self) -> None:
        super().__init__(max_workers=2)
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


def serve(daemon: QueryDaemon, go):
    """Run ``go(pool)`` on a fresh loop with a counting pool installed."""
    pool = daemon._pool = CountingPool()

    async def main():
        return await go(pool)

    try:
        return asyncio.run(main())
    finally:
        pool.shutdown(wait=True)


def request(daemon: QueryDaemon, request_id: int = 1, **fields):
    return daemon._handle_request({"id": request_id, **QUERY, **fields})


def expected_ids(store_objects):
    oracle = BruteForce.build(Collection(store_objects))
    return sorted(oracle.query(make_query(0, 5_000, {"e0", "e3"})))


class TestInlineReads:
    def test_bounded_store_query_never_touches_the_pool(self, registry, store_objects):
        daemon = QueryDaemon(registry, ServerConfig(trace_sample_rate=1.0, trace_seed=1))
        q = make_query(0, 5_000, {"e0", "e3"})
        assert registry.get("docs").work_bound(q) <= INLINE_BUDGET

        async def go(pool):
            single = await request(daemon)
            batch = await daemon._handle_request(
                {"id": 2, "verb": "batch", "tenant": "docs", "queries": [QUERY, QUERY]}
            )
            return pool.submitted, single, batch

        submitted, single, batch = serve(daemon, go)
        assert submitted == 0
        assert single["result"]["ids"].tolist() == expected_ids(store_objects)
        assert [r["ids"].tolist() for r in batch["result"]["results"]] == [
            expected_ids(store_objects)
        ] * 2
        # The sampled trace keeps its shape, and says the read ran inline.
        doc = daemon.tracer.buffer.snapshot(10)[-1]
        spans = {s["name"]: s for s in doc["spans"]}
        assert {"admission", "tenant_lock", "execute", "store_query"} <= set(spans)
        assert spans["execute"]["attrs"]["inline"] is True
        assert spans["store_query"]["parent_id"] == spans["execute"]["span_id"]
        assert daemon._locks["docs"]._readers == 0  # the hold went back

    @pytest.mark.parametrize(
        "bound, hops",
        [(INLINE_BUDGET, 0), (INLINE_BUDGET + 1, 1), (None, 1)],
        ids=["at-budget", "over-budget", "unbounded"],
    )
    def test_over_budget_or_unbounded_reads_hop(self, registry, store_objects, bound, hops):
        registry.get("docs").work_bound = lambda q: bound
        daemon = QueryDaemon(registry, ServerConfig())

        async def go(pool):
            response = await request(daemon)
            return pool.submitted, response

        submitted, response = serve(daemon, go)
        assert submitted == hops
        assert response["result"]["ids"].tolist() == expected_ids(store_objects)

    def test_a_batch_is_bounded_by_the_sum_of_its_queries(self, registry):
        registry.get("docs").work_bound = lambda q: INLINE_BUDGET // 2 + 1
        daemon = QueryDaemon(registry, ServerConfig())

        async def go(pool):
            one = await daemon._handle_request(
                {"id": 1, "verb": "batch", "tenant": "docs", "queries": [QUERY]}
            )
            hopped_before = pool.submitted
            two = await daemon._handle_request(
                {"id": 2, "verb": "batch", "tenant": "docs", "queries": [QUERY, QUERY]}
            )
            return hopped_before, pool.submitted, one, two

        hopped_one, hopped_two, one, two = serve(daemon, go)
        assert (hopped_one, hopped_two) == (0, 1)
        assert one["ok"] and two["ok"]

    def test_cluster_reads_always_hop(self, registry):
        cluster = registry.get("shards")
        assert cluster.work_bound(make_query(0, 5_000, {"e0"})) is None
        daemon = QueryDaemon(registry, ServerConfig())

        async def go(pool):
            response = await request(daemon, tenant="shards")
            return pool.submitted, response

        submitted, response = serve(daemon, go)
        assert submitted == 1 and response["result"]["complete"] is True

    def test_a_read_that_queued_for_admission_hops(self, registry):
        daemon = QueryDaemon(registry, ServerConfig(max_inflight=1, max_queue=4))

        async def go(pool):
            assert await daemon._admit(time.monotonic() + 5.0) == "ok"  # occupant
            queued = asyncio.create_task(request(daemon))
            await asyncio.sleep(0.01)
            assert len(daemon._queue) == 1
            daemon._release_slot()  # hands the slot to the queued read
            response = await queued
            return pool.submitted, response

        submitted, response = serve(daemon, go)
        assert submitted == 1 and response["ok"] is True


class TestInlineKeepsTheGuarantees:
    def test_bounded_read_waits_behind_a_queued_writer_in_fifo_order(self, registry):
        daemon = QueryDaemon(registry, ServerConfig())
        tenant = registry.get("docs")
        order = []
        insert, query = tenant.insert, tenant.query_partial

        def logged_insert(obj):
            order.append("insert")
            insert(obj)

        def logged_query(q, deadline=None):
            order.append("query")
            return query(q, deadline)

        tenant.insert, tenant.query_partial = logged_insert, logged_query
        lock = daemon._locks["docs"] = AsyncRWLock("tenant:docs")

        async def go(pool):
            await lock.acquire_read()  # a long query already in flight
            write = asyncio.create_task(daemon._handle_request({
                "id": 1, "verb": "insert", "tenant": "docs", "object_id": 900_001,
                "start": 10, "end": 20, "elements": ["e0", "e3"],
            }))
            await asyncio.sleep(0.01)
            read = asyncio.create_task(request(daemon, 2, start=15, end=15))
            await asyncio.sleep(0.01)
            assert [w for w, _ in lock._waiters] == [True, False]
            assert order == []  # the read did not jump the queued writer
            lock.release_read()
            return await write, await read, pool.submitted

        wrote, read, submitted = serve(daemon, go)
        assert order == ["insert", "query"]
        assert wrote["ok"] and 900_001 in read["result"]["ids"]
        assert submitted == 2  # the write, and the read that had to wait

    @pytest.mark.parametrize("max_queue", [0, 1])
    def test_bounded_read_is_still_shed_when_slots_and_queue_are_full(
        self, registry, max_queue
    ):
        daemon = QueryDaemon(registry, ServerConfig(max_inflight=1, max_queue=max_queue))

        async def go(pool):
            deadline = time.monotonic() + 5.0
            assert await daemon._admit(deadline) == "ok"  # every slot busy
            parked = [asyncio.create_task(daemon._admit(deadline)) for _ in range(max_queue)]
            await asyncio.sleep(0.01)
            response = await request(daemon)
            for _ in range(max_queue + 1):
                daemon._release_slot()
            await asyncio.gather(*parked)
            return pool.submitted, response

        submitted, response = serve(daemon, go)
        assert submitted == 0
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["retry_after_ms"] > 0
