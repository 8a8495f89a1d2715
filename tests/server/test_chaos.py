"""Chaos suite: injected network faults, client kills, replica deaths.

The invariants under fire (the issue's acceptance bar):

* **No hangs** — every worker joins within its watchdog bound; every
  request ends in a result, a structured error, or a clean transport
  failure the client retries.
* **No corruption** — after the storm, each tenant directory recovers
  via the standard ladder and its contents match the acknowledged
  mutation history (at-least-once: an ack'd op's effect is present).
* **Correct degradation** — dead shards yield ``complete: false`` with
  per-shard detail, never an exception-shaped crash.

All schedules derive from ``REPRO_FAULT_SEED``, so a failure replays
bit-for-bit.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.model import make_query
from repro.server import ServerConfig, ServerError, TransportError, start_daemon_thread
from repro.service.faults import (
    NetworkFaultInjector,
    chaos_net_plan,
)
from repro.service.store import DurableIndexStore
from repro.utils.retry import RetryPolicy

from tests.server.conftest import FAULT_SEED, NO_RETRY, Watchdog, make_client

#: Generous retries so the pinned fault schedule cannot exhaust a client.
CHAOS_RETRY = RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.2)


class TestNetworkChaos:
    def test_chaos_plan_is_seed_deterministic(self):
        a = chaos_net_plan(FAULT_SEED, 200)
        b = chaos_net_plan(FAULT_SEED, 200)
        assert a.send_actions == b.send_actions
        assert a.recv_actions == b.recv_actions
        assert a.send_actions or a.recv_actions  # the storm is not empty

    def test_concurrent_clients_survive_injected_faults(self, registry, tenant_root):
        """4 workers × mixed ops under drop/delay/close; exact post-state."""
        injector = NetworkFaultInjector(
            chaos_net_plan(FAULT_SEED, 600, p_drop=0.04, p_delay=0.06, p_close=0.03)
        )
        handle = start_daemon_thread(
            registry, ServerConfig(max_inflight=4), net_faults=injector
        )
        acked = {}  # object_id -> "present" | "absent"
        unknown = set()  # ops that exhausted retries: state indeterminate
        lock = threading.Lock()
        watchdog = Watchdog()

        def worker(worker_id):
            base = 800_000 + worker_id * 1_000
            with make_client(handle, retry=CHAOS_RETRY, timeout=0.75) as c:
                for i in range(12):
                    object_id = base + i
                    st = 100 + worker_id * 10
                    try:
                        c.insert("docs", object_id, st, st + 5, ["chaos"])
                        with lock:
                            acked[object_id] = "present"
                    except (ServerError, TransportError):
                        with lock:
                            unknown.add(object_id)
                    if i % 3 == 0:
                        try:
                            result = c.query("docs", 0, 30_000, ["chaos"])
                            assert isinstance(result["ids"], np.ndarray)
                            assert isinstance(result["complete"], bool)
                        except (ServerError, TransportError):
                            pass  # structured failure is acceptable; hangs are not
                    if i % 4 == 3:
                        try:
                            c.delete("docs", object_id)
                            with lock:
                                if object_id not in unknown:
                                    acked[object_id] = "absent"
                        except (ServerError, TransportError):
                            with lock:
                                unknown.add(object_id)

        for w in range(4):
            watchdog.spawn(worker, w)
        watchdog.join_all(90)
        handle.stop(30)
        assert injector.actions_fired > 0, "the storm must actually fire"
        # Post-chaos: recover the tenant directory and audit every ack.
        store = DurableIndexStore.open(tenant_root / "docs", wal_fsync=False)
        try:
            recovered = set(store.query(make_query(0, 30_000, {"chaos"})))
            for object_id, expectation in acked.items():
                if object_id in unknown:
                    continue
                if expectation == "present":
                    assert object_id in recovered, (
                        f"ack'd insert {object_id} lost "
                        f"(seed={FAULT_SEED}) — durability broken"
                    )
                else:
                    assert object_id not in recovered, (
                        f"ack'd delete {object_id} still present "
                        f"(seed={FAULT_SEED})"
                    )
        finally:
            store.close()

    def test_abrupt_client_kills_leave_the_daemon_serving(self, daemon):
        """Half-frames, mid-frame cuts, unread responses: all shrugged off."""
        port = daemon.port
        for variant in range(8):
            sock = socket.create_connection(("127.0.0.1", port), timeout=5)
            try:
                if variant % 4 == 0:
                    sock.sendall(b"\x00")  # partial header, then die
                elif variant % 4 == 1:
                    sock.sendall(struct.pack("!I", 500) + b'{"id":')  # torn frame
                elif variant % 4 == 2:
                    from repro.server.protocol import write_frame_sock

                    # Full request, then vanish without reading the answer.
                    write_frame_sock(
                        sock,
                        {"id": 1, "verb": "query", "tenant": "docs",
                         "start": 0, "end": 100},
                    )
                # variant 3: connect and say nothing at all
            finally:
                sock.close()
        # The daemon still answers a well-behaved client afterwards.
        with make_client(daemon) as c:
            assert c.ping() == {"pong": True}
            assert c.query("docs", 0, 100)["complete"] is True


class TestReplicaChaos:
    def test_replica_deaths_mid_run_never_hang_and_degrade_correctly(
        self, daemon, registry
    ):
        cluster = registry.get("shards").handle
        shard_ids = [s.shard_id for s in cluster.table.shards]
        watchdog = Watchdog()
        outcomes = []
        lock = threading.Lock()
        stop = threading.Event()

        def querier():
            with make_client(daemon, retry=NO_RETRY, timeout=5.0) as c:
                while not stop.is_set():
                    result = c.query("shards", 0, 20_000, deadline_ms=3_000)
                    with lock:
                        outcomes.append(result["complete"])
                    time.sleep(0.01)

        def killer():
            time.sleep(0.05)
            # Degrade one shard completely; wound another.
            cluster.group.kill_replica(shard_ids[0], 0)
            cluster.group.kill_replica(shard_ids[0], 1)
            cluster.group.kill_replica(shard_ids[1], 0)
            time.sleep(0.2)
            stop.set()

        for _ in range(3):
            watchdog.spawn(querier)
        watchdog.spawn(killer)
        watchdog.join_all(60)
        assert outcomes, "queriers never completed a request"
        # After the kills, answers degrade to partial — but they *answer*.
        assert outcomes[-1] is False
        # And the degraded answer carries structured shard detail.
        with make_client(daemon, retry=NO_RETRY) as c:
            result = c.query("shards", 0, 20_000)
        error = result["shard_errors"][shard_ids[0]]
        assert error["code"] == "shard_unavailable"
        assert error["detail"]["replica_count"] == 2
        assert len(error["detail"]["failures"]) >= 1

    def test_revived_replicas_restore_complete_answers(self, daemon, registry):
        from repro.core.errors import ShardUnavailableError

        cluster = registry.get("shards").handle
        shard_id = cluster.table.shards[0].shard_id
        with make_client(daemon, retry=NO_RETRY) as c:
            cluster.group.kill_replica(shard_id, 0)
            assert c.query("shards", 0, 20_000)["complete"] is True  # failover
            cluster.group.revive_replica(shard_id, 0)  # rebuild from peer
            assert c.query("shards", 0, 20_000)["complete"] is True
            # Lose the whole shard: answers degrade but keep coming...
            cluster.group.kill_replica(shard_id, 0)
            cluster.group.kill_replica(shard_id, 1)
            assert c.query("shards", 0, 20_000)["complete"] is False
            # ...and a peerless revive refuses with the structured error.
            with pytest.raises(ShardUnavailableError):
                cluster.group.revive_replica(shard_id, 0)
            assert c.query("shards", 0, 20_000)["complete"] is False


class TestDrainUnderChaos:
    def test_drain_with_faults_still_exits_cleanly(self, registry):
        injector = NetworkFaultInjector(
            chaos_net_plan(FAULT_SEED + 1, 120, p_drop=0.05, p_delay=0.08, p_close=0.03)
        )
        handle = start_daemon_thread(
            registry, ServerConfig(max_inflight=4), net_faults=injector
        )
        watchdog = Watchdog()

        def worker(worker_id):
            with make_client(handle, retry=CHAOS_RETRY, timeout=0.75) as c:
                for i in range(6):
                    try:
                        c.query("docs", 0, 1_000)
                    except (ServerError, TransportError):
                        pass
                    time.sleep(0.02)

        for w in range(3):
            watchdog.spawn(worker, w)
        time.sleep(0.1)
        report = handle.stop(30)
        watchdog.join_all(60)
        assert report["abandoned"] == 0
