"""``daemon-query``: the same queries through a ``serve-net`` child over TCP.

Index work is identical to ``index-query``, so the gap between the two
is ``server`` + ``service`` overhead.  The daemon is always a separate
process: on a thread of the generator the two share one GIL and the
result swings 2×.  ``setup_s`` is the daemon's cold start — process
spawn → snapshot load + WAL-tail replay → first ``ping`` — i.e. recovery
time.
"""

from __future__ import annotations

import os
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.collection import Collection
from repro.core.model import TimeTravelQuery
from repro.exec.executor import QueryExecutor
from repro.server import protocol
from repro.service.store import DurableIndexStore

from benchmarks.ledger import data, quiet
from benchmarks.ledger.spans import Ledger, median_us, self_us
from benchmarks.ledger.workload import Workload

TENANT = "docs"
#: Queries per pass, from the distribution ``index-query`` draws from.
N_QUERIES = 1_500
#: Un-checkpointed mutations the daemon replays on start (at most a tenth
#: of the collection).
WAL_TAIL = 2_000
#: Queries per ``batch`` request / executor batch in the traced run.
BATCH = 64
#: Objects inserted per pass of the traced ``server.insert`` rung.
N_INSERTS = 200

_LISTENING = re.compile(rb"# listening on [^\s:]+:(\d+)\n")


class DaemonChild:
    """One ``python -m repro serve-net`` subprocess, always reaped."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-net", str(root), "--port", "0",
             "--no-fsync", "--trace-seed", "0"],
            stdout=subprocess.PIPE, stderr=self._log, preexec_fn=data.die_with_parent,
        )
        self.pid = self.proc.pid
        try:
            self.port = self._await_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        seen = b""
        deadline = time.monotonic() + timeout
        while True:
            match = _LISTENING.search(seen)
            if match:
                return int(match.group(1))
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"serve-net child {self.pid} did not start listening "
                    f"(stdout so far: {seen!r}; stderr in {self._log.name})"
                )
            seen += chunk

    def cpu_ticks(self) -> int:
        """utime + stime of the child so far, in clock ticks."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def stop(self) -> None:
        """Drain (SIGTERM), escalate to SIGKILL, and wait until it is gone."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def query_frame(request_id: int, q: TimeTravelQuery) -> bytes:
    return protocol.encode_frame({
        "id": request_id, "verb": "query", "tenant": TENANT,
        "start": q.st, "end": q.end, "elements": sorted(q.d),
    })


def _ids_returned(result: Dict[str, object]) -> int:
    return len(result["ids"])  # type: ignore[arg-type]


class Wire:
    """Closed-loop load: one request in flight per connection, one thread."""

    def __init__(self) -> None:
        self.requests = 0
        self.shed = 0

    def roundtrips(
        self,
        socks: Sequence[socket.socket],
        frames: Sequence[bytes],
        size_of: Callable[[Dict[str, object]], int] = _ids_returned,
    ) -> quiet.Pass:
        """Send ``frames`` round-robin over ``socks``; one span per request.

        Frame ``i`` must carry request id ``i``.  A refused, failed or
        mismatched response records ``quiet.RAISED`` as its size.
        """
        n = len(frames)
        starts = [0] * n
        ends = [0] * n
        sizes = [quiet.RAISED] * n
        in_flight = [-1] * len(socks)
        clock = time.perf_counter_ns
        sent = 0
        begin = clock()
        for slot, sock in enumerate(socks):
            if sent < n:
                starts[sent] = clock()
                sock.sendall(frames[sent])
                in_flight[slot] = sent
                sent += 1
        done = 0
        while done < n:
            for slot, sock in enumerate(socks):
                i = in_flight[slot]
                if i < 0:
                    continue
                response = protocol.read_frame_sock(sock)
                ends[i] = clock()
                done += 1
                if response is not None and response.get("id") == i:
                    if response.get("ok"):
                        sizes[i] = size_of(response["result"])
                    elif response["error"]["code"] == protocol.E_OVERLOADED:
                        self.shed += 1
                if sent < n:
                    starts[sent] = clock()
                    sock.sendall(frames[sent])
                    in_flight[slot] = sent
                    sent += 1
                else:
                    in_flight[slot] = -1
        self.requests += n
        return quiet.Pass(begin, starts, ends, sizes)


class _OneConnection:
    """``query`` over the wire, for the validation pass."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def query(self, q: TimeTravelQuery) -> List[int]:
        self._sock.sendall(query_frame(0, q))
        response = protocol.read_frame_sock(self._sock)
        if response is None or not response.get("ok"):
            raise RuntimeError(f"daemon refused the query: {response}")
        return response["result"]["ids"]


class DaemonQuery(Workload):
    name = "daemon-query"
    pass_seconds = 0.5
    top_rung = "server.roundtrip"
    n_rungs = 7

    def prepare(self) -> None:
        self.queries = data.sample_queries(self.coll, self.cfg.seed, N_QUERIES)
        self.steps = [("query", q) for q in self.queries]
        self.frames = [query_frame(i, q) for i, q in enumerate(self.queries)]
        self.root = self.cfg.scratch / "tenants"
        objects = self.coll.objects()
        self.tail = min(WAL_TAIL, len(objects) // 10)
        # Snapshot of all but the newest objects, then those as a WAL tail
        # the daemon must replay on every start.
        with DurableIndexStore.open(
            self.root / TENANT, index_key=data.METHOD, index_params=data.PARAMS,
            wal_fsync=False,
        ) as store:
            store.bootstrap(Collection(objects[: -self.tail]), data.METHOD, **data.PARAMS)
            for obj in objects[-self.tail :]:
                store.insert(obj)
        self.child: Optional[DaemonChild] = None
        self.socks: List[socket.socket] = []
        self.wire = Wire()
        self.cpu_ticks = 0
        self.start_s = 0.0

    def set_up(self) -> None:
        started = time.perf_counter()
        self.child = DaemonChild(self.root, self.cfg.scratch / "daemon.stderr")
        print(f"#   daemon pid={self.child.pid}", flush=True)
        connections = min(os.cpu_count() or 1, 2)
        self.socks = [connect(self.child.port) for _ in range(connections)]
        self.socks[0].sendall(protocol.encode_frame({"id": 0, "verb": "ping"}))
        pong = protocol.read_frame_sock(self.socks[0])
        if pong is None or not pong.get("ok"):
            raise RuntimeError(f"daemon did not answer ping: {pong}")
        self.start_s = time.perf_counter() - started

    def tear_down(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []
        if self.child is not None:
            self.child.stop()
            self.child = None

    def target(self) -> object:
        return _OneConnection(self.socks[0])

    def run_pass(self) -> quiet.Pass:
        assert self.child is not None
        before = self.child.cpu_ticks()
        one = self.wire.roundtrips(self.socks, self.frames)
        self.cpu_ticks += self.child.cpu_ticks() - before
        return one

    def rss_mb(self) -> float:
        assert self.child is not None
        return quiet.vm_hwm_mb(self.child.pid)

    def notes(self) -> Dict[str, object]:
        return {
            "queries_per_pass": len(self.steps),
            "connections": len(self.socks),
            "wal_tail_mutations": self.tail,
            "shed": self.wire.shed,
        }

    # --------------------------------------------------------------- tracing
    def trace(self, ledger: Ledger, top: Sequence[quiet.Pass]) -> Dict[str, float]:
        assert self.child is not None
        top_requests, top_ticks = self.wire.requests, self.cpu_ticks
        one_conn = self.socks[:1]

        # service/indexes: the same tenant directory, recovered in-process.
        inproc = self.cfg.scratch / "inproc"
        shutil.copytree(self.root / TENANT, inproc)
        started = time.perf_counter()
        store = DurableIndexStore.open(inproc, wal_fsync=False)
        recover_s = time.perf_counter() - started
        try:
            index_rung = ledger.rung(
                "indexes.query", "service.query", data.bind(store.index, self.steps)
            )
            store_rung = ledger.rung(
                "service.query", "server.roundtrip.1conn", data.bind(store, self.steps)
            )
            wire_rung = ledger.rung(
                "server.roundtrip.1conn", None,
                run_pass=lambda: self.wire.roundtrips(one_conn, self.frames),
            )

            # exec: the batch path the daemon's batch verb should one day take.
            chunks = [self.queries[i : i + BATCH] for i in range(0, len(self.queries), BATCH)]
            executor = QueryExecutor(store, strategy="serial", cache_size=0)
            batch_rung = ledger.rung(
                "exec.batch", "server.batch", [(executor.run, chunk) for chunk in chunks]
            )
            cached = QueryExecutor(store, strategy="serial", cache_size=2 * len(self.queries))
            cached.run(self.queries)
            hit_rung = ledger.rung(
                "exec.cache_hit", "server.batch", [(cached.run, chunk) for chunk in chunks]
            )
            index_us = quiet.quiet_us(index_rung)
            batch_self = statistics.median(
                (batch_us - sum(index_us[i * BATCH : i * BATCH + len(chunk)])) / len(chunk)
                for i, (batch_us, chunk) in enumerate(zip(quiet.quiet_us(batch_rung), chunks))
            )
            cache_hit = statistics.median(
                hit_us / len(chunk)
                for hit_us, chunk in zip(quiet.quiet_us(hit_rung), chunks)
            )
        finally:
            store.close()

        # server: the batch verb, and a mutation round trip (undone per pass).
        batch_frames = [
            protocol.encode_frame({
                "id": i, "verb": "batch", "tenant": TENANT,
                "queries": [
                    {"start": q.st, "end": q.end, "elements": sorted(q.d)} for q in chunk
                ],
            })
            for i, chunk in enumerate(chunks)
        ]
        wire_batch = ledger.rung(
            "server.batch", None,
            run_pass=lambda: self.wire.roundtrips(
                one_conn, batch_frames, lambda result: len(result["results"])
            ),
        )
        batch_per_query = statistics.median(
            us / len(chunk) for us, chunk in zip(quiet.quiet_us(wire_batch), chunks)
        )
        first_id = len(self.coll) + 1
        extra = self.coll.objects()[:N_INSERTS]
        insert_frames = [
            protocol.encode_frame({
                "id": i, "verb": "insert", "tenant": TENANT, "object_id": first_id + i,
                "start": obj.st, "end": obj.end, "elements": sorted(obj.d),
            })
            for i, obj in enumerate(extra)
        ]
        delete_frames = [
            protocol.encode_frame({
                "id": i, "verb": "delete", "tenant": TENANT, "object_id": first_id + i,
            })
            for i in range(len(extra))
        ]

        def insert_pass() -> quiet.Pass:
            one = self.wire.roundtrips(one_conn, insert_frames, lambda result: quiet.NO_RESULT)
            self.wire.roundtrips(one_conn, delete_frames, lambda result: quiet.NO_RESULT)
            return one

        inserts = ledger.rung("server.insert", None, run_pass=insert_pass)

        # Exact counts: bytes on the wire per response, over one replay.
        response_bytes = 0
        for frame in self.frames:
            one_conn[0].sendall(frame)
            response_bytes += len(protocol.encode_frame(protocol.read_frame_sock(one_conn[0])))

        layers = {
            "indexes.query_us": median_us(index_rung),
            "service.query_self_us": self_us(store_rung, index_rung),
            "service.recover_s": recover_s,
            "exec.batch_self_us": batch_self,
            "exec.cache_hit_us": cache_hit,
            "server.start_s": self.start_s,
            "server.roundtrip_self_us": self_us(wire_rung, store_rung),
            "server.cpu_us_per_op": top_ticks / os.sysconf("SC_CLK_TCK") * 1e6 / top_requests,
            "server.bytes_per_response": response_bytes / len(self.frames),
            "server.batch_us_per_query": batch_per_query,
            "server.insert_roundtrip_us": median_us(inserts),
            "server.shed_ratio": self.wire.shed / self.wire.requests,
        }
        # Reconciliation: the rungs' self times must add up to the round
        # trip they were carved out of (medians of skewed gaps need not).
        explained = (
            layers["indexes.query_us"] + layers["service.query_self_us"]
            + layers["server.roundtrip_self_us"]
        )
        measured = median_us(wire_rung)
        residual = (explained - measured) / measured
        print(f"#   reconciliation: rungs explain {explained:.1f} us of the "
              f"{measured:.1f} us single-connection round trip "
              f"(residual {residual:+.1%}, limit 10%)")
        if abs(residual) > 0.10:
            print("#   WARNING: daemon-query rung self times do not reconcile")
        return layers

