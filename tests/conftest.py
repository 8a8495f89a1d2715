"""Shared fixtures: the paper's running example, randomized corpora, and
``serve-net`` children spawned through the CLI."""

from __future__ import annotations

import os
import random
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import pytest

from repro.core.collection import Collection
from repro.core.model import TemporalObject, make_object, make_query
from repro.indexes import timefirst


@pytest.fixture()
def running_example() -> Collection:
    """The paper's running example (Figure 1), on the 8-cell domain of m=3.

    Intervals are chosen to match the figure's layout; the paper's Example
    2.2 query — interval over the shaded area with ``q.d = {a, c}`` —
    answers ``{o2, o4, o7}``.
    """
    return Collection(
        [
            make_object(1, 5, 6, {"a", "b", "c"}),
            make_object(2, 2, 7, {"a", "c"}),
            make_object(3, 0, 1, {"b"}),
            make_object(4, 0, 7, {"a", "b", "c"}),
            make_object(5, 3, 5, {"b", "c"}),
            make_object(6, 1, 5, {"c"}),
            make_object(7, 1, 7, {"a", "c"}),
            make_object(8, 1, 2, {"c"}),
        ]
    )


@pytest.fixture()
def small_tables(monkeypatch):
    """irHINT-performance with its crossover forced down: every list of at
    least 8 entries gets a time-first table, so collections of a few
    hundred objects reach the table."""
    monkeypatch.setattr(timefirst, "TABLE_MIN", 8)


@pytest.fixture()
def example_query():
    """Example 2.2's query: overlaps cells [2, 4], asks for {a, c}."""
    return make_query(2, 4, {"a", "c"})


ELEMENTS = [f"e{i}" for i in range(40)]
WEIGHTS = [1.0 / (i + 1) for i in range(len(ELEMENTS))]


def random_objects(
    n: int,
    seed: int,
    domain: int = 20_000,
    max_duration: int = 2_000,
    max_elements: int = 6,
) -> List[TemporalObject]:
    """Reproducible random objects with zipf-ish element popularity."""
    rng = random.Random(seed)
    objects = []
    for i in range(n):
        st = rng.randint(0, domain)
        end = st + rng.randint(0, max_duration)
        k = rng.randint(1, max_elements)
        d = frozenset(rng.choices(ELEMENTS, weights=WEIGHTS, k=k))
        objects.append(TemporalObject(id=i, st=st, end=end, d=d))
    return objects


@pytest.fixture()
def random_collection() -> Collection:
    """500 random objects (fixed seed)."""
    return Collection(random_objects(500, seed=11))


def random_queries(collection: Collection, n: int, seed: int):
    """Random queries mixing extents and element counts (may be empty)."""
    rng = random.Random(seed)
    domain = collection.domain()
    span = domain.end - domain.st
    queries = []
    for _ in range(n):
        st = rng.randint(domain.st - span // 10, domain.end)
        extent = rng.randint(0, span // 2)
        k = rng.randint(0, 3)
        d = frozenset(rng.choices(ELEMENTS, weights=WEIGHTS, k=k))
        queries.append(make_query(st, st + extent, d))
    return queries


_SRC = Path(__file__).resolve().parents[1] / "src"
_LISTENING = re.compile(r"# listening on [^\s:]+:(\d+)\n")


class ServeNetChild:
    """One ``python -m repro serve-net ROOT --port 0 ...`` subprocess.

    ``port`` is parsed from its ``# listening on`` line; ``stdout`` holds
    what it printed so far (all of it once :meth:`stop` returns).
    """

    def __init__(self, root: Path, args: List[str], log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_SRC), env.get("PYTHONPATH")) if p
        )
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-net", str(root),
             "--port", "0", *args],
            stdout=subprocess.PIPE, stderr=self._log, env=env,
        )
        self.pid = self.proc.pid
        self.stdout = ""
        try:
            self.port = self._await_port(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while True:
            match = _LISTENING.search(self.stdout)
            if match:
                return int(match.group(1))
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic())
            )
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"serve-net child {self.pid} did not start listening "
                    f"(stdout so far: {self.stdout!r}; stderr in {self._log.name})"
                )
            self.stdout += chunk.decode()

    def stop(self) -> int:
        """Drain (SIGTERM), escalate to SIGKILL, wait until the PID is
        gone; the exit code."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.stdout += self.proc.stdout.read().decode()
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


@pytest.fixture()
def serve_net(tmp_path):
    """Spawn ``serve-net`` children with ``serve_net(root, *args)``; every
    child is reaped at teardown, whatever the test did."""
    children: List[ServeNetChild] = []

    def spawn(root: Path, *args: str) -> ServeNetChild:
        log_path = tmp_path / f"serve-net-{len(children)}.log"
        children.append(ServeNetChild(root, list(args), log_path))
        return children[-1]

    yield spawn
    for child in children:
        child.stop()
