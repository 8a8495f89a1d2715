"""Every REP rule demonstrated to fire on a violation and pass on the fix.

Each case is a pair: a minimal fixture that trips the rule (asserting
the reported line) and the corrected form of the same code (asserting a
clean report).  Together they pin both halves of each rule's contract —
it catches the bug and it does not cry wolf.
"""

from __future__ import annotations

from repro.analysis.rules.rep001_async_blocking import AsyncBlockingRule
from repro.analysis.rules.rep002_wal_ack import WalAckRule
from repro.analysis.rules.rep003_fsync import FsyncDisciplineRule
from repro.analysis.rules.rep004_determinism import DeterminismRule
from repro.analysis.rules.rep005_protocol import ProtocolConformanceRule
from repro.analysis.rules.rep006_exceptions import ExceptionContractRule
from repro.analysis.rules.rep007_metrics import MetricHygieneRule

from tests.analysis.conftest import codes


# ----------------------------------------------------------------- REP001
class TestAsyncBlocking:
    def test_fires_on_sleep_in_async_def(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/h.py": """\
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
                """
            },
            rules=[AsyncBlockingRule],
        )
        assert codes(report) == ["REP001"]
        assert report.unsuppressed[0].line == 4
        assert "time.sleep" in report.unsuppressed[0].message

    def test_fires_on_blocking_io_and_retry(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/h.py": """\
                async def handle(path, policy):
                    data = open(path)
                    text = path.read_text()
                    retry_call(lambda: 1, policy=policy)
                    return data, text
                """
            },
            rules=[AsyncBlockingRule],
        )
        assert codes(report) == ["REP001", "REP001", "REP001"]

    def test_passes_sync_def_and_executor_closure(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/h.py": """\
                import asyncio
                import time

                def sync_worker(path):
                    time.sleep(0.1)
                    return open(path)

                async def handle(loop, pool, path):
                    def closure():
                        # runs on the executor pool, not the event loop
                        time.sleep(0.1)
                        return path.read_text()

                    await asyncio.sleep(0)
                    return await loop.run_in_executor(pool, closure)
                """
            },
            rules=[AsyncBlockingRule],
        )
        assert report.clean, report.render_text()


# ----------------------------------------------------------------- REP002
class TestWalAck:
    def test_fires_on_ack_without_mutation(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/handlers.py": """\
                def handle_insert(store, request):
                    return ok_response({"inserted": True, "id": request.id})
                """
            },
            rules=[WalAckRule],
        )
        assert codes(report) == ["REP002"]
        assert report.unsuppressed[0].line == 2

    def test_passes_with_store_mutation_before_ack(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/handlers.py": """\
                def handle_insert(store, request):
                    store.insert(request.obj)
                    return ok_response({"inserted": True})

                def handle_delete(store, request):
                    store.delete(request.object_id)
                    return ok_response({"deleted": True})

                async def handle_locked(self, request):
                    await self._run_locked(request.tenant, job, write=True)
                    return ok_response({"inserted": True})
                """
            },
            rules=[WalAckRule],
        )
        assert report.clean, report.render_text()

    def test_scoped_to_repro_server(self, run_analysis):
        report = run_analysis(
            {
                "repro/cluster/handlers.py": """\
                def handle_insert(store, request):
                    return ok_response({"inserted": True})
                """
            },
            rules=[WalAckRule],
        )
        assert report.clean

    def test_read_only_acks_are_exempt(self, run_analysis):
        report = run_analysis(
            {
                "repro/server/handlers.py": """\
                def handle_query(store, request):
                    return ok_response({"ids": store.query(request.q)})
                """
            },
            rules=[WalAckRule],
        )
        assert report.clean


# ----------------------------------------------------------------- REP003
class TestFsyncDiscipline:
    def test_fires_on_raw_write_open_in_service(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/blobs.py": """\
                def save(path, data):
                    with open(path, "wb") as handle:
                        handle.write(data)
                """
            },
            rules=[FsyncDisciplineRule],
        )
        assert codes(report) == ["REP003"]
        assert report.unsuppressed[0].line == 2

    def test_fires_on_dynamic_mode(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/blobs.py": """\
                def save(path, data, mode):
                    with open(path, mode) as handle:
                        handle.write(data)
                """
            },
            rules=[FsyncDisciplineRule],
        )
        assert codes(report) == ["REP003"]

    def test_passes_seam_reads_and_fsio_itself(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/blobs.py": """\
                def load(fs, path):
                    with fs.open(path, "rb") as handle:
                        return handle.read()

                def peek(path):
                    with open(path, "rb") as handle:
                        return handle.read(16)

                def save(fs, path, data):
                    with fs.open(path, "wb") as handle:
                        handle.write(data)
                """,
                "repro/service/fsio.py": """\
                def raw(path, data):
                    with open(path, "wb") as handle:
                        handle.write(data)
                """,
            },
            rules=[FsyncDisciplineRule],
        )
        assert report.clean, report.render_text()

    def test_fires_in_cluster_and_index_persistence(self, run_analysis):
        raw_write = """\
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """
        report = run_analysis(
            {
                "repro/cluster/manifest.py": raw_write,
                "repro/indexes/persistence.py": raw_write,
                "repro/indexes/explain.py": raw_write,
            },
            rules=[FsyncDisciplineRule],
        )
        assert sorted(f.path.rsplit("/", 1)[-1] for f in report.unsuppressed) == [
            "manifest.py",
            "persistence.py",
        ]

    def test_scoped_to_repro_service(self, run_analysis):
        report = run_analysis(
            {
                "repro/bench/out.py": """\
                def dump(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """
            },
            rules=[FsyncDisciplineRule],
        )
        assert report.clean


# ----------------------------------------------------------------- REP004
class TestDeterminism:
    def test_fires_on_wall_clock_and_global_rng(self, run_analysis):
        report = run_analysis(
            {
                "repro/core/ops.py": """\
                import random
                import time

                def stamp():
                    return time.time()

                def pick(items):
                    return random.choice(items)

                def fresh_rng():
                    return random.Random()
                """
            },
            rules=[DeterminismRule],
        )
        assert codes(report) == ["REP004", "REP004", "REP004"]
        lines = [f.line for f in report.unsuppressed]
        assert lines == [5, 8, 11]

    def test_passes_monotonic_and_injected_rng(self, run_analysis):
        report = run_analysis(
            {
                "repro/core/ops.py": """\
                import random
                import time

                def elapsed(t0):
                    return time.monotonic() - t0

                def pick(rng, items):
                    return rng.choice(items)

                def seeded(seed):
                    return random.Random(seed)
                """
            },
            rules=[DeterminismRule],
        )
        assert report.clean, report.render_text()

    def test_obs_and_bench_are_out_of_scope(self, run_analysis):
        report = run_analysis(
            {
                "repro/obs/clock.py": "import time\n\n\ndef now():\n    return time.time()\n",
                "repro/bench/run.py": "import time\n\n\ndef now():\n    return time.time()\n",
            },
            rules=[DeterminismRule],
        )
        assert report.clean


# ----------------------------------------------------------------- REP005
_BASE = """\
import abc


class TemporalIRIndex(abc.ABC):
    @abc.abstractmethod
    def _insert_impl(self, obj):
        ...

    @abc.abstractmethod
    def _query_impl(self, q):
        ...
"""


class TestProtocolConformance:
    def test_fires_on_missing_override(self, run_analysis):
        report = run_analysis(
            {
                "repro/indexes/base.py": _BASE,
                "repro/indexes/impls.py": """\
                from repro.indexes.base import TemporalIRIndex


                class BadIndex(TemporalIRIndex):
                    def _insert_impl(self, obj):
                        return obj
                """,
                "repro/indexes/registry.py": 'INDEX_CLASSES = {"bad": BadIndex}\n',
            },
            rules=[ProtocolConformanceRule],
        )
        assert codes(report) == ["REP005"]
        finding = report.unsuppressed[0]
        assert "_query_impl" in finding.message
        assert finding.path.endswith("registry.py")

    def test_fires_on_signature_drift(self, run_analysis):
        report = run_analysis(
            {
                "repro/indexes/base.py": _BASE,
                "repro/indexes/impls.py": """\
                from repro.indexes.base import TemporalIRIndex


                class DriftIndex(TemporalIRIndex):
                    def _insert_impl(self, obj, extra):
                        return obj

                    def _query_impl(self, q):
                        return []
                """,
                "repro/indexes/registry.py": 'INDEX_CLASSES = {"drift": DriftIndex}\n',
            },
            rules=[ProtocolConformanceRule],
        )
        assert codes(report) == ["REP005"]
        finding = report.unsuppressed[0]
        assert "_insert_impl" in finding.message
        assert finding.path.endswith("impls.py")

    def test_fires_on_unknown_registered_class(self, run_analysis):
        report = run_analysis(
            {
                "repro/indexes/base.py": _BASE,
                "repro/indexes/registry.py": 'INDEX_CLASSES = {"ghost": GhostIndex}\n',
            },
            rules=[ProtocolConformanceRule],
        )
        assert codes(report) == ["REP005"]
        assert "not a statically visible class" in report.unsuppressed[0].message

    def test_passes_full_surface_including_inherited(self, run_analysis):
        report = run_analysis(
            {
                "repro/indexes/base.py": _BASE,
                "repro/indexes/impls.py": """\
                from repro.indexes.base import TemporalIRIndex


                class Mixin:
                    def _query_impl(self, q):
                        return []


                class GoodIndex(Mixin, TemporalIRIndex):
                    def _insert_impl(self, obj):
                        return obj
                """,
                "repro/indexes/registry.py": 'INDEX_CLASSES = {"good": GoodIndex}\n',
            },
            rules=[ProtocolConformanceRule],
        )
        assert report.clean, report.render_text()


# ----------------------------------------------------------------- REP006
class TestExceptionContract:
    def test_fires_on_silent_broad_catch(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/w.py": """\
                def run(job):
                    try:
                        job()
                    except Exception:
                        pass
                """
            },
            rules=[ExceptionContractRule],
        )
        assert codes(report) == ["REP006"]
        assert report.unsuppressed[0].line == 4

    def test_fires_on_bare_except(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/w.py": """\
                def run(job):
                    try:
                        job()
                    except:
                        return None
                """
            },
            rules=[ExceptionContractRule],
        )
        assert codes(report) == ["REP006"]

    def test_passes_raise_use_and_logging(self, run_analysis):
        report = run_analysis(
            {
                "repro/service/w.py": """\
                def reraise(job):
                    try:
                        job()
                    except Exception:
                        raise

                def rebrand(job):
                    try:
                        job()
                    except Exception as exc:
                        return {"error": str(exc)}

                def logged(job, log):
                    try:
                        job()
                    except Exception:
                        log.warning("job failed")

                def narrow(job):
                    try:
                        job()
                    except ValueError:
                        pass
                """
            },
            rules=[ExceptionContractRule],
        )
        assert report.clean, report.render_text()


# ----------------------------------------------------------------- REP007
class TestMetricHygiene:
    def test_fires_on_tenant_label_without_overflow(self, run_analysis):
        report = run_analysis(
            {
                "repro/obs/inst.py": """\
                def build(registry):
                    return registry.counter(
                        "repro_queries_total", "queries served", ("tenant",)
                    )
                """
            },
            rules=[MetricHygieneRule],
        )
        assert codes(report) == ["REP007"]
        assert "repro_queries_total" in report.unsuppressed[0].message

    def test_passes_overflow_and_bounded_labels(self, run_analysis):
        report = run_analysis(
            {
                "repro/obs/inst.py": """\
                def build(registry):
                    with_overflow = registry.counter(
                        "repro_queries_total",
                        "queries served",
                        ("tenant",),
                        overflow="tenant",
                    )
                    bounded = registry.histogram(
                        "repro_latency_seconds", "latency", ("verb",)
                    )
                    foreign = registry.gauge("other_thing", "not ours", ("tenant",))
                    return with_overflow, bounded, foreign
                """
            },
            rules=[MetricHygieneRule],
        )
        assert report.clean, report.render_text()
