"""One run of one workload: groups of set-up → untimed pass → timed passes."""

from __future__ import annotations

import shutil
import time
from typing import Dict, Sequence, Tuple, Type

from benchmarks.ledger import data, quiet
from benchmarks.ledger.data import Config
from benchmarks.ledger.metrics import E2E_UNITS, LAYER_UNITS
from benchmarks.ledger.spans import Ledger
from benchmarks.ledger.wl_cold_tier import ColdTier
from benchmarks.ledger.wl_daemon_query import DaemonQuery
from benchmarks.ledger.wl_index_query import IndexQuery
from benchmarks.ledger.wl_live_ingest import LiveIngest
from benchmarks.ledger.workload import Workload

WORKLOAD_CLASSES: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (IndexQuery, DaemonQuery, ColdTier, LiveIngest)
}

#: Groups per untraced run: each is one set-up from scratch, one untimed
#: pass, then its share of the timed passes.  Spread over the run like
#: this, the set-ups do not all fall into one slow stretch of the box.
GROUPS = 4


def passes_per_group(workload: Workload, seconds: float) -> int:
    """``--seconds`` as a pass count: the same for slow and fast code."""
    return max(1, int(seconds / (GROUPS * workload.pass_seconds) + 0.5))


def run(cfg: Config) -> Dict[str, object]:
    """Measure one workload; returns the result object the run prints last."""
    pinned = quiet.claim_cpu()
    print(f"# {cfg.workload}: seed={cfg.seed} cardinality={cfg.cardinality} "
          f"trace={int(cfg.trace)} cpu={pinned if pinned is not None else 'unpinned'}")
    cfg.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_CLASSES[cfg.workload](cfg)
    try:
        workload.prepare()
        answers = data.in_child(
            data.reference_answers, cfg.cardinality, workload.baseline_size, workload.steps,
            cfg.seed,
        )
        if cfg.trace:
            metrics, tally = _traced(workload, cfg, answers)
            units = LAYER_UNITS
        else:
            metrics, tally = _end_to_end(workload, cfg, answers)
            units = E2E_UNITS
        for key, value in workload.notes().items():
            print(f"#   {key}: {value}")
    finally:
        workload.close()
        shutil.rmtree(cfg.scratch, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{cfg.workload}/{name} = {value:.6g} {units[name]}")
    print(f"{cfg.workload}: {tally.attempted} ops attempted, {tally.failed} failed")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }


class _Tally:
    """Ops attempted and failed: the validation pass plus every later pass."""

    def __init__(self, workload: Workload, attempted: int, failed: int) -> None:
        self._expected = workload.expected
        self.attempted = attempted
        self.failed = failed

    def count(self, one: quiet.Pass) -> quiet.Pass:
        self.attempted += len(one.sizes)
        self.failed += one.failed(self._expected)
        return one


def _set_up(workload: Workload) -> float:
    """Set the system up from scratch; seconds it took."""
    workload.ops = []  # bound methods of the system about to be torn down
    workload.tear_down()
    quiet.settle()
    started = time.perf_counter()
    workload.set_up()
    elapsed = time.perf_counter() - started
    workload.bind()
    return elapsed


def _end_to_end(
    workload: Workload, cfg: Config, answers: Sequence[data.Answer]
) -> Tuple[Dict[str, float], _Tally]:
    """The untraced run: ``GROUPS`` × (set-up, untimed pass, timed passes)."""
    stats = quiet.PassStats(workload.latency_class())
    setups = []
    for group in range(GROUPS):
        setups.append(_set_up(workload))
        if group == 0:
            tally = _Tally(workload, *workload.validate(answers))
        else:
            tally.count(workload.warm_up())
        quiet.settle()
        for _ in range(passes_per_group(workload, cfg.seconds)):
            stats.add(tally.count(workload.run_pass()))
        if group == 0:
            # One set-up and its passes: later set-ups start from a heap the
            # earlier ones fragmented, which is the benchmark's doing.
            rss_mb = workload.rss_mb()
    print(f"#   set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, values in stats.per_pass.items():
        print(f"#   per-pass {name}: {quiet.describe(values)}")
    metrics = stats.metrics()
    metrics["setup_s"] = min(setups)
    metrics["rss_mb"] = rss_mb
    return metrics, tally


def _traced(
    workload: Workload, cfg: Config, answers: Sequence[data.Answer]
) -> Tuple[Dict[str, float], _Tally]:
    """The traced run: the workload's own passes as the top rung, then the
    rungs below it, each replayed an equal share of the untraced pass count."""
    _set_up(workload)
    tally = _Tally(workload, *workload.validate(answers))
    quiet.settle()
    total = GROUPS * passes_per_group(workload, cfg.seconds)
    ledger = Ledger(max(4, total // (workload.n_rungs + 1)))
    top = [
        tally.count(one)
        for one in ledger.rung(workload.top_rung, None, run_pass=workload.run_pass)
    ]
    metrics = workload.trace(ledger, top)
    # Spans are recorded by the benchmark around every call in untraced
    # runs too (p50/p99 need them), so tracing costs the program nothing.
    metrics["trace.overhead_pct"] = 0.0
    path = cfg.scratch.parent / f"spans-{cfg.workload}.json"
    ledger.write(path)
    print(f"#   spans written to {path}")
    return metrics, tally
