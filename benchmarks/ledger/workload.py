"""What the runner needs from a workload; the four live in ``wl_*.py``."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger import data, quiet
from benchmarks.ledger.spans import Ledger


def overlapping_ids(args):
    """``postings.overlapping_ids(q_st, q_end)`` as a one-argument op."""
    postings, q_st, q_end = args
    return postings.overlapping_ids(q_st, q_end)


class Workload:
    """One system under test driven by one seeded op list.

    Life cycle, in runner order: ``prepare`` (untimed, once) → groups of
    ``set_up`` (timed, from scratch) → ``bind`` → ``validate`` (first
    group) or ``warm_up`` → ``run_pass`` × K → ``tear_down``.  A traced
    run has one group and calls ``trace`` in place of the timed passes.
    """

    name: str
    #: What one pass takes on the reference box, rounded: turns
    #: ``--seconds`` into a pass count (README, "Protocol").
    pass_seconds: float
    #: What ``run_pass`` calls into: the name of the traced run's top rung.
    top_rung: str
    #: Rungs ``trace`` replays below it (each gets an equal share of the passes).
    n_rungs: int

    def __init__(self, cfg: data.Config) -> None:
        self.cfg = cfg
        self.coll = data.collection(cfg.cardinality)
        #: The system holds the first this many objects before the first step.
        self.baseline_size = len(self.coll)
        #: The op list; filled by ``prepare``.
        self.steps: List[data.Step] = []
        #: Expected result size per step; filled by ``validate``.
        self.expected: List[int] = []
        self.ops: List[quiet.Op] = []

    # ------------------------------------------------------------ life cycle
    def prepare(self) -> None:
        raise NotImplementedError

    def set_up(self) -> None:
        raise NotImplementedError

    def tear_down(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.tear_down()

    # ------------------------------------------------------------- measuring
    def target(self) -> object:
        """The object whose ``query``/``insert``/``delete`` the steps call."""
        raise NotImplementedError

    def bind(self) -> None:
        """Point the op list at the system ``set_up`` just made."""
        self.ops = data.bind(self.target(), self.steps)

    def validate(self, answers: Sequence[data.Answer]) -> Tuple[int, int]:
        """Run the validation pass; ``(attempted, failed)``."""
        self.expected, failed = data.check_answers(self.target(), self.steps, answers)
        return len(self.steps), failed

    def run_pass(self) -> quiet.Pass:
        return quiet.replay(self.ops)

    def warm_up(self) -> quiet.Pass:
        """The untimed pass after a repeated ``set_up`` (sizes still checked)."""
        return self.run_pass()

    def latency_class(self) -> Optional[Sequence[bool]]:
        """Which steps ``p50_us``/``p99_us`` describe (``None`` = all)."""
        return None

    def rss_mb(self) -> float:
        """Peak RSS of the process hosting the system under test."""
        return quiet.vm_hwm_mb()

    def notes(self) -> Dict[str, object]:
        """Facts about the run worth printing beside the metrics."""
        return {}

    # --------------------------------------------------------------- tracing
    def trace(self, ledger: Ledger, top: Sequence[quiet.Pass]) -> Dict[str, float]:
        """Replay the rungs below ``top`` (the passes of ``run_pass`` itself);
        returns this workload's per-layer metrics."""
        raise NotImplementedError
