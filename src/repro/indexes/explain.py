"""Query explanation: where does a time-travel IR query spend its work?

``explain(index, query)`` evaluates the query against a built index inside
a sampled request trace of its own (:mod:`repro.obs.context`), then reads
that trace as a :class:`QueryExplanation` — per-phase entries scanned,
candidate counts, structures touched, plus the method-specific ``detail``
keys (relevant slices, impact-list skips, division counts, …).  It exists
for three reasons:

* **teaching** — the examples print explanations to make the IR-first vs
  time-first difference tangible;
* **verification** — tests assert the structural claims ("replicas are only
  read in the first relevant partition", "candidates shrink monotonically",
  "slicing reads fewer sub-lists than irHINT reads divisions");
* **tuning** — the per-phase counts show *why* a configuration is slow
  (e.g. an oversized ``m`` shows up as division count, not as a mystery).

The phases are the events the *real* query paths record whenever a sampled
request trace is active, and the detail keys are what those paths annotate
onto the innermost span.  A sampled daemon or cluster trace therefore
carries the same phases under its ``store_query`` / ``replica:<n>`` spans:
the numbers an explanation reports and the numbers a live trace reports are
the same numbers by construction.  The trace is held in a context variable,
so queries other threads run meanwhile never enter an explanation.
Explanations never mutate the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Type, cast

from repro.core.errors import ConfigurationError
from repro.core.model import TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.irhint import IRHintPerformance, IRHintSize
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing
from repro.indexes.tif_sharding import TIFSharding
from repro.indexes.tif_slicing import TIFSlicing
from repro.obs.context import Tracer


@dataclass
class PhaseTrace:
    """One evaluation phase (the first element, or one intersection)."""

    label: str
    entries_scanned: int = 0
    candidates_after: int = 0
    structures_touched: int = 0  # sub-lists / shards / divisions read
    seconds: float = 0.0  # wall-clock, when the phase was a timed span


@dataclass
class QueryExplanation:
    """The full trace of one query evaluation.

    Every explainable index emits at least one phase on every query path
    (including pure-temporal fallbacks and empty-index early returns), so a
    phaseless explanation indicates a broken emitter; the aggregate
    accessors refuse to hide that as a silent zero.
    """

    method: str
    query: TimeTravelQuery
    result_size: int
    phases: List[PhaseTrace] = field(default_factory=list)
    detail: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0  # whole-query wall-clock

    def _require_phases(self) -> List[PhaseTrace]:
        if not self.phases:
            raise ConfigurationError(
                f"explanation for {self.method!r} recorded no phases; the "
                "index's query path emitted no trace records"
            )
        return self.phases

    @property
    def total_entries_scanned(self) -> int:
        return sum(phase.entries_scanned for phase in self._require_phases())

    @property
    def total_structures_touched(self) -> int:
        return sum(phase.structures_touched for phase in self._require_phases())

    def candidate_trajectory(self) -> List[int]:
        """Candidate-set sizes after each phase (monotone non-increasing
        after the first phase for every correct method)."""
        return [phase.candidates_after for phase in self._require_phases()]

    def render(self) -> str:
        lines = [
            f"explain {self.method}: q=[{self.query.st}, {self.query.end}] "
            f"d={sorted(map(str, self.query.d))} → {self.result_size} results"
        ]
        for phase in self.phases:
            lines.append(
                f"  {phase.label:28s} scanned={phase.entries_scanned:<8d} "
                f"touched={phase.structures_touched:<5d} "
                f"candidates={phase.candidates_after}"
            )
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


#: Index types whose query paths emit trace phases.  BruteForce is absent by
#: design: a linear scan has no structure worth explaining.
_EXPLAINABLE: Set[Type[TemporalIRIndex]] = {
    TIF,
    TIFSlicing,
    TIFSharding,
    TIFHintBinary,
    TIFHintMerge,
    TIFHintSlicing,
    IRHintPerformance,
    IRHintSize,
}


def explain(index: TemporalIRIndex, q: TimeTravelQuery) -> QueryExplanation:
    """Trace one query against a built index (see module docstring)."""
    if type(index) not in _EXPLAINABLE:
        raise ConfigurationError(
            f"no explainer registered for {type(index).__name__}"
        )
    request = Tracer(sample_rate=1.0, capacity=1).begin(None, "explain")
    with request.activate():
        result = index.query(q)
    doc = request.finish()
    assert doc is not None  # a sampled trace is always kept
    root, *events = cast(List[Dict[str, Any]], doc["spans"])
    phases = [
        PhaseTrace(
            label=record["name"],
            entries_scanned=record["attrs"].get("entries_scanned", 0),
            candidates_after=record["attrs"].get("candidates_after", 0),
            structures_touched=record["attrs"].get("structures_touched", 0),
        )
        for record in events
    ]
    seconds = root["duration_ms"] / 1000.0
    return QueryExplanation(index.name, q, len(result), phases, root["attrs"], seconds)
