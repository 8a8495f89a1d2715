"""Query explanation: where does a time-travel IR query spend its work?

``explain(index, query)`` evaluates the query against a built index with a
:func:`repro.obs.tracing.query_trace` active, then renders the collected
trace as a :class:`QueryExplanation` — per-phase entries scanned, candidate
counts, structures touched, plus the method-specific ``detail`` keys
(relevant slices, impact-list skips, division counts, …).  It exists for
three reasons:

* **teaching** — the examples print explanations to make the IR-first vs
  time-first difference tangible;
* **verification** — tests assert the structural claims ("replicas are only
  read in the first relevant partition", "candidates shrink monotonically",
  "slicing reads fewer sub-lists than irHINT reads divisions");
* **tuning** — the per-phase counts show *why* a configuration is slow
  (e.g. an oversized ``m`` shows up as division count, not as a mystery).

Because the phases come from the *real* query paths (each index emits them
when a trace is active — see :mod:`repro.obs.tracing`), the numbers an
explanation reports and the numbers a live trace reports are the same
numbers by construction.  Explanations never mutate the index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Type

from repro.core.errors import ConfigurationError
from repro.core.model import TimeTravelQuery
from repro.indexes.base import TemporalIRIndex
from repro.indexes.irhint import IRHintPerformance, IRHintSize
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing
from repro.indexes.tif_sharding import TIFSharding
from repro.indexes.tif_slicing import TIFSlicing
from repro.obs.tracing import QueryTrace, query_trace


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


def explanation_from_trace(
    method: str, q: TimeTravelQuery, result_size: int, trace: QueryTrace
) -> QueryExplanation:
    """Wrap a collected :class:`QueryTrace` as a :class:`QueryExplanation`."""
    phases = [
        PhaseTrace(
            label=span.name,
            entries_scanned=int(span.count("entries_scanned")),
            candidates_after=int(span.count("candidates_after")),
            structures_touched=int(span.count("structures_touched")),
            seconds=span.seconds,
        )
        for span in trace.phases()
    ]
    detail = dict(trace.detail)
    seconds = float(detail.pop("query_seconds", 0.0))  # type: ignore[arg-type]
    return QueryExplanation(method, q, result_size, phases, detail, seconds)


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
    with query_trace() as trace:
        result = index.query(q)
    return explanation_from_trace(index.name, q, len(result), trace)
