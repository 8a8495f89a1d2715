"""The process-wide metrics registry and the observability switchboard.

Design constraints, in order:

1. **Disabled must be (nearly) free.**  The default process state is a
   *disabled* registry; every instrumentation site guards on one attribute
   load (``OBS.active`` for the query path, ``registry.enabled`` inside
   instruments), so an uninstrumented-feeling fast path survives (the CI
   overhead smoke check asserts ≤ 10%).
2. **Tests must not share state.**  :func:`isolated_registry` installs a
   fresh enabled registry for the duration of a ``with`` block and restores
   the previous one afterwards — no test ever sees another test's counters.
3. **Metrics only.**  Tracing is request-scoped and lives in a context
   variable (:mod:`repro.obs.context`), so it never touches this process
   state; ``OBS.active`` is exactly "the installed registry is enabled".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, TypeVar, cast

from repro.core.errors import MetricError
from repro.obs.metrics import (
    DEFAULT_MAX_LABEL_SETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
)


#: An instrument bundle — whatever dataclass a ``bundle()`` factory builds.
B = TypeVar("B")


class MetricsRegistry:
    """Name → :class:`MetricFamily`; the unit of exposition and isolation."""

    def __init__(
        self,
        enabled: bool = True,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
    ) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._enabled = enabled
        self._max_label_sets = max_label_sets
        self._bundles: Dict[str, object] = {}

    # -------------------------------------------------------------- switching
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._set_enabled(True)

    def disable(self) -> None:
        """Turn the registry into a null sink (updates become no-ops)."""
        self._set_enabled(False)

    def _set_enabled(self, value: bool) -> None:
        self._enabled = value
        for family in self._families.values():
            family.enabled = value
        OBS.refresh()

    # ----------------------------------------------------------- registration
    def _family(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
        max_label_sets: Optional[int] = None,
        overflow: Optional[str] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if not family.compatible_with(type_, labels, buckets):
                raise MetricError(
                    f"metric {name!r} re-registered as {type_}{tuple(labels)}, "
                    f"but it exists as {family.type}{family.label_names}"
                )
            return family
        family = MetricFamily(
            name,
            type_,
            help_,
            labels,
            enabled=self._enabled,
            max_label_sets=(
                self._max_label_sets if max_label_sets is None else max_label_sets
            ),
            overflow=overflow,
            buckets=buckets,
        )
        self._families[name] = family
        return family

    def counter(
        self,
        name: str,
        help_: str,
        labels: Sequence[str] = (),
        *,
        max_label_sets: Optional[int] = None,
        overflow: Optional[str] = None,
    ) -> object:
        """Register (or fetch) a counter family; label-less → the counter."""
        family = self._family(
            name, "counter", help_, labels,
            max_label_sets=max_label_sets, overflow=overflow,
        )
        return family if labels else family.solo

    def gauge(
        self,
        name: str,
        help_: str,
        labels: Sequence[str] = (),
        *,
        max_label_sets: Optional[int] = None,
        overflow: Optional[str] = None,
    ) -> object:
        family = self._family(
            name, "gauge", help_, labels,
            max_label_sets=max_label_sets, overflow=overflow,
        )
        return family if labels else family.solo

    def histogram(
        self,
        name: str,
        help_: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        *,
        max_label_sets: Optional[int] = None,
        overflow: Optional[str] = None,
    ) -> object:
        family = self._family(
            name, "histogram", help_, labels, buckets=buckets,
            max_label_sets=max_label_sets, overflow=overflow,
        )
        return family if labels else family.solo

    def bundle(self, key: str, factory: Callable[["MetricsRegistry"], B]) -> B:
        """Memoised instrument bundles (one construction per registry).

        The cast is sound by construction: each key is only ever paired
        with one factory (the ``*_instruments`` accessors), so the cached
        object is always the type that factory returns.
        """
        bundle = self._bundles.get(key)
        if bundle is None:
            bundle = self._bundles[key] = factory(self)
        return cast(B, bundle)

    # -------------------------------------------------------------- inspection
    def families(self) -> Dict[str, MetricFamily]:
        """Name → family, in sorted-name order (the exposition order)."""
        return dict(sorted(self._families.items()))

    def sample_value(self, name: str, labels: Sequence[object] = ()) -> float:
        """The current value of one counter/gauge child (0.0 when absent).

        For histograms use :meth:`family` access; this helper exists for
        tests and for the bench runner's per-experiment snapshots.
        """
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children().get(tuple(str(v) for v in labels))
        if child is None:
            return 0.0
        if isinstance(child, (Counter, Gauge)):
            return child.value
        raise MetricError(f"{name}: sample_value reads counters/gauges only")

    def counter_snapshot(self) -> Dict[str, float]:
        """``name{a=b,...}`` → value for every counter child (delta math)."""
        out: Dict[str, float] = {}
        for name, family in self._families.items():
            if family.type != "counter":
                continue
            for key, child in family.children().items():
                if not isinstance(child, Counter):
                    continue  # unreachable for a counter family; typing proof
                label_text = ",".join(
                    f"{ln}={lv}" for ln, lv in zip(family.label_names, key)
                )
                out[f"{name}{{{label_text}}}"] = child.value
        return out


class ObservabilityState:
    """Mutable holder of the installed registry.

    ``active`` mirrors ``registry.enabled`` — the *single* attribute the
    hot query path reads.
    """

    __slots__ = ("registry", "active")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.active = registry.enabled

    def refresh(self) -> None:
        self.active = self.registry.enabled


#: The process-wide switchboard.  Starts with a *disabled* registry so the
#: library behaves exactly like an uninstrumented build until someone opts
#: in (``repro serve-net --metrics-file``, ``isolated_registry()``, …).
OBS = ObservabilityState(MetricsRegistry(enabled=False))


def get_registry() -> MetricsRegistry:
    """The currently installed process registry."""
    return OBS.registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process registry; returns the previous."""
    previous = OBS.registry
    OBS.registry = registry
    OBS.refresh()
    return previous


@contextmanager
def isolated_registry(enabled: bool = True) -> Iterator[MetricsRegistry]:
    """A fresh registry installed for the block, restored afterwards."""
    registry = MetricsRegistry(enabled=enabled)
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
