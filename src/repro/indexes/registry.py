"""Factory registry for the composite temporal-IR indexes.

The benchmark harness and the examples construct methods by name; the names
match the rows of the paper's Table 5.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.core.collection import Collection
from repro.core.errors import ConfigurationError
from repro.indexes.base import TemporalIRIndex
from repro.indexes.brute import BruteForce
from repro.indexes.irhint import IRHintPerformance, IRHintSize
from repro.indexes.tif import TIF
from repro.indexes.tif_hint import TIFHintBinary, TIFHintMerge
from repro.indexes.tif_hint_slicing import TIFHintSlicing
from repro.indexes.tif_sharding import TIFSharding
from repro.indexes.tif_slicing import TIFSlicing

#: Short, CLI-friendly keys → index classes.
INDEX_CLASSES: Dict[str, Type[TemporalIRIndex]] = {
    "brute": BruteForce,
    "tif": TIF,
    "tif-slicing": TIFSlicing,
    "tif-sharding": TIFSharding,
    "tif-hint-binary": TIFHintBinary,
    "tif-hint-merge": TIFHintMerge,
    "tif-hint-slicing": TIFHintSlicing,
    "irhint-perf": IRHintPerformance,
    "irhint-size": IRHintSize,
}

#: The methods compared in the paper's headline experiments (Fig. 11/12,
#: Tables 5-7), in the tables' row order.
PAPER_METHODS: List[str] = [
    "tif-slicing",
    "tif-sharding",
    "tif-hint-binary",
    "tif-hint-merge",
    "tif-hint-slicing",
    "irhint-perf",
    "irhint-size",
]

#: The five methods of the main comparison (Figure 11/12).
COMPARISON_METHODS: List[str] = [
    "tif-slicing",
    "tif-sharding",
    "tif-hint-slicing",
    "irhint-perf",
    "irhint-size",
]


def available_indexes() -> List[str]:
    """All registered index keys."""
    return sorted(INDEX_CLASSES)


def index_class(key: str) -> Type[TemporalIRIndex]:
    """Resolve a registry key to its class."""
    try:
        return INDEX_CLASSES[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown index {key!r}; available: {', '.join(available_indexes())}"
        ) from None


def build_index(key: str, collection: Collection, **params: object) -> TemporalIRIndex:
    """Build the index registered under ``key`` over ``collection``."""
    return index_class(key).build(collection, **params)


def register_index(
    key: str, cls: Type[TemporalIRIndex], *, override: bool = False
) -> None:
    """Register a custom index class (extension point).

    Re-registering an existing key raises :class:`ConfigurationError`
    unless ``override=True`` — the escape hatch tests and plugins use to
    install throwaway classes without tripping on a previous run's
    registration.  Pair with :func:`unregister_index` to restore the
    registry afterwards.
    """
    if key in INDEX_CLASSES and not override:
        raise ConfigurationError(
            f"index key {key!r} already registered "
            "(pass override=True to replace it)"
        )
    INDEX_CLASSES[key] = cls


def unregister_index(key: str) -> Type[TemporalIRIndex]:
    """Remove a registered index class; returns it (unknown keys raise)."""
    try:
        return INDEX_CLASSES.pop(key)
    except KeyError:
        raise ConfigurationError(
            f"unknown index {key!r}; available: {', '.join(available_indexes())}"
        ) from None
