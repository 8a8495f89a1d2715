"""Interval-index substrate: HINT, the 1D-grid layout, linear scan."""

from repro.intervals.base import IntervalIndex, IntervalRecord
from repro.intervals.grid1d import GridLayout
from repro.intervals.hint import DomainMapper, Hint
from repro.intervals.linear import LinearScan

__all__ = [
    "DomainMapper",
    "GridLayout",
    "Hint",
    "IntervalIndex",
    "IntervalRecord",
    "LinearScan",
]
