"""HINT: the hierarchical interval index and its building blocks."""

from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.index import Hint
from repro.intervals.hint.timefirst import TimeFirstTable
from repro.intervals.hint.traversal import Assignment, assign

__all__ = [
    "Assignment",
    "DomainMapper",
    "Hint",
    "TimeFirstTable",
    "assign",
]
