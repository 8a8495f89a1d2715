"""HINT: the hierarchical interval index and its building blocks."""

from repro.intervals.hint.cost_model import CostEstimate, choose_num_bits, estimate_cost, sweep_costs
from repro.intervals.hint.domain import DomainMapper
from repro.intervals.hint.index import Hint
from repro.intervals.hint.partition import Partition, SortPolicy, SubArray
from repro.intervals.hint.traversal import (
    Assignment,
    DivisionKind,
    TraversalStep,
    assign,
    iter_relevant_divisions,
    iter_relevant_partitions,
)

__all__ = [
    "Assignment",
    "CostEstimate",
    "DivisionKind",
    "DomainMapper",
    "Hint",
    "Partition",
    "SortPolicy",
    "SubArray",
    "TraversalStep",
    "assign",
    "choose_num_bits",
    "estimate_cost",
    "iter_relevant_divisions",
    "iter_relevant_partitions",
    "sweep_costs",
]
