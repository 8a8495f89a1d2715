"""Shared utilities: bit arithmetic, size accounting, retries, timing."""

from repro.utils.bitops import (
    domain_size,
    is_left_child,
    is_right_child,
    max_cell,
    min_bits_for,
    partition_of,
    partitions_per_level,
    prefix,
    validate_num_bits,
)
from repro.utils.retry import DEFAULT_POLICY, RetryPolicy, retry_call
from repro.utils.timing import (
    Stopwatch,
    ThroughputMeasurement,
    measure_query_throughput,
    throughput,
    time_call,
    timed,
)

__all__ = [
    "DEFAULT_POLICY",
    "RetryPolicy",
    "Stopwatch",
    "ThroughputMeasurement",
    "domain_size",
    "is_left_child",
    "is_right_child",
    "max_cell",
    "measure_query_throughput",
    "min_bits_for",
    "partition_of",
    "partitions_per_level",
    "prefix",
    "retry_call",
    "throughput",
    "time_call",
    "timed",
    "validate_num_bits",
]
