"""Shared staircase partitioning helpers (repro.utils.partitioning)."""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.datasets.synthetic import generate_synthetic
from repro.indexes.tif_sharding import TIFSharding, _shards
from repro.utils.partitioning import (
    chain_break_positions,
    quantile_boundaries,
    staircase_chain_assignment,
    staircase_time_boundaries,
)


def naive_first_fit(ends: Sequence[int]) -> List[int]:
    """Linear-scan reference for the patience pass: the first existing
    chain whose last end is <= the entry's end takes it.  Chains are kept
    in creation order, which (for the staircase invariant) is strictly
    decreasing last-end order — exactly what the binary search assumes."""
    tops: List[int] = []
    out: List[int] = []
    for end in ends:
        for i, top in enumerate(tops):
            if top <= end:
                tops[i] = end
                out.append(i)
                break
        else:
            tops.append(end)
            out.append(len(tops) - 1)
    return out


@pytest.mark.parametrize("seed", [0, 7, 91])
def test_chain_assignment_matches_naive_reference(seed):
    rng = random.Random(seed)
    entries = sorted(
        (rng.randint(0, 500), rng.randint(0, 400)) for _ in range(300)
    )
    ends = [st + extra for st, extra in entries]
    assert staircase_chain_assignment(ends) == naive_first_fit(ends)


def test_chain_assignment_produces_staircases():
    rng = random.Random(3)
    entries = sorted((rng.randint(0, 99), rng.randint(0, 50)) for _ in range(200))
    ends = [st + extra for st, extra in entries]
    assignment = staircase_chain_assignment(ends)
    per_chain: dict = {}
    for end, chain in zip(ends, assignment):
        per_chain.setdefault(chain, []).append(end)
    for chain_ends in per_chain.values():
        assert chain_ends == sorted(chain_ends)  # the staircase property


def test_chain_indexes_are_dense_and_first_seen_ordered():
    assignment = staircase_chain_assignment([10, 5, 2, 7, 12, 1])
    seen: List[int] = []
    for chain in assignment:
        if chain not in seen:
            seen.append(chain)
    assert seen == sorted(seen) == list(range(max(assignment) + 1))


def test_tif_sharding_build_equivalent_after_hoist():
    """The hoisted helper must reproduce the index's previous greedy pass.

    ``_shards``, with nothing to merge, is compared entry-by-entry against
    the naive reference decomposition on a realistic synthetic postings
    shape.
    """
    rng = random.Random(2025)
    entries = sorted(
        (rng.randrange(10_000), rng.randint(0, 2_000), rng.randint(0, 900))
        for _ in range(500)
    )
    entries = [(oid, st, st + extra) for oid, st, extra in entries]
    entries.sort(key=lambda e: (e[1], e[0]))
    ids, sts, ends = (np.array(column, dtype=np.int64) for column in zip(*entries))
    shards = _shards(ids, sts, ends, max_shards=len(entries))
    reference = naive_first_fit([e[2] for e in entries])
    rebuilt = {}
    for (object_id, st, end), chain in zip(entries, reference):
        rebuilt.setdefault(chain, []).append((object_id, st, end))
    assert len(shards) == len(rebuilt)
    for chain, shard in enumerate(shards):
        assert list(zip(shard.ids, shard.sts, shard.ends)) == rebuilt[chain]


def test_tif_sharding_still_answers_correctly():
    collection = generate_synthetic(
        cardinality=120, domain_size=1_000, sigma=200.0, dict_size=12, seed=5
    )
    index = TIFSharding.build(collection, max_shards=4)
    from repro.queries.generator import QueryWorkload

    queries = QueryWorkload(collection, seed=9).mixed(25)
    assert index.validate_against(collection, queries) is None


def test_chain_break_positions():
    # ends: 10 opens chain 0; 5 opens chain 1; 7 fits chain 1; 2 opens chain 2.
    assignment = staircase_chain_assignment([10, 5, 7, 2])
    assert assignment == [0, 1, 1, 2]
    assert chain_break_positions(assignment) == [1, 3]


def test_quantile_boundaries_balanced():
    values = list(range(100))
    bounds = quantile_boundaries(values, 4)
    assert bounds == [25, 50, 75]
    assert quantile_boundaries(values, 1) == []
    assert quantile_boundaries([], 4) == []


def test_quantile_boundaries_collapse_duplicates():
    values = [1] * 50 + [2] * 50
    bounds = quantile_boundaries(values, 4)
    assert bounds == [2]  # only one distinct cut survives


def test_quantile_boundaries_rejects_bad_parts():
    with pytest.raises(ConfigurationError):
        quantile_boundaries([1, 2, 3], 0)


@pytest.mark.parametrize("n_parts", [2, 4, 8])
def test_staircase_time_boundaries_are_increasing_and_internal(n_parts):
    rng = random.Random(17)
    intervals = [
        (st, st + rng.choice([0, 1, 10, 100])) for st in
        (rng.randint(0, 5_000) for _ in range(400))
    ]
    bounds = staircase_time_boundaries(intervals, n_parts)
    assert len(bounds) <= n_parts - 1
    assert bounds == sorted(bounds)
    assert len(set(bounds)) == len(bounds)
    starts = sorted(st for st, _ in intervals)
    for b in bounds:
        assert starts[0] < b <= starts[-1]


def test_staircase_time_boundaries_keep_balance():
    """Snapping may move a cut, but every part must stay populated."""
    rng = random.Random(23)
    intervals = [(rng.randint(0, 10_000), 0) for _ in range(1_000)]
    intervals = [(st, st + rng.randint(0, 500)) for st, _ in intervals]
    bounds = staircase_time_boundaries(intervals, 4)
    assert bounds
    counts = [0] * (len(bounds) + 1)
    for st, _end in intervals:
        part = sum(1 for b in bounds if st >= b)
        counts[part] += 1
    assert min(counts) > 0
    assert max(counts) <= 2 * (len(intervals) // len(counts))


def test_staircase_time_boundaries_trivial_inputs():
    assert staircase_time_boundaries([], 4) == []
    assert staircase_time_boundaries([(5, 9)], 4) == []
    assert staircase_time_boundaries([(1, 2), (9, 12)], 1) == []
