"""Ablation — postings compression (the paper's §7 future-work direction).

Measures the scan/intersect overhead of gap+varint postings against raw
column postings, and records the space saved.  The paper deliberately runs
uncompressed; this bench quantifies what that choice costs/buys.
"""

import random

import pytest

from repro.ir.compressed import CompressedPostingsList, compression_ratio
from repro.ir.postings import PostingsList

N = 20_000


@pytest.fixture(scope="module")
def raw_postings():
    rng = random.Random(4)
    postings = PostingsList()
    for object_id in range(N):
        st = rng.randint(0, 10_000_000)
        postings.add(object_id, st, st + rng.randint(0, 100_000))
    return postings


@pytest.fixture(scope="module")
def compressed_postings(raw_postings):
    return CompressedPostingsList.from_postings(raw_postings)


def test_compression_saves_space(raw_postings, compressed_postings):
    assert compressed_postings.size_bytes() < raw_postings.size_bytes()
    assert compression_ratio(raw_postings) > 1.2


def test_scan_raw(benchmark, raw_postings):
    result = benchmark(raw_postings.overlapping_ids, 1_000_000, 1_500_000)
    assert result


def test_scan_compressed(benchmark, compressed_postings):
    result = benchmark(compressed_postings.overlapping_ids, 1_000_000, 1_500_000)
    assert result


PROBE = list(range(0, N, 7))


def test_intersect_raw(benchmark, raw_postings):
    assert benchmark(raw_postings.intersect_sorted, PROBE)


def test_intersect_compressed(benchmark, compressed_postings):
    assert benchmark(compressed_postings.intersect_sorted, PROBE)


def test_encode_cost(benchmark, raw_postings):
    compressed = benchmark(CompressedPostingsList.from_postings, raw_postings)
    assert len(compressed) == N
