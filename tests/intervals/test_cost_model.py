"""Tests for HINT's cost rule: one ``m`` per run, ``m = 0`` the flat scan."""

import random

import numpy as np
import pytest

from repro.intervals.hint import cost_model
from repro.intervals.hint.cost_model import choose_bits, estimate, prefers_flat, table_cost
from repro.intervals.hint.timefirst import TimeFirstTable
from repro.ir.packed import PackedPostingsList

N_LONG = 40_000


def make_columns(n=N_LONG, duration=50, domain=10_000_000, seed=1):
    """Starts spread over ``domain``, exponential durations of mean
    ``duration``, and a heavy tail of a twentieth as long as the domain."""
    rng = np.random.default_rng(seed)
    sts = rng.integers(0, domain, n)
    ends = sts + rng.exponential(duration, n).astype(np.int64)
    tail = rng.random(n) < 0.05
    ends[tail] += rng.integers(0, domain // 20, int(tail.sum()))
    return sts, ends


class TestEstimate:
    def test_empty_records(self):
        none = np.empty(0, dtype=np.int64)
        slices, rows = estimate(none, none, 5)
        assert not slices.any() and not rows.any()

    def test_reads_shrink_with_m_for_point_queries(self):
        _slices, rows = estimate(*make_columns(), 16)
        assert (np.diff(rows) < 0).all()

    def test_divisions_grow_with_m(self):
        slices, _rows = estimate(*make_columns(duration=20_000), 16)
        assert (np.diff(slices) >= 0).all() and slices[-1] > slices[0]

    def test_total_cost_includes_overheads(self):
        assert table_cost(10, 100) > cost_model.ROW_CHARGE * 100

    @pytest.mark.parametrize("duration", [50, 20_000, 400_000])
    def test_estimate_matches_the_walk(self, duration):
        """The expected rows and slices of a uniform stab, against what
        the table the walk builds reads at that ``m``."""
        sts, ends = make_columns(n=6_000, duration=duration)
        run = PackedPostingsList()
        for object_id, (st, end) in enumerate(zip(sts.tolist(), ends.tolist())):
            run.add(object_id, st, end)
        slices, rows = estimate(sts, ends, 10)
        rng = random.Random(3)
        stabs = [rng.randint(int(sts.min()), int(ends.max())) for _ in range(400)]
        for m in (2, 5, 8, 10):
            table = TimeFirstTable(run, m)
            read = [table.slices((x, x)) for x in stabs]
            mean_rows = np.mean([sum(stop - start for start, stop in b) for b in read])
            mean_slices = np.mean([len(b) for b in read])
            assert mean_rows == pytest.approx(rows[m - 1], rel=0.1), m
            assert abs(mean_slices - slices[m - 1]) < 2.0, m


class TestChoose:
    def test_empty_input(self):
        none = np.empty(0, dtype=np.int64)
        assert choose_bits(none, none, 16) == 0

    def test_returns_value_in_range(self):
        assert 1 <= choose_bits(*make_columns(), 12) <= 12
        assert choose_bits(*make_columns(), 3) == 3

    def test_impossible_cap_falls_back(self):
        """Cap 0 leaves one partition, which is the flat scan."""
        assert choose_bits(*make_columns(), 0) == 0

    def test_not_degenerate(self):
        """On realistic data the rule avoids both extremes."""
        assert 2 <= choose_bits(*make_columns(), 16) <= 14

    def test_short_runs_take_the_short_cut(self):
        """A run no longer than the per-query charge is flat without a
        look at its columns."""

        class Untouchable:
            def __len__(self):
                return int(cost_model.QUERY_CHARGE)

            def __getattr__(self, name):
                raise AssertionError(f"the short cut read the column ({name})")

        assert choose_bits(Untouchable(), Untouchable(), 16) == 0

    def test_no_table_pays_on_intervals_spanning_the_run(self):
        sts = np.zeros(N_LONG, dtype=np.int64)
        assert choose_bits(sts, sts + 1_000_000, 16) == 0

    def test_a_wide_read_prefers_the_flat_pass(self):
        n = N_LONG
        assert not prefers_flat(4, 10, n)
        assert prefers_flat(4, n, n)


class TestSweep:
    def test_sweep_length(self):
        slices, rows = estimate(*make_columns(), 8)
        assert len(slices) == len(rows) == 8
