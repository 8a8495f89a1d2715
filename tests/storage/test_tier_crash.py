"""Crash injection at every fsio boundary of demote and promote.

The tier-state file is the single commit point.  Whatever boundary the
fault tears — the segment's payload write, its fsync, the rename that
installs it, the tier-state write or rename, any replica build write on
the way back up — reopening the cluster must find the shard servable
from **exactly one tier**, answering bit-identically to the pre-crash
baseline.
"""

import contextlib
import shutil

import pytest

from repro.cluster import TemporalCluster, layout
from repro.core.collection import Collection
from repro.indexes.registry import build_index
from repro.service.faults import FaultPlan, FaultyFileSystem, SimulatedCrash
from repro.storage import tiering

from tests.conftest import random_objects, random_queries

N_SHARDS = 3


def _build(directory):
    collection = Collection(random_objects(250, seed=51))
    TemporalCluster.create(
        directory, collection, index_key="tif",
        n_shards=N_SHARDS, n_replicas=2, wal_fsync=False,
    ).close()
    oracle = build_index("brute", collection)
    queries = random_queries(collection, 30, seed=52)
    return queries, [sorted(oracle.query(q)) for q in queries]


def _table(directory):
    generation = int(layout.read_manifest(directory)["generation"])
    return layout.read_routing_table(directory, generation)


def _shard_id(directory):
    return _table(directory).shard_ids()[0]


def _assert_recovered(directory, queries, baseline, *, cold):
    """Reopen clean and check the one-tier invariant plus every answer."""
    shard_id = _shard_id(directory)
    with TemporalCluster.open(directory, wal_fsync=False) as cluster:
        assert cluster.tier_state.is_cold(shard_id) is cold
        assert [cluster.query(q).tolist() for q in queries] == baseline
        tiers = {s["shard_id"]: s["tier"] for s in cluster.tier_status()}
        assert tiers[shard_id] == ("cold" if cold else "hot")
    # Disk agrees with the committed tier: no file serves the other one.
    segment = layout.segment_path(directory, shard_id)
    shard_dir = layout.shard_dir(directory, shard_id)
    if cold:
        assert segment.is_file()
        assert not shard_dir.exists()
    else:
        assert not segment.exists()
        assert shard_dir.is_dir()
    # The recovery sweep leaves no torn temporaries behind.
    assert not list(directory.rglob("*.tmp"))


# ------------------------------------------------------------------- demotion
DEMOTE_PLANS = [
    pytest.param(FaultPlan(match=".seg", crash_after_writes=1), id="segment-write"),
    pytest.param(
        FaultPlan(match=".seg", crash_after_writes=1, short_write=True),
        id="segment-torn-write",
    ),
    pytest.param(FaultPlan(match=".seg", crash_on_replace=True), id="segment-rename"),
    pytest.param(
        FaultPlan(match="tiers.json", crash_after_writes=1), id="tiers-write"
    ),
    pytest.param(
        FaultPlan(match="tiers.json", crash_after_writes=1, short_write=True),
        id="tiers-torn-write",
    ),
    pytest.param(
        FaultPlan(match="tiers.json", crash_on_replace=True), id="tiers-rename"
    ),
]


class TestDemotionCrashes:
    @pytest.mark.parametrize("plan", DEMOTE_PLANS)
    def test_crash_leaves_shard_hot(self, plan, tmp_path):
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        fs = FaultyFileSystem(plan)
        crashed = TemporalCluster.open(directory, wal_fsync=False, fs=fs)
        with pytest.raises(SimulatedCrash):
            crashed.demote(_shard_id(directory))
        with contextlib.suppress(BaseException):
            crashed.close()
        # The commit never happened: the shard must come back hot.
        _assert_recovered(directory, queries, baseline, cold=False)

    def test_failed_fsync_aborts_cleanly(self, tmp_path):
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        fs = FaultyFileSystem(FaultPlan(match=".seg", fail_fsync=True))
        with TemporalCluster.open(directory, wal_fsync=False, fs=fs) as cluster:
            with pytest.raises(OSError, match="injected fsync failure"):
                cluster.demote(_shard_id(directory))
            # The same in-process cluster keeps serving from the hot tier.
            assert [cluster.query(q).tolist() for q in queries] == baseline
        _assert_recovered(directory, queries, baseline, cold=False)

    def test_crash_after_commit_before_cleanup(self, tmp_path):
        """Committed cold, hot directories still on disk: cold wins."""
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        shard_id = _shard_id(directory)
        stash = tmp_path / "stale-hot"
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            shutil.copytree(layout.shard_dir(directory, shard_id), stash)
            cluster.demote(shard_id)
        # Resurrect the pre-demotion replica directories, as if the crash
        # hit between the tier commit and the rmtree.
        shutil.copytree(stash, layout.shard_dir(directory, shard_id))
        _assert_recovered(directory, queries, baseline, cold=True)


# ------------------------------------------------------------------ promotion
PROMOTE_PLANS = [
    pytest.param(
        FaultPlan(match="snapshot-", crash_after_writes=1), id="replica-snapshot"
    ),
    pytest.param(
        FaultPlan(match="snapshot-", crash_after_writes=1, short_write=True),
        id="replica-torn-snapshot",
    ),
    pytest.param(
        FaultPlan(match="snapshot-", crash_on_replace=True), id="replica-rename"
    ),
    pytest.param(
        FaultPlan(match="tiers.json", crash_after_writes=1), id="tiers-write"
    ),
    pytest.param(
        FaultPlan(match="tiers.json", crash_on_replace=True), id="tiers-rename"
    ),
]


class TestPromotionCrashes:
    @pytest.mark.parametrize("plan", PROMOTE_PLANS)
    def test_crash_leaves_shard_cold(self, plan, tmp_path):
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        shard_id = _shard_id(directory)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            cluster.demote(shard_id)
        fs = FaultyFileSystem(plan)
        crashed = TemporalCluster.open(directory, wal_fsync=False, fs=fs)
        with pytest.raises(SimulatedCrash):
            crashed.promote(shard_id)
        with contextlib.suppress(BaseException):
            crashed.close()
        # The commit still names the segment: the shard stays cold and the
        # half-built replica directories are swept.
        _assert_recovered(directory, queries, baseline, cold=True)

    def test_crash_after_commit_before_segment_unlink(self, tmp_path):
        """Committed hot, orphan segment still on disk: hot wins."""
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        shard_id = _shard_id(directory)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            segment = cluster.demote(shard_id)
            stash = segment.read_bytes()
            cluster.promote(shard_id)
        # Resurrect the segment, as if the crash hit before the unlink.
        segment.write_bytes(stash)
        _assert_recovered(directory, queries, baseline, cold=False)

    def test_write_triggered_promotion_crash(self, tmp_path):
        """A crash inside the *write-triggered* promotion hook: the write
        is lost (it never reached a WAL) but the shard stays servable."""
        from repro.core.model import make_object

        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        shard_id = _shard_id(directory)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            cluster.demote(shard_id)
        fs = FaultyFileSystem(FaultPlan(match="tiers.json", crash_after_writes=1))
        crashed = TemporalCluster.open(directory, wal_fsync=False, fs=fs)
        spec = next(s for s in _table(directory).shards if s.shard_id == shard_id)
        at = spec.lo if spec.lo is not None else 0
        with pytest.raises(SimulatedCrash):
            crashed.insert(make_object(900002, at, at, {"e0"}))
        with contextlib.suppress(BaseException):
            crashed.close()
        _assert_recovered(directory, queries, baseline, cold=True)


class TestRecoveryValidation:
    def test_missing_committed_segment_is_loud(self, tmp_path):
        from repro.core.errors import ClusterError

        directory = tmp_path / "cluster"
        _build(directory)
        shard_id = _shard_id(directory)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            segment = cluster.demote(shard_id)
        segment.unlink()
        with pytest.raises(ClusterError, match="missing"):
            TemporalCluster.open(directory, wal_fsync=False)

    def test_stale_tier_entries_are_dropped(self, tmp_path):
        directory = tmp_path / "cluster"
        queries, baseline = _build(directory)
        state = tiering.read_tier_state(directory)
        state.cold["g9999-s99"] = "g9999-s99.seg"
        tiering.write_tier_state(directory, state)
        with TemporalCluster.open(directory, wal_fsync=False) as cluster:
            assert "g9999-s99" not in cluster.tier_state.cold
            assert [cluster.query(q).tolist() for q in queries] == baseline
        # The rewritten commit no longer names the phantom shard.
        assert "g9999-s99" not in tiering.read_tier_state(directory).cold
