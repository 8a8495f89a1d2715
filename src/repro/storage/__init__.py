"""``repro.storage`` — the mmap'd cold-segment tier.

RAM-resident shards cap the corpus far below the million-user north star.
The time-partitioned cluster layout makes old shards effectively
immutable (the append-mostly regime of *Disk-Based Interval Indexes Under
the Increasing Ending Time Assumption*, arXiv 2606.22773), so this
package demotes them to disk and serves them lazily:

* :mod:`repro.storage.format` — the immutable segment file format (v2;
  v1 stays readable): checksummed column postings blocks
  (:mod:`repro.ir.codec`) described by a columnar block table, packed
  i64 catalog columns, a small pickled directory, and a self-locating
  footer.
* :mod:`repro.storage.writer` — builds a segment from a shard's live
  objects and installs it crash-safely through the
  :mod:`repro.service.fsio` seam (write-temp + fsync + rename).
* :mod:`repro.storage.reader` — :class:`SegmentReader`, serving
  Algorithm 1 queries straight from ``mmap`` with block-skip summaries
  and **zero full-segment decode**.
* :mod:`repro.storage.cache` — :class:`SegmentCache`, an LRU of open
  readers with byte-budget accounting and pin-protected eviction.
* :mod:`repro.storage.tiering` — the tier state file, crash recovery,
  :class:`ColdShard` (the router-transparent stand-in for a
  :class:`~repro.cluster.group.ReplicaSet`) and the heat-driven
  demotion/promotion planner.

Everything is observable under the ``repro_storage_*`` metric families
(:func:`repro.obs.instruments.storage_instruments`).
"""

from repro.storage.cache import DEFAULT_SEGMENT_CACHE_BYTES, SegmentCache
from repro.storage.format import SEGMENT_SUFFIX, SegmentDirectory
from repro.storage.reader import SegmentReader
from repro.storage.tiering import (
    ColdShard,
    TierState,
    TieringPlan,
    plan_tiering,
    read_tier_state,
    write_tier_state,
)
from repro.storage.writer import write_segment

__all__ = [
    "ColdShard",
    "DEFAULT_SEGMENT_CACHE_BYTES",
    "SEGMENT_SUFFIX",
    "SegmentCache",
    "SegmentDirectory",
    "SegmentReader",
    "TierState",
    "TieringPlan",
    "plan_tiering",
    "read_tier_state",
    "write_tier_state",
    "write_segment",
]
