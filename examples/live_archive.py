"""Operating a live, growing archive: updates, domain growth, maintenance.

The paper's Section 5.5 studies exactly this: an archive that keeps
ingesting new versions (insertions) and retiring old ones (tombstone
deletions).  This example runs a day-by-day simulation:

* new document versions arrive with ever-later timestamps (the domain only
  grows — handled by the 25 % domain headroom of the composite indexes);
* retention enforcement tombstones versions older than a sliding window;
* queries keep running against the live index and are continuously
  cross-checked against a brute-force shadow.

Run:  python examples/live_archive.py
"""

import random
import time

from repro import Collection, make_object, make_query
from repro.indexes import BruteForce, IRHintPerformance

rng = random.Random(99)
DAY = 24 * 3600
TERMS = [f"term{i}" for i in range(800)]
weights = [1.0 / (r + 1) for r in range(len(TERMS))]

# --- Bootstrap: 30 days of history. -----------------------------------------
clock = 0
next_id = 0
objects = []
for day in range(30):
    for _ in range(rng.randint(40, 80)):
        st = clock + rng.randint(0, DAY - 1)
        end = st + rng.randint(600, 5 * DAY)
        d = set(rng.choices(TERMS, weights=weights, k=rng.randint(3, 10)))
        objects.append(make_object(next_id, st, end, d))
        next_id += 1
    clock += DAY

collection = Collection(objects)
index = IRHintPerformance.build(collection)
shadow = BruteForce.build(collection)
print(f"bootstrapped: {len(index)} versions over 30 days (m={index.num_bits})")

# --- 30 more days of live operation. ----------------------------------------
RETENTION_DAYS = 25
inserted = deleted = 0
t0 = time.perf_counter()
for day in range(30, 60):
    # Ingest today's versions (timestamps beyond the built domain: the
    # index's domain headroom absorbs them).
    for _ in range(rng.randint(40, 80)):
        st = clock + rng.randint(0, DAY - 1)
        end = st + rng.randint(600, 5 * DAY)
        d = set(rng.choices(TERMS, weights=weights, k=rng.randint(3, 10)))
        obj = make_object(next_id, st, end, d)
        next_id += 1
        index.insert(obj)
        shadow.insert(obj)
        inserted += 1
    clock += DAY
    # Retention: tombstone versions that ended before the window.
    horizon = clock - RETENTION_DAYS * DAY
    expired = [o for o in shadow.objects() if o.end < horizon]
    for obj in expired:
        index.delete(obj.id)
        shadow.delete(obj.id)
        deleted += 1
    # A user query against the live index, verified against the shadow.
    term = rng.choices(TERMS, weights=weights, k=1)[0]
    q = make_query(clock - 7 * DAY, clock, {term})
    live = index.query(q).tolist()
    assert live == shadow.query(q).tolist(), "live index diverged from the oracle!"
ops_seconds = time.perf_counter() - t0
print(f"30 live days: +{inserted} versions, -{deleted} expired, "
      f"{ops_seconds:.2f}s of update+query work — all answers verified")
