"""Archive search: time-travel keyword queries over a versioned archive.

The paper's first motivating scenario: "retrieve all versions of articles in
Wikipedia from 1980 until 2000, relevant to the US elections".  We build the
WIKIPEDIA surrogate (revision chains, zipfian vocabulary, stop-words), pick
two co-occurring terms, and compare an IR-first and the time-first method on
the same queries.

Run:  python examples/archive_search.py
"""

import time

from repro import make_query
from repro.datasets import generate_wikipedia
from repro.indexes import IRHintPerformance, TIFSlicing
from repro.queries import QueryWorkload

print("generating versioned archive (WIKIPEDIA surrogate)...")
archive = generate_wikipedia(n_revisions=6000)
stats = archive.stats()
print(
    f"  {stats.cardinality} revisions, {stats.dictionary_size} terms, "
    f"avg validity {stats.avg_duration_pct:.1f}% of the 4-year window"
)

# --- Build both index families. -------------------------------------------
t0 = time.perf_counter()
irhint = IRHintPerformance.build(archive)
t_irhint = time.perf_counter() - t0
t0 = time.perf_counter()
slicing = TIFSlicing.build(archive, n_slices=50)
t_slicing = time.perf_counter() - t0
print(f"\nbuilt irHINT in {t_irhint:.2f}s ({irhint.size_bytes() >> 20} MB), "
      f"tIF+Slicing in {t_slicing:.2f}s ({slicing.size_bytes() >> 20} MB)")

# --- A hand-written archive query. -----------------------------------------
# Take a revision and search for two of its *rarest* terms across one month
# of the archive's life — "which revisions mentioned both in that window?"
# (The frequency ordering skips the stop-words that appear everywhere.)
sample = archive.objects()[len(archive) // 2]
terms = archive.dictionary.order_by_frequency(sample.d)[:2]
month = 30 * 24 * 3600
query = make_query(sample.st, sample.st + month, set(terms))
hits = irhint.query(query).tolist()
print(f"\nrevisions containing {terms} in a 1-month window: {len(hits)} hits")
assert hits == slicing.query(query).tolist() == archive.evaluate(query)

# --- Throughput on a realistic workload. -----------------------------------
workload = QueryWorkload(archive, seed=7)
queries = workload.by_num_elements(3, 300)
for name, index in (("irHINT (performance)", irhint), ("tIF+Slicing", slicing)):
    t0 = time.perf_counter()
    total = sum(len(index.query(q)) for q in queries)
    dt = time.perf_counter() - t0
    print(f"  {name:22s} {len(queries)/dt:9.0f} queries/s  ({total} results)")

# --- The archive grows: new revisions arrive. ------------------------------
latest = archive.objects()[-1]
from repro import make_object  # noqa: E402

new_revision = make_object(
    latest.id + 1, latest.end, latest.end + month, latest.d | {"breaking"}
)
irhint.insert(new_revision)
follow_up = make_query(latest.end, latest.end + month, {"breaking"})
print(f"\nafter ingesting a new revision: {irhint.query(follow_up).tolist()}")
