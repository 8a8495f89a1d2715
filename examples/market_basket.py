"""Market-basket analysis: temporal containment queries over store visits.

The paper's third motivating scenario: "find all last-month sessions where a
copy of 'The Shining', 'It' and 'Misery' were purchased together".  Visits
(baskets) span the customer's time in the store; descriptions hold the
purchased product ids.

This example also shows the tuning workflow: sweeping the slice count of
tIF+Slicing on *your* data (the Figure 8 procedure) before committing to a
configuration.

Run:  python examples/market_basket.py
"""

import random
import time

from repro import Collection, make_object, make_query
from repro.indexes import IRHintPerformance, TIFSlicing
from repro.queries import QueryWorkload

rng = random.Random(7)

# --- Synthesise a quarter of store visits. ----------------------------------
DAY = 24 * 3600
QUARTER = 90 * DAY
CATALOG = [f"sku:{i}" for i in range(3000)]
weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(CATALOG))]
SHINING, IT, MISERY = "sku:11", "sku:23", "sku:40"

visits = []
for visit_id in range(10_000):
    arrive = rng.randint(0, QUARTER - 1)
    browse = rng.randint(300, 2 * 3600)  # 5 minutes to 2 hours
    basket = set(rng.choices(CATALOG, weights=weights, k=rng.randint(1, 12)))
    # A Stephen King adaptation aired mid-quarter: a fan cohort buys the
    # trilogy together from then on.
    if arrive > QUARTER // 2 and rng.random() < 0.01:
        basket |= {SHINING, IT, MISERY}
    visits.append(make_object(visit_id, arrive, arrive + browse, basket))
collection = Collection(visits)
print(f"{len(collection)} visits, {len(collection.dictionary)} SKUs")

# --- Tune tIF+Slicing on this data (the Figure 8 sweep, miniaturised). ------
workload = QueryWorkload(collection, seed=1)
tuning_queries = workload.by_num_elements(3, 150)
print("\ntuning tIF+Slicing (Figure 8 procedure):")
best = None
for n_slices in (1, 10, 25, 50, 100):
    index = TIFSlicing.build(collection, n_slices=n_slices)
    t0 = time.perf_counter()
    for q in tuning_queries:
        index.query(q)
    qps = len(tuning_queries) / (time.perf_counter() - t0)
    print(f"  {n_slices:4d} slices: {qps:8.0f} q/s, {index.size_bytes() >> 20} MB")
    if best is None or qps > best[1]:
        best = (n_slices, qps, index)
n_slices, _, slicing = best
print(f"chosen: {n_slices} slices")

# --- The Stephen King query over the last month. ----------------------------
last_month = make_query(QUARTER - 30 * DAY, QUARTER, {SHINING, IT, MISERY})
king_fans = slicing.query(last_month).tolist()
print(f"\nvisits buying all three novels last month: {len(king_fans)} -> {king_fans[:10]}")

# --- Cross-check with the time-first index. ---------------------------------
irhint = IRHintPerformance.build(collection)
assert irhint.query(last_month).tolist() == king_fans == collection.evaluate(last_month)

pairs = make_query(QUARTER - 30 * DAY, QUARTER, {SHINING, IT})
print(f"visits buying just The Shining + It:      {len(irhint.query(pairs))}")

# Seasonal comparison: the same basket in the quarter's first month.
first_month = make_query(0, 30 * DAY, {SHINING, IT, MISERY})
print(f"same basket, first month of the quarter:  {len(irhint.query(first_month))}")
