"""Quickstart: index a small corpus and run time-travel IR queries.

This walks the paper's running example (Figure 1 / Example 2.2): eight
objects over an 8-point time domain, descriptions over the dictionary
{a, b, c}, and the query "interval [2, 4], elements {a, c}" whose answer is
{o2, o4, o7}.

Run:  python examples/quickstart.py
"""

from repro import Collection, make_object, make_query
from repro.indexes import IRHintPerformance, TIFSlicing, build_index

# --- 1. Model your data: ⟨id, [t_st, t_end], description⟩ triples. --------
objects = [
    make_object(1, 5, 6, {"a", "b", "c"}),
    make_object(2, 2, 7, {"a", "c"}),
    make_object(3, 0, 1, {"b"}),
    make_object(4, 0, 7, {"a", "b", "c"}),
    make_object(5, 3, 5, {"b", "c"}),
    make_object(6, 1, 5, {"c"}),
    make_object(7, 1, 7, {"a", "c"}),
    make_object(8, 1, 2, {"c"}),
]
collection = Collection(objects)
print(f"collection: {len(collection)} objects, "
      f"dictionary {sorted(collection.dictionary.elements())}")

# --- 2. Build an index.  irHINT (performance) is the paper's headline. ----
index = IRHintPerformance.build(collection, num_bits=3)

# --- 3. Time-travel IR query: overlap [2, 4] and contain both a and c. ----
query = make_query(2, 4, {"a", "c"})
print(f"\nquery [2,4] ∩ {{a,c}}  →  objects {index.query(query).tolist()}")
assert index.query(query).tolist() == [2, 4, 7]  # Example 2.2's answer

# Stabbing query (single time point) and pure-temporal query also work.
print(f"stab   t=0  ∩ {{b}}    →  objects {index.query(make_query(0, 0, {'b'})).tolist()}")
print(f"range  [2,4], no terms →  objects {index.query(make_query(2, 4)).tolist()}")

# --- 4. Updates: insert a new version, tombstone an old one. --------------
index.insert(make_object(9, 3, 4, {"a", "c"}))
index.delete(4)
print(f"\nafter insert(o9) + delete(o4)   →  {index.query(query).tolist()}")

# --- 5. Every method answers identically; pick by workload. ---------------
slicing = TIFSlicing.build(collection, n_slices=4)
assert slicing.query(query).tolist() == [2, 4, 7]
print(f"\ntIF+Slicing agrees: {slicing.query(query).tolist()}")
print(f"index sizes: irHINT={index.size_bytes()} B, "
      f"tIF+Slicing={slicing.size_bytes()} B")

# The registry builds any method by name (see repro.indexes.PAPER_METHODS).
sharding = build_index("tif-sharding", collection)
print(f"tIF+Sharding agrees: {sharding.query(query).tolist()}")
