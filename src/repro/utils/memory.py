"""Index-size accounting.

The paper reports index sizes in MBs of the in-memory C++ structures
(Table 5, Figures 8–9).  A CPython ``getsizeof`` walk would be dominated by
interpreter overhead (every int is 28 bytes, every tuple has a header), which
would distort the *relative* sizes the paper cares about.  We therefore model
sizes the way the C++ implementation counts them:

* an ``⟨id, t_st, t_end⟩`` entry costs 16 bytes (two 4-byte timestamps would
  be 12; the paper's code uses 64-bit timestamps for WIKIPEDIA, so we charge
  4 bytes for the id and 6 per endpoint on average → 16 keeps the arithmetic
  simple and identical across methods),
* an ``⟨id, t_st⟩`` pair costs 10 bytes,
* a bare id costs 4 bytes,
* per-container overhead (a postings list, a division, a shard, an impact
  list) costs 16 bytes.

Every index's ``size_bytes()`` charges its structures with these constants,
so that methods are charged consistently.
"""

from __future__ import annotations

#: Cost constants (bytes) of the storage model.
ENTRY_FULL_BYTES = 16  # ⟨id, t_st, t_end⟩
ENTRY_ID_START_BYTES = 10  # ⟨id, t_st⟩  (reference-value slicing lists)
ENTRY_ID_BYTES = 4  # bare object id
ENTRY_ENDPOINT_BYTES = 6  # one timestamp on its own
CONTAINER_BYTES = 16  # list / shard / division / dict-slot overhead
