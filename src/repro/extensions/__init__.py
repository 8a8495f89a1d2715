"""Extensions beyond the paper's core scope (its §7 future-work directions):
relevance ranking and temporal IR joins.

Postings compression is no longer an extension — the codec graduated into
the engine proper (:mod:`repro.ir.codec` / :mod:`repro.ir.compressed`,
plus the mmap-served cold variant in :mod:`repro.ir.cold`).
"""

from repro.extensions.joins import (
    common_elements,
    index_join,
    join_selectivity,
    nested_loop_join,
)
from repro.extensions.ranking import (
    ScoredObject,
    TopKSearcher,
    idf,
    rank_candidates,
    temporal_score,
    textual_score,
)

__all__ = [
    "ScoredObject",
    "TopKSearcher",
    "common_elements",
    "idf",
    "index_join",
    "join_selectivity",
    "nested_loop_join",
    "rank_candidates",
    "temporal_score",
    "textual_score",
]
