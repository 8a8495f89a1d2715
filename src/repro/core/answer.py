"""The one answer type: a query's matching ids as a frozen int64 array.

Every layer between the postings and the daemon's socket carries a
query's answer as the same object: a sorted (strictly ascending),
read-only ``np.ndarray`` of ``int64`` that owns its data — never a view
of postings storage, so holding an answer pins no buffer a writer must
grow, and no caller can write into an answer another caller (or a
result cache) holds.  Lists and JSON are made at the human edge (the
CLI, ``explain()``), not in the middle.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: The element type of every answer.
ANSWER_DTYPE = np.dtype(np.int64)


def _frozen(ids: np.ndarray) -> np.ndarray:
    ids.setflags(write=False)
    return ids


#: The empty answer, shared.
NO_IDS = _frozen(np.empty(0, dtype=ANSWER_DTYPE))


def as_answer(ids: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """``ids`` — ascending, distinct, each in ``[0, 2**63)`` — as an answer.

    An int64 array that owns its data is frozen in place and returned (the
    query paths hand over arrays nothing else holds); a view, another
    dtype or a list is copied first.  Idempotent on an answer.
    """
    if not len(ids):
        return NO_IDS
    if not isinstance(ids, np.ndarray):
        return _frozen(np.array(ids, dtype=ANSWER_DTYPE))
    if ids.dtype != ANSWER_DTYPE:
        return _frozen(ids.astype(ANSWER_DTYPE))
    if ids.base is not None:
        ids = ids.copy()
    return _frozen(ids)
