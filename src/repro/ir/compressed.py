"""Block-compressed postings in RAM: the benchmark ledger's codec probe.

No index builds on :class:`CompressedPostingsList` (all run on packed lists):
the ledger builds ``TemporalInvertedFile(backend="compressed")`` to price the
block codec (the §7 "orthogonal" direction the paper defers).  It is the
block kernel's one user: cold segments read their postings as catalog-row
runs in place (:mod:`repro.ir.cold`).

Entries live in immutable sealed blocks of up to
:data:`BLOCK_SIZE` id-sorted entries, each with an uncompressed skip
summary, so the temporal scans and ``intersect_sorted`` skip whole blocks
without decoding them — the intersect-without-decompress idea of
roaring-style containers.  The block layout and every read over it live
in :mod:`repro.ir.blocks`; this class adds what a *mutable* list needs:

* ``add`` of a fresh, larger id appends to a small uncompressed *tail*
  that is sealed into a block when full (the append-mostly regime of
  arXiv 2606.22773 — increasing ids, increasing times — never re-encodes);
  reads see the tail as one more, already-decoded block;
* ``add`` of an existing id (interval overwrite / tombstone revive) and
  out-of-order ids rebuild the affected state;
* ``delete`` tombstones the id in a side set — blocks stay immutable —
  and the list compacts (re-encodes without the dead) once tombstones
  outnumber live entries.

Values the codec cannot fold (floats, ints beyond i64) spill the instance
to a :class:`~repro.ir.packed.PackedPostingsList` delegate, which spills
in turn to Python lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple, TypeGuard

import numpy as np

from repro.core.errors import UnknownObjectError
from repro.core.interval import Timestamp
from repro.ir import blocks
from repro.ir.blocks import BLOCK_SIZE
from repro.ir.codec import Columns, EntryTriple, decode_block
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import PostingsEntry
from repro.utils.memory import CONTAINER_BYTES, ENTRY_FULL_BYTES

#: Compact (re-encode without tombstones) when dead entries exceed this
#: fraction of physical entries.
_COMPACT_FRACTION = 0.5
_COMPACT_MIN = 32

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _codable(value: Timestamp) -> TypeGuard[int]:
    return isinstance(value, int) and _I64_MIN <= value <= _I64_MAX


class CompressedPostingsList:
    """A mutable, block-compressed postings list.

    Same public surface and semantics as
    :class:`~repro.ir.packed.PackedPostingsList`; see the module docstring for
    the mutation strategy.  Also constructible from raw entries (the
    legacy ``CompressedPostingsList(entries)`` form).
    """

    __slots__ = ("_payloads", "_table", "_tail", "_dead", "_n_live", "_spilled")

    def __init__(self, entries: Iterable[Tuple[int, int, int]] = ()) -> None:
        self._spilled: Optional[PackedPostingsList] = None
        self._reset()
        for object_id, st, end in entries:
            self.add(object_id, st, end)

    def _reset(self) -> None:
        #: Sealed block payloads and their summaries: column ``i`` of the
        #: table (one row per summary field) is block ``i``'s; columns past
        #: ``len(self._payloads)`` are spare capacity.
        self._payloads: List[bytes] = []
        self._table = np.empty((5, 0), dtype=np.int64)
        #: Uncompressed append run: ids strictly above every sealed id.
        self._tail: List[EntryTriple] = []
        #: Tombstoned ids living inside sealed blocks or the tail.
        self._dead: set = set()
        self._n_live = 0

    # ------------------------------------------------------------- internals
    def _reader(self) -> blocks.BlockReader:
        """What the kernel reads: the sealed blocks, then the tail as one
        more block (summarised on the fly, served already decoded)."""
        summaries = self._table[:, : len(self._payloads)]
        if self._tail:
            summaries = np.column_stack((summaries, blocks.summarize(self._tail)))
        return blocks.BlockReader(summaries, self._load)

    def _load(self, block_index: int, ids_only: bool) -> Columns:
        if block_index < len(self._payloads):
            summary = self._table[:, block_index].tolist()
            return decode_block(self._payloads[block_index], summary, ids_only)
        ids, sts, ends = np.array(self._tail, dtype=np.int64).T
        return ids, sts, ends

    def _seal(self, run: List[EntryTriple]) -> None:
        payload, summary = blocks.seal(run)
        sealed = len(self._payloads)
        if sealed == self._table.shape[1]:  # full: double the capacity
            grown = np.empty((5, max(4, 2 * sealed)), dtype=np.int64)
            grown[:, :sealed] = self._table
            self._table = grown
        self._table[:, sealed] = summary
        self._payloads.append(payload)

    def _spill(self) -> PackedPostingsList:
        """Degrade to an uncompressed delegate (non-codable value arrived)."""
        delegate = PackedPostingsList()
        for object_id, st, end in self.entries():
            delegate.add(object_id, st, end)
        self._spilled = delegate
        self._reset()
        return delegate

    def _rebuild(
        self, replace: Optional[EntryTriple] = None, seal_all: bool = False
    ) -> None:
        """Re-encode from scratch: drop tombstones, optionally upsert one
        entry (the overwrite / revive / out-of-order path).  With
        ``seal_all`` the trailing partial run is encoded too instead of
        staying in the uncompressed tail (the bulk-load finish)."""
        entries = list(self._reader().entries(self._dead))
        if replace is not None:
            entries = [e for e in entries if e[0] != replace[0]]
            entries.append(replace)
            entries.sort()
        self._reset()
        for run in blocks.runs(entries):
            if len(run) == BLOCK_SIZE or seal_all:
                self._seal(run)
            else:
                self._tail = run
        self._n_live = len(entries)

    def compact(self) -> None:
        """Drop tombstones and seal the tail into encoded blocks.

        Call after a bulk load (or any write burst) to bring the list to
        its minimal footprint; answers are unchanged.  Later ascending
        adds start a fresh tail, so compaction never blocks appends.
        """
        if self._spilled is not None:
            self._spilled.compact()
        elif self._dead or self._tail:
            self._rebuild(seal_all=True)

    # --------------------------------------------------------------- updates
    def add(self, object_id: int, st: Timestamp, end: Timestamp) -> None:
        """Insert an entry, preserving id order.

        Ascending fresh ids append to the uncompressed tail (sealed into a
        block every :data:`BLOCK_SIZE` entries).  Re-adding an existing id
        overwrites its interval (reviving it if tombstoned); out-of-order
        fresh ids rebuild — the standard compressed-index trade-off.
        """
        if self._spilled is not None:
            self._spilled.add(object_id, st, end)
            return
        if not (_codable(object_id) and _codable(st) and _codable(end)):
            self._spill().add(object_id, st, end)
            return
        tail = self._tail
        if tail:
            ascending = object_id > tail[-1][0]
        else:
            sealed = len(self._payloads)
            ascending = not sealed or object_id > self._table[blocks.MAX_ID, sealed - 1]
        if ascending:
            tail.append((object_id, st, end))
            self._n_live += 1
            if len(tail) == BLOCK_SIZE:
                self._seal(tail)
                self._tail = []
            return
        # Interval overwrite, tombstone revive, or out-of-order insert: all
        # three are the upsert-and-re-encode path.
        self._dead.discard(object_id)
        self._rebuild(replace=(object_id, st, end))

    def delete(self, object_id: int) -> None:
        """Tombstone the entry for ``object_id`` (raises if absent)."""
        if self._spilled is not None:
            self._spilled.delete(object_id)
            return
        if object_id not in self:
            raise UnknownObjectError(object_id)
        self._dead.add(object_id)
        self._n_live -= 1
        if (
            self.physical_len() >= _COMPACT_MIN
            and len(self._dead) > self.physical_len() * _COMPACT_FRACTION
        ):
            self._rebuild()

    # ----------------------------------------------------------------- reads
    def __len__(self) -> int:
        """Number of live entries."""
        if self._spilled is not None:
            return len(self._spilled)
        return self._n_live

    def __contains__(self, object_id: int) -> bool:
        if self._spilled is not None:
            return object_id in self._spilled
        if object_id in self._dead:
            return False
        return self._reader().contains(object_id)[0]

    def physical_len(self) -> int:
        """Stored entries including tombstones (drops after compaction)."""
        if self._spilled is not None:
            return self._spilled.physical_len()
        sealed = self._table[blocks.COUNT, : len(self._payloads)]
        return int(sealed.sum()) + len(self._tail)

    def entries(self) -> Iterator[PostingsEntry]:
        """Live entries in id order (block-by-block decode)."""
        if self._spilled is not None:
            return self._spilled.entries()
        return self._reader().entries(self._dead)

    def ids(self) -> List[int]:
        """Live object ids, sorted."""
        return [entry[0] for entry in self.entries()]

    def overlapping(self, q_st: Timestamp, q_end: Timestamp) -> List[PostingsEntry]:
        """Live entries overlapping ``[q_st, q_end]`` (summary-skipped)."""
        if self._spilled is not None:
            return self._spilled.overlapping(q_st, q_end)
        return self._reader().overlapping(q_st, q_end, self._dead)[0]

    def overlapping_ids(self, q_st: Timestamp, q_end: Timestamp) -> List[int]:
        """Ids of live entries overlapping ``[q_st, q_end]``, in id order."""
        if self._spilled is not None:
            return self._spilled.overlapping_ids(q_st, q_end)
        return self._reader().overlapping_ids(q_st, q_end, self._dead)[0]

    def intersect_sorted(self, sorted_ids: List[int]) -> List[int]:
        """Merge intersection with an ascending id list, skipping blocks
        whose id range holds no candidate."""
        if self._spilled is not None:
            return self._spilled.intersect_sorted(sorted_ids)
        return self._reader().intersect_sorted(sorted_ids, self._dead)[0]

    def span(self) -> Tuple[Timestamp, Timestamp]:
        """``[min t_st, max t_end]`` over live entries."""
        if self._spilled is not None:
            return self._spilled.span()
        return self._reader().span(self._dead)

    # ----------------------------------------------------------------- sizes
    def size_bytes(self) -> int:
        """Actual encoded bytes + summaries + modelled tail + container."""
        if self._spilled is not None:
            return self._spilled.size_bytes()
        encoded = sum(len(payload) for payload in self._payloads)
        summaries = len(self._payloads) * 5 * 8  # five i64s per summary
        tail = len(self._tail) * ENTRY_FULL_BYTES
        return encoded + summaries + tail + CONTAINER_BYTES

