"""Postings backend selection: one knob, every index unchanged.

`TemporalInvertedFile` (and through it every index that stores ⟨id, st,
end⟩ postings) creates its lists through the factory here instead of
naming a class, so the whole engine — indexes, executor, cluster router,
WAL/snapshot recovery — runs unmodified on any backend:

``list``
    :class:`~repro.ir.postings.PostingsList` — boxed Python columns, the
    original substrate and the oracle of the property harness.
``packed``
    :class:`~repro.ir.packed.PackedPostingsList` — flat ``array('q')``
    columns with numpy kernels (the default).
``compressed``
    :class:`~repro.ir.compressed.CompressedPostingsList` — fixed-width
    column blocks with skip summaries.
``cold`` *(read-only)*
    :class:`~repro.ir.cold.ColdPostingsList` — the same blocks served
    straight from an mmap'd segment (:mod:`repro.storage`); constructed
    by ``SegmentReader``, never by this factory.

Id-only postings (irHINT-size divisions) are always
:class:`~repro.ir.postings.IdPostingsList`.

Selection order: explicit ``backend=`` argument, else the environment
(:data:`POSTINGS_BACKEND_ENV`, read at list-creation time so tests can
flip it per-case), else the default.
Unknown names raise :class:`~repro.core.errors.ConfigurationError` with
the available set.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.core.errors import ConfigurationError
from repro.ir.cold import ColdPostingsList
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import PostingsBackend, PostingsList

#: Environment knob (read when a list is created, not at import).
POSTINGS_BACKEND_ENV = "REPRO_POSTINGS_BACKEND"

DEFAULT_POSTINGS_BACKEND = "packed"

#: name → zero-arg factory for full ⟨id, st, end⟩ postings lists.
POSTINGS_BACKENDS: Dict[str, Callable[[], PostingsBackend]] = {
    "list": PostingsList,
    "packed": PackedPostingsList,
    "compressed": CompressedPostingsList,
}

#: Read-only backends that honour the full read surface but cannot be
#: created empty by a factory: ``cold`` postings are mmap views minted by
#: :class:`repro.storage.reader.SegmentReader` over an open segment.
#: They live in their own table so the property harness (which mutates)
#: keeps iterating :data:`POSTINGS_BACKENDS` untouched, while the name
#: still resolves — to a typed error explaining how the backend is built.
READONLY_POSTINGS_BACKENDS: Dict[str, type] = {
    "cold": ColdPostingsList,
}


def postings_backend(backend: Optional[str] = None) -> str:
    """The effective full-postings backend name (arg > env > default)."""
    name = (
        backend
        if backend is not None
        else os.environ.get(POSTINGS_BACKEND_ENV, DEFAULT_POSTINGS_BACKEND)
    )
    if name not in POSTINGS_BACKENDS:
        if name in READONLY_POSTINGS_BACKENDS:
            raise ConfigurationError(
                f"postings backend {name!r} is read-only: it is constructed "
                f"by repro.storage.SegmentReader over a cold segment, not "
                f"by the mutable-list factory; "
                f"available here: {', '.join(sorted(POSTINGS_BACKENDS))}"
            )
        raise ConfigurationError(
            f"unknown postings backend {name!r}; "
            f"available: {', '.join(sorted(POSTINGS_BACKENDS))}"
        )
    return name


def make_postings(backend: Optional[str] = None) -> PostingsBackend:
    """A fresh, empty full-postings list of the selected backend."""
    return POSTINGS_BACKENDS[postings_backend(backend)]()
