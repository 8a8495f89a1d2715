"""Postings backend selection: one knob, every index unchanged.

Every structure that stores postings (`TemporalInvertedFile`, the irHINT
per-division dictionaries) creates its lists through the factories here
instead of naming a class, so the whole engine — indexes, executor,
cluster router, WAL/snapshot recovery — runs unmodified on any backend:

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
    by ``SegmentReader``, never by these factories.

Id-only postings (irHINT-size divisions) have their own axis:

``list``
    :class:`~repro.ir.postings.IdPostingsList` (the default).
``bitset``
    :class:`~repro.ir.packed.BitsetIdPostingsList` — a byte-per-8-ids
    bitmap for dense, small-id division dictionaries.

Selection order: explicit ``backend=`` argument, else the environment
(:data:`POSTINGS_BACKEND_ENV` / :data:`ID_POSTINGS_BACKEND_ENV`, read at
list-creation time so tests can flip it per-case), else the default.
Unknown names raise :class:`~repro.core.errors.ConfigurationError` with
the available set.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional

from repro.core.errors import ConfigurationError
from repro.ir.cold import ColdPostingsList
from repro.ir.compressed import CompressedPostingsList
from repro.ir.packed import BitsetIdPostingsList, PackedPostingsList
from repro.ir.postings import (
    IdPostingsBackend,
    IdPostingsList,
    PostingsBackend,
    PostingsList,
)

#: Environment knobs (read when a list is created, not at import).
POSTINGS_BACKEND_ENV = "REPRO_POSTINGS_BACKEND"
ID_POSTINGS_BACKEND_ENV = "REPRO_ID_POSTINGS_BACKEND"

DEFAULT_POSTINGS_BACKEND = "packed"
DEFAULT_ID_POSTINGS_BACKEND = "list"

#: name → zero-arg factory for full ⟨id, st, end⟩ postings lists.
POSTINGS_BACKENDS: Dict[str, Callable[[], PostingsBackend]] = {
    "list": PostingsList,
    "packed": PackedPostingsList,
    "compressed": CompressedPostingsList,
}

#: name → zero-arg factory for id-only postings lists.
ID_POSTINGS_BACKENDS: Dict[str, Callable[[], IdPostingsBackend]] = {
    "list": IdPostingsList,
    "bitset": BitsetIdPostingsList,
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


def _resolve(
    backend: Optional[str],
    env_var: str,
    default: str,
    table: Mapping[str, Callable[[], object]],
) -> str:
    name = backend if backend is not None else os.environ.get(env_var, default)
    if name not in table:
        if name in READONLY_POSTINGS_BACKENDS:
            raise ConfigurationError(
                f"postings backend {name!r} is read-only: it is constructed "
                f"by repro.storage.SegmentReader over a cold segment, not "
                f"by the mutable-list factories; "
                f"available here: {', '.join(sorted(table))}"
            )
        raise ConfigurationError(
            f"unknown postings backend {name!r}; "
            f"available: {', '.join(sorted(table))}"
        )
    return name


def postings_backend(backend: Optional[str] = None) -> str:
    """The effective full-postings backend name (arg > env > default)."""
    return _resolve(
        backend, POSTINGS_BACKEND_ENV, DEFAULT_POSTINGS_BACKEND, POSTINGS_BACKENDS
    )


def id_postings_backend(backend: Optional[str] = None) -> str:
    """The effective id-only backend name (arg > env > default)."""
    return _resolve(
        backend,
        ID_POSTINGS_BACKEND_ENV,
        DEFAULT_ID_POSTINGS_BACKEND,
        ID_POSTINGS_BACKENDS,
    )


def make_postings(backend: Optional[str] = None) -> PostingsBackend:
    """A fresh, empty full-postings list of the selected backend."""
    return POSTINGS_BACKENDS[postings_backend(backend)]()


def make_id_postings(backend: Optional[str] = None) -> IdPostingsBackend:
    """A fresh, empty id-only postings list of the selected backend."""
    return ID_POSTINGS_BACKENDS[id_postings_backend(backend)]()
