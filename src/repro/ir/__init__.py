"""Inverted-file substrate: postings backends, intersections, tIF."""

from repro.ir.backends import (
    POSTINGS_BACKEND_ENV,
    POSTINGS_BACKENDS,
    make_postings,
    postings_backend,
)
from repro.ir.codec import (
    decode_block,
    encode_block,
    svarint_decode,
    svarint_encode,
    varint_decode,
    varint_encode,
)
from repro.ir.compressed import CompressedPostingsList
from repro.ir.intersection import contains_sorted, intersect_merge
from repro.ir.inverted import TemporalCheck, TemporalInvertedFile
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import (
    IdPostingsBackend,
    IdPostingsList,
    PostingsBackend,
    PostingsEntry,
    PostingsList,
)

__all__ = [
    "CompressedPostingsList",
    "IdPostingsBackend",
    "IdPostingsList",
    "POSTINGS_BACKENDS",
    "POSTINGS_BACKEND_ENV",
    "PackedPostingsList",
    "PostingsBackend",
    "PostingsEntry",
    "PostingsList",
    "TemporalCheck",
    "TemporalInvertedFile",
    "contains_sorted",
    "decode_block",
    "encode_block",
    "intersect_merge",
    "make_postings",
    "postings_backend",
    "svarint_decode",
    "svarint_encode",
    "varint_decode",
    "varint_encode",
]
