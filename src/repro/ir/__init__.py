"""Inverted-file substrate: postings backends, intersections, de-dup, tIF."""

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
from repro.ir.compressed import CompressedPostingsList, compression_ratio
from repro.ir.dedup import dedupe_preserving_order, is_reference_partition, reference_value
from repro.ir.intersection import (
    contains_sorted,
    intersect_adaptive,
    intersect_binary,
    intersect_galloping,
    intersect_hash,
    intersect_many,
    intersect_merge,
)
from repro.ir.inverted import TemporalCheck, TemporalInvertedFile
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import (
    IdPostingsBackend,
    IdPostingsList,
    PostingsBackend,
    PostingsEntry,
    PostingsList,
)
from repro.ir.settrie import SetTrie
from repro.ir.signatures import element_pattern, make_signature

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
    "SetTrie",
    "TemporalCheck",
    "TemporalInvertedFile",
    "compression_ratio",
    "contains_sorted",
    "decode_block",
    "dedupe_preserving_order",
    "encode_block",
    "intersect_adaptive",
    "intersect_binary",
    "intersect_galloping",
    "intersect_hash",
    "intersect_many",
    "element_pattern",
    "intersect_merge",
    "make_postings",
    "make_signature",
    "is_reference_partition",
    "postings_backend",
    "reference_value",
    "svarint_decode",
    "svarint_encode",
    "varint_decode",
    "varint_encode",
]
