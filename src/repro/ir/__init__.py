"""Inverted-file substrate: packed postings, block codec, intersections, tIF."""

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
from repro.ir.postings import IdPostingsList, PostingsBackend, PostingsEntry

__all__ = [
    "CompressedPostingsList",
    "IdPostingsList",
    "PackedPostingsList",
    "PostingsBackend",
    "PostingsEntry",
    "TemporalCheck",
    "TemporalInvertedFile",
    "contains_sorted",
    "decode_block",
    "encode_block",
    "intersect_merge",
    "svarint_decode",
    "svarint_encode",
    "varint_decode",
    "varint_encode",
]
