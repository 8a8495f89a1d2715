"""Inverted-file substrate: packed postings, block codec, tIF."""

from repro.ir.codec import (
    decode_block,
    encode_block,
    svarint_decode,
    svarint_encode,
    varint_decode,
    varint_encode,
)
from repro.ir.compressed import CompressedPostingsList
from repro.ir.inverted import TemporalInvertedFile
from repro.ir.packed import PackedPostingsList
from repro.ir.postings import PostingsBackend, PostingsEntry

__all__ = [
    "CompressedPostingsList",
    "PackedPostingsList",
    "PostingsBackend",
    "PostingsEntry",
    "TemporalInvertedFile",
    "decode_block",
    "encode_block",
    "svarint_decode",
    "svarint_encode",
    "varint_decode",
    "varint_encode",
]
