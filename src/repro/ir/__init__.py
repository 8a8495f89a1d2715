"""Inverted-file substrate: packed postings, block codec, tIF."""

from repro.ir.codec import decode_block, encode_block
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
]
