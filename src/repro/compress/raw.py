"""Identity codec: uncompressed bitmap storage."""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress.base import Codec, register_codec
from repro.compress.streams import BlockStream
from repro.errors import CodecError


class RawStream(BlockStream):
    """Zero-copy window view over a raw word payload (and over the mmap
    when the payload is a mapped store view)."""

    def __init__(self, payload, length: int):
        super().__init__(length)
        expected = self.num_words * 8
        if len(payload) != expected:
            raise CodecError(
                f"raw payload has {len(payload)} bytes; length {length} "
                f"needs {expected}"
            )
        self._words = np.frombuffer(payload, dtype=np.uint64)

    def block(self, start: int, stop: int) -> np.ndarray:
        return self._words[start:stop]


class RawCodec(Codec):
    """Stores the bitmap's word payload verbatim.

    The encoded size is the logical size rounded up to whole 64-bit
    words, which matches how the uncompressed indexes in the paper are
    laid out on disk.
    """

    name = "raw"

    def _encode(self, vector: BitVector) -> bytes:
        return vector.to_bytes()

    def _stream(self, payload, length: int) -> RawStream:
        return RawStream(payload, length)

    def encoded_size(self, vector: BitVector) -> int:
        return vector.num_words * 8


register_codec(RawCodec())
