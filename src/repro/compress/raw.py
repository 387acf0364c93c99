"""Identity codec: uncompressed bitmap storage."""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress.base import Codec, register_codec


class RawCodec(Codec):
    """Stores the bitmap's word payload verbatim.

    The encoded size is the logical size rounded up to whole 64-bit
    words, which matches how the uncompressed indexes in the paper are
    laid out on disk.
    """

    name = "raw"

    def _encode(self, vector: BitVector) -> bytes:
        return vector.to_bytes()

    def _decode(self, payload: bytes, length: int) -> BitVector:
        return BitVector.from_bytes(length, payload)

    def _decode_view(self, payload, length: int) -> BitVector | None:
        """Zero-copy decode: the words alias the payload buffer.

        Falls back (returns None) when the payload is malformed or its
        padding bits are dirty — those cases need the copying decode's
        error reporting and masking.
        """
        expected = (length + 63) // 64 * 8
        if len(payload) != expected:
            return None
        words = np.frombuffer(payload, dtype=np.uint64)
        tail = length % 64
        if tail and words.shape[0] and int(words[-1]) >> tail:
            return None
        return BitVector(length, words)

    def encoded_size(self, vector: BitVector) -> int:
        return vector.num_words * 8


register_codec(RawCodec())
