"""Position-list codec: the sorted set-bit positions, verbatim.

The cheapest possible representation of a *very* sparse bitmap is the
sorted list of its set-bit positions — the same observation behind
Roaring's array containers (2 bytes per bit inside a 2^16-bit chunk),
lifted to the whole vector at 4 bytes per bit so no per-chunk directory
is needed.  For bitmaps with fewer set bits than roaring has non-empty
chunks, the directory overhead dominates and the flat list wins; the
``auto`` meta-codec (:mod:`repro.compress.adaptive`) exploits exactly
that corner.

Payload layout: the set-bit positions as little-endian ``uint32``,
strictly ascending, no header (the cardinality is ``len(payload) // 4``).
Vectors longer than 2^32 - 1 bits are rejected at encode time.

The reader, :class:`PositionListStream`, is a ``searchsorted`` window
plus a bit scatter, the same shape as roaring's array-container path;
decode and logical operations read the payload through it.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress.base import Codec, register_codec
from repro.compress.streams import BlockStream, scatter_bits
from repro.errors import CodecError

#: Longest encodable vector: positions must fit in uint32.
MAX_LENGTH = (1 << 32) - 1

def positions_from_payload(payload, length: int) -> np.ndarray:
    """Parse and validate a position-list payload into int64 positions."""
    size = len(payload)
    if size % 4:
        raise CodecError(
            f"position-list payload of {size} bytes is not a whole number "
            f"of uint32 positions"
        )
    positions = np.frombuffer(payload, dtype="<u4").astype(np.int64)
    if positions.size:
        if not bool((positions[1:] > positions[:-1]).all()):
            raise CodecError("position-list positions not strictly ascending")
        if int(positions[-1]) >= length:
            raise CodecError(
                f"position-list position {int(positions[-1])} overruns the "
                f"declared length {length}"
            )
    return positions


def _positions_to_payload(positions: np.ndarray) -> bytes:
    return positions.astype("<u4").tobytes()


class PositionListStream(BlockStream):
    """``searchsorted`` window + bit scatter over the position array."""

    def __init__(self, payload, length: int):
        super().__init__(length)
        self._positions = positions_from_payload(payload, length)

    def block(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.uint64)
        lo = int(np.searchsorted(self._positions, start * 64, side="left"))
        hi = int(np.searchsorted(self._positions, stop * 64, side="left"))
        rel = self._positions[lo:hi]
        # The full window (a decode) needs no shift: skip the pass.
        return scatter_bits(out, rel - start * 64 if start else rel)


class PositionListCodec(Codec):
    """Sorted set-bit positions as little-endian uint32."""

    name = "position_list"

    def _encode(self, vector: BitVector) -> bytes:
        if len(vector) > MAX_LENGTH:
            raise CodecError(
                f"position-list codec holds at most {MAX_LENGTH} bits, "
                f"got {len(vector)}"
            )
        return _positions_to_payload(vector.to_indices())

    def _stream(self, payload, length: int) -> PositionListStream:
        return PositionListStream(payload, length)

    def encoded_size(self, vector: BitVector) -> int:
        return 4 * vector.count()


register_codec(PositionListCodec())
