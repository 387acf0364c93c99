"""Range-list codec: the maximal 1-runs as sorted (start, length) pairs.

Where :mod:`repro.compress.position_list` is Roaring's array container
lifted to the whole vector, this is its *run* container lifted the same
way: a sparse-but-clustered bitmap whose set bits form a handful of
long runs is fully described by those runs, at 8 bytes per run with no
per-chunk directory.  The tree-encoded-bitmaps literature benchmarks
exactly this pair of cheap codecs against the RLE family over a
(density, clustering) grid; the ``auto`` meta-codec
(:mod:`repro.compress.adaptive`) picks whichever wins per bitmap.

Payload layout: interleaved little-endian ``uint32`` pairs
``(start, run_length)`` of the maximal 1-runs, strictly ascending and
*non-adjacent* (a gap of at least one 0 bit between runs, so the form
is canonical).  ``run_length`` is at least 1; vectors longer than
2^32 - 1 bits are rejected at encode time.

The reader, :class:`RangeListStream`, clips the runs to the window and
scatters their bits; decode and logical operations read the payload
through it.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, register_codec
from repro.compress.streams import BlockStream, scatter_bits
from repro.errors import CodecError

#: Longest encodable vector: starts and run lengths must fit in uint32.
MAX_LENGTH = (1 << 32) - 1

def runs_from_payload(payload, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse and validate a range-list payload into (starts, run_lengths)."""
    size = len(payload)
    if size % 8:
        raise CodecError(
            f"range-list payload of {size} bytes is not a whole number of "
            f"(start, length) uint32 pairs"
        )
    pairs = np.frombuffer(payload, dtype="<u4").astype(np.int64).reshape(-1, 2)
    starts = pairs[:, 0]
    run_lengths = pairs[:, 1]
    if starts.size:
        if not bool((run_lengths >= 1).all()):
            raise CodecError("range-list run length must be at least 1")
        ends = starts + run_lengths
        if int(ends[-1]) > length:
            raise CodecError(
                f"range-list run [{int(starts[-1])}, {int(ends[-1])}) "
                f"overruns the declared length {length}"
            )
        if not bool((starts[1:] > ends[:-1]).all()):
            raise CodecError(
                "range-list runs must be ascending and non-adjacent "
                "(maximal-run canonical form)"
            )
    return starts, run_lengths


def _runs_to_payload(starts: np.ndarray, run_lengths: np.ndarray) -> bytes:
    pairs = np.empty((starts.size, 2), dtype="<u4")
    pairs[:, 0] = starts
    pairs[:, 1] = run_lengths
    return pairs.tobytes()


class RangeListStream(BlockStream):
    """Run expansion of the runs overlapping the window + bit scatter."""

    def __init__(self, payload, length: int):
        super().__init__(length)
        self._starts, self._run_lengths = runs_from_payload(payload, length)

    def block(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.uint64)
        bit_lo, bits = start * 64, (stop - start) * 64
        # From the last run starting at or before the window to the last
        # starting inside it.
        lo = max(int(np.searchsorted(self._starts, bit_lo, side="right")) - 1, 0)
        hi = int(np.searchsorted(self._starts, bit_lo + bits, side="left"))
        rel = kernels.expand_ranges(
            self._starts[lo:hi] - bit_lo, self._run_lengths[lo:hi]
        )
        if rel.size and (rel[0] < 0 or rel[-1] >= bits):
            # Ascending, and only the edge runs cross the window's edges.
            rel = rel[np.searchsorted(rel, 0) : np.searchsorted(rel, bits)]
        return scatter_bits(out, rel)


class RangeListCodec(Codec):
    """Maximal 1-runs as interleaved (start, length) uint32 pairs."""

    name = "range_list"

    def _encode(self, vector: BitVector) -> bytes:
        if len(vector) > MAX_LENGTH:
            raise CodecError(
                f"range-list codec holds at most {MAX_LENGTH} bits, "
                f"got {len(vector)}"
            )
        positions = vector.to_indices()
        if positions.size == 0:
            return b""
        breaks = np.flatnonzero(np.diff(positions) != 1)
        starts = positions[np.concatenate(([0], breaks + 1))]
        ends = positions[np.concatenate((breaks, [positions.size - 1]))] + 1
        return _runs_to_payload(starts, ends - starts)

    def _stream(self, payload, length: int) -> RangeListStream:
        return RangeListStream(payload, length)


register_codec(RangeListCodec())
