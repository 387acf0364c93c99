"""N-way merges and threshold (k-of-N) kernels over encoded bitmaps.

Pairwise compressed-domain operations evaluate a wide OR/AND as a
left-fold, re-touching every intermediate result N-2 times; Kaser &
Lemire ("Compressed bitmap indexes: beyond unions and intersections")
show that streaming the N inputs *simultaneously* answers the same
query — and the more general symmetric threshold function "at least k
of N" — in one pass that never materializes an intermediate.

This module is that one pass, built on the block cursors of
:mod:`repro.compress.streams`: the N inputs advance in lockstep through
word windows (a k-way merge at block granularity — raw/WAH/EWAH/BBC
streams rematerialize only the runs overlapping the window, roaring
streams gather only the containers overlapping it, so the merge sees
runs/containers, never whole vectors), and each window is either

* reduced with the operator (:func:`multiway_logical`), or
* counted with a word-parallel **bit-sliced counter**
  (:class:`ThresholdCounter`): ``ceil(log2(N+1))`` word slices hold,
  per bit position, the binary count of inputs that have that bit set;
  each input is ripple-carry added in O(width) bulk ops and the final
  ``count >= k`` compare is a bitwise magnitude comparison against the
  constant ``k`` (:func:`multiway_threshold`, :func:`threshold_vectors`).

Total work is ``O(N * words * log N)`` bulk word operations with
``O(log N)`` block-sized scratch — independent of how many
intermediates a fold would have allocated.  The cost model charges a
multi-way op by the compressed bytes actually streamed (the sum of the
input payload sizes), which is why it beats the fold's accounting for
N >= 3: the fold also re-charges every intermediate.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress.streams import BlockStream, VectorStream, open_stream
from repro.errors import BitmapError

#: Words per lockstep window (16 KiB): a window of every input of a
#: wide merge plus the counter slices stays in L1/L2.
DEFAULT_BLOCK_WORDS = 2048

_ONE = np.uint64(1)
_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

_REDUCERS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}


def counter_width(n: int) -> int:
    """Bit slices needed to count ``n`` one-bit inputs without overflow."""
    if n < 1:
        raise BitmapError(f"counter needs at least one input, got {n}")
    return int(n).bit_length()


class ThresholdCounter:
    """Word-parallel bit-sliced counter over up to ``n`` bitmap blocks.

    ``slices[i]`` holds bit ``i`` of the per-position count: after
    adding blocks ``b_1..b_m`` (``m <= n``), bit position ``p`` of the
    slices spells the binary number ``|{j : b_j has bit p set}|``.
    :meth:`add` is a ripple-carry increment (2 bulk ops per slice);
    :meth:`compare_ge` extracts ``count >= k`` with one pass from the
    most significant slice down, maintaining *greater* and *equal*
    accumulators against the constant ``k``.
    """

    def __init__(self, n: int, block_words: int):
        self.width = counter_width(n)
        self.slices = [
            np.empty(block_words, dtype=np.uint64) for _ in range(self.width)
        ]
        self._carry = np.empty(block_words, dtype=np.uint64)
        self._tmp = np.empty(block_words, dtype=np.uint64)
        self._eq = np.empty(block_words, dtype=np.uint64)

    def reset(self, num_words: int) -> None:
        """Zero the counters for a window of ``num_words`` words."""
        for s in self.slices:
            s[:num_words] = 0

    def add(self, block: np.ndarray) -> None:
        """Ripple-carry add one input block into the counter slices."""
        n = len(block)
        carry, tmp = self._carry, self._tmp
        np.copyto(carry[:n], block)
        for s in self.slices:
            np.bitwise_and(s[:n], carry[:n], out=tmp[:n])
            np.bitwise_xor(s[:n], carry[:n], out=s[:n])
            carry, tmp = tmp, carry
        self._carry, self._tmp = carry, tmp

    def compare_ge(self, k: int, out: np.ndarray) -> None:
        """Write ``count >= k`` into ``out`` (``k >= 1``, fits the width).

        MSB-to-LSB bitwise magnitude comparison: ``gt`` accumulates
        positions already decided greater than ``k``'s prefix, ``eq``
        the positions still tied; a set count bit where ``k``'s bit is
        clear turns a tie into greater, a clear count bit where ``k``'s
        bit is set eliminates the tie.
        """
        n = len(out)
        gt = out
        eq, tmp, scratch = self._eq, self._tmp, self._carry
        gt[:n] = 0
        eq[:n] = _FULL
        for i in reversed(range(self.width)):
            c = self.slices[i]
            if (k >> i) & 1:
                np.bitwise_and(eq[:n], c[:n], out=eq[:n])
            else:
                np.bitwise_and(eq[:n], c[:n], out=tmp[:n])
                np.bitwise_or(gt[:n], tmp[:n], out=gt[:n])
                np.bitwise_not(c[:n], out=scratch[:n])
                np.bitwise_and(eq[:n], scratch[:n], out=eq[:n])
        np.bitwise_or(gt[:n], eq[:n], out=gt[:n])


def _check_streams(streams: Sequence[BlockStream], length: int) -> None:
    if not streams:
        raise BitmapError("multiway operation needs at least one input")
    for stream in streams:
        if stream.length != length:
            raise BitmapError(
                f"multiway input has length {stream.length}, "
                f"expected {length}"
            )


def _mask_tail(words: np.ndarray, length: int) -> None:
    tail = length % 64
    if tail and len(words):
        words[-1] &= (_ONE << np.uint64(tail)) - _ONE


def threshold_streams(
    k: int,
    streams: Sequence[BlockStream],
    length: int,
    block_words: int = DEFAULT_BLOCK_WORDS,
) -> np.ndarray:
    """Decoded words of "at least ``k`` of ``streams``", one lockstep pass.

    ``k <= 0`` yields all ones, ``k > len(streams)`` all zeros; padding
    bits beyond ``length`` are masked off.  Emits the
    ``expr.threshold.*`` counters when observability is installed.
    """
    _check_streams(streams, length)
    num_words = (length + 63) // 64
    out = np.empty(num_words, dtype=np.uint64)
    n = len(streams)
    o = _obs.active()
    if o is not None:
        o.count("expr.threshold.evals", 1)
        o.count("expr.threshold.children", n)
    if k <= 0:
        out[:] = _FULL
        _mask_tail(out, length)
        return out
    if k > n:
        out[:] = 0
        return out
    block_words = max(1, int(block_words))
    counter = ThresholdCounter(n, min(block_words, max(1, num_words)))
    for lo in range(0, num_words, block_words):
        hi = min(lo + block_words, num_words)
        counter.reset(hi - lo)
        for stream in streams:
            counter.add(stream.block(lo, hi))
        counter.compare_ge(k, out[lo:hi])
    _mask_tail(out, length)
    return out


def threshold_vectors(k: int, vectors: Sequence[BitVector]) -> BitVector:
    """"At least ``k`` of ``vectors``" over decoded bit vectors.

    The vectors are wrapped in zero-copy streams and counted blockwise,
    so the only full-length allocation is the answer — the compressed
    engine's Threshold node over decoded words goes through here.
    """
    if not vectors:
        raise BitmapError("threshold needs at least one input vector")
    length = len(vectors[0])
    streams = [VectorStream(v) for v in vectors]
    return BitVector(length, threshold_streams(k, streams, length))


def _open_streams(
    codec_names: str | Sequence[str],
    payloads: Sequence,
    length: int,
) -> list[BlockStream]:
    """One block stream per input of a multiway kernel.

    ``codec_names`` is one codec name for every payload or one name per
    payload.  An input that already is a
    :class:`~repro.compress.streams.BlockStream` is used as-is (a caller
    that keeps opened streams skips re-parsing the payload); any other
    input is an encoded payload opened through
    :func:`~repro.compress.streams.open_stream`.
    """
    if isinstance(codec_names, str):
        codec_names = [codec_names] * len(payloads)
    elif len(codec_names) != len(payloads):
        raise BitmapError(
            f"multiway operation got {len(codec_names)} codec names "
            f"for {len(payloads)} payloads"
        )
    return [
        p if isinstance(p, BlockStream) else open_stream(name, p, length)
        for name, p in zip(codec_names, payloads)
    ]


def multiway_threshold(
    k: int,
    codec_name: str | Sequence[str],
    payloads: Sequence,
    length: int,
    block_words: int = DEFAULT_BLOCK_WORDS,
) -> BitVector:
    """"At least ``k`` of ``payloads``" streamed straight off the codec.

    Each payload decodes incrementally through its
    :class:`~repro.compress.streams.BlockStream` (runs for WAH/EWAH/BBC,
    containers for roaring), so N encoded bitmaps are combined without
    decoding any of them whole.  ``codec_name`` is one name for every
    payload or one name per payload, and any input may be an
    already-opened :class:`~repro.compress.streams.BlockStream` — so
    payloads of different codecs, decoded ``raw`` words and cached
    streams mix freely.
    """
    streams = _open_streams(codec_name, payloads, length)
    return BitVector(
        length, threshold_streams(k, streams, length, block_words)
    )


def multiway_logical(
    op: str,
    codec_name: str | Sequence[str],
    payloads: Sequence,
    length: int,
    block_words: int = DEFAULT_BLOCK_WORDS,
) -> BitVector:
    """N-way ``and``/``or``/``xor`` over encoded payloads in one pass.

    Equivalent to the left-fold of pairwise compressed-domain ops but
    with zero intermediate payloads: every input block is combined into
    the output accumulator the moment it is decoded.  Inputs are
    resolved as in :func:`multiway_threshold`.
    """
    if op not in _REDUCERS:
        raise BitmapError(
            f"unknown multiway operator {op!r}; expected one of "
            f"{sorted(_REDUCERS)}"
        )
    reducer = _REDUCERS[op]
    streams = _open_streams(codec_name, payloads, length)
    _check_streams(streams, length)
    num_words = (length + 63) // 64
    out = np.empty(num_words, dtype=np.uint64)
    block_words = max(1, int(block_words))
    for lo in range(0, num_words, block_words):
        hi = min(lo + block_words, num_words)
        acc = out[lo:hi]
        acc[:] = streams[0].block(lo, hi)
        for stream in streams[1:]:
            reducer(acc, stream.block(lo, hi), out=acc)
    _mask_tail(out, length)
    return BitVector(length, out)
