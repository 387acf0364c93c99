"""Bit-sliced threshold counting, and the deprecated N-way adapters.

Kaser & Lemire ("Compressed bitmap indexes: beyond unions and
intersections") show that an N-operand operation needs one pass over
its inputs, never an intermediate per operand, and that the symmetric
"at least k of N" function admits the same pass.
:func:`repro.expr.evaluate` is that pass for every engine: it walks the
expression once per word range, reading each leaf from resident words
or from a :class:`~repro.compress.streams.BlockStream` over its
payload.  This module holds the counter its threshold nodes use:

* :class:`ThresholdCounter` — a word-parallel **bit-sliced counter**:
  ``ceil(log2(N+1))`` word slices hold, per bit position, the binary
  count of inputs that have that bit set; each input is ripple-carry
  added in O(width) bulk ops and the final ``count >= k`` compare is a
  bitwise magnitude comparison against the constant ``k``.

:func:`multiway_logical` and :func:`multiway_threshold` are adapters
that build the ``Or``/``And``/``Xor``/``Threshold`` expression over
opened streams and hand it to :func:`repro.expr.evaluate`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.bitmap import BitVector
from repro.compress.streams import BlockStream, open_stream
from repro.errors import BitmapError

_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


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


def _streams(codec_name: str | Sequence[str], payloads: Sequence, length: int):
    """One block stream per payload; ``codec_name`` is one name for
    every payload or one per payload, and an opened
    :class:`~repro.compress.streams.BlockStream` is used as-is."""
    if not payloads:
        raise BitmapError("multiway operation needs at least one input")
    names = [codec_name] * len(payloads) if isinstance(codec_name, str) else codec_name
    if len(names) != len(payloads):
        raise BitmapError(
            f"multiway operation got {len(names)} codec names for {len(payloads)} payloads"
        )
    return [
        p if isinstance(p, BlockStream) else open_stream(name, p, length)
        for name, p in zip(names, payloads)
    ]


# Deprecated: delete with perfbench's wrappers (ROADMAP item 2).
def multiway_threshold(
    k: int, codec_name: str | Sequence[str], payloads: Sequence, length: int
) -> BitVector:
    """"At least ``k`` of ``payloads``" (``k <= 0`` all ones, ``k > N``
    all zeros) in one :func:`repro.expr.evaluate` walk over their
    block streams; inputs as in :func:`multiway_logical`."""
    from repro.expr import Leaf, at_least, evaluate

    streams = _streams(codec_name, payloads, length)
    expr = at_least(k, [Leaf(i) for i in range(len(streams))])
    return evaluate(expr, streams.__getitem__, length)


# Deprecated: delete with perfbench's wrappers (ROADMAP item 2).
def multiway_logical(
    op: str, codec_name: str | Sequence[str], payloads: Sequence, length: int
) -> BitVector:
    """N-way ``and``/``or``/``xor`` of encoded payloads in one
    :func:`repro.expr.evaluate` walk over their block streams, so
    payloads of different codecs, ``raw`` words and opened streams mix."""
    from repro.expr import And, Leaf, Or, Xor, evaluate

    node = {"and": And, "or": Or, "xor": Xor}.get(op)
    if node is None:
        raise BitmapError(f"unknown multiway operator {op!r}; expected and, or or xor")
    streams = _streams(codec_name, payloads, length)
    expr = node(tuple(Leaf(i) for i in range(len(streams))))
    return evaluate(expr, streams.__getitem__, length)
