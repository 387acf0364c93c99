"""Word-Aligned Hybrid (WAH) codec, 32-bit variant.

WAH is the codec that replaced BBC in FastBit.  It is included here as a
cross-check and ablation partner for the byte-aligned codec: both are
run-length schemes, but WAH trades some compression for word-aligned
decoding.  The format is the classic one:

* the bit sequence is split into groups of 31 bits (the last group is
  zero-padded);
* a *literal word* has MSB 0 and carries one group verbatim;
* a *fill word* has MSB 1, bit 30 the fill value, and bits 29..0 a count
  of consecutive all-equal groups.

Runs longer than ``2**30`` groups are emitted as multiple fill words.

Encode and decode are built on the vectorized run kernels in
:mod:`repro.compress.kernels`.  Encoding is batched: the group values
of many equal-length bitmaps come from whole-matrix word shifts, one
``np.flatnonzero`` segments every row into runs, and every stream is
assembled by one bulk scatter — no per-group Python iteration.  A
single bitmap is the one-row case.  Decoding is the reader's
(:class:`WahStream`) word window, realigned from the groups by the
inverse shifts (:func:`words_from_groups`).  A probe (:meth:`Codec.probe_many`)
reads the bits at given positions of a batch of streams with one run
search over their concatenation, never decoding them.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, register_codec
from repro.compress.kernels import DIRTY, FILL_ONE, Runs
from repro.compress.streams import BlockStream
from repro.errors import CodecError

_GROUP_BITS = 31
_LITERAL_MASK = (1 << _GROUP_BITS) - 1
_FILL_FLAG = 1 << 31
_FILL_VALUE_FLAG = 1 << 30
_MAX_FILL = (1 << 30) - 1


def group_rows(words: np.ndarray, length: int) -> np.ndarray:
    """31-bit group values of equal-length bitmaps, one row per bitmap.

    ``words`` holds each bitmap's 64-bit words plus at least one zero
    word of slack per row (group ``g`` may straddle two words); bits past
    ``length`` must be zero (the padding invariant).  LSB = first bit of
    the group, matching the format's bit order.  Whole-matrix shifts:
    no per-bit unpacking.
    """
    num_groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
    first_bit = np.arange(num_groups, dtype=np.int64) * _GROUP_BITS
    word = first_bit >> 6
    shift = (first_bit & 63).astype(np.uint64)
    # A shift by 64 is undefined; 63 pushes the high word's bits past the
    # group's 31 bits just the same.
    high_shift = np.minimum(np.uint64(64) - shift, np.uint64(63))
    groups = (words[:, word] >> shift) | (words[:, word + 1] << high_shift)
    return (groups & np.uint64(_LITERAL_MASK)).astype(np.uint32)


def words_from_groups(groups: np.ndarray, bit_offset: int, num_words: int) -> np.ndarray:
    """The inverse of :func:`group_rows`: ``num_words`` 64-bit words of
    the bit string that starts ``bit_offset`` bits into ``groups[0]``.

    Word ``w`` starts in group ``g = (bit_offset + 64w) // 31`` at bit
    ``o < 31`` and takes its bits from groups ``g .. g+3``: whole-array
    shifts, no per-bit unpacking.  Every word must start inside
    ``groups``; its bits past the last group read zero.
    """
    first_bit = np.arange(num_words, dtype=np.int64) * 64 + bit_offset
    g, o = np.divmod(first_bit, _GROUP_BITS)
    o = o.astype(np.uint64)
    padded = np.zeros(groups.shape[0] + 3, dtype=np.uint64)
    padded[: groups.shape[0]] = groups
    # Shifts 1..31 and 32..62; the fourth group lands at 93 - o, which
    # only fits in a word when o == 30, so it goes through two legal
    # shifts that push its bits out otherwise.
    s1 = np.uint64(_GROUP_BITS) - o
    s2 = np.uint64(2 * _GROUP_BITS) - o
    out = padded[g] >> o
    out |= padded[g + 1] << s1
    out |= padded[g + 2] << s2
    out |= (padded[g + 3] << s2) << np.uint64(_GROUP_BITS)
    return out


def check_group_count(total: int, num_groups: int) -> None:
    """Raise the :class:`CodecError` of a stream that does not cover
    exactly ``num_groups`` groups."""
    if total > num_groups:
        raise CodecError("WAH stream overruns the declared length")
    if total != num_groups:
        raise CodecError(f"WAH stream produced {total} groups, expected {num_groups}")


def runs_from_wah(payload: bytes) -> Runs:
    """Parse a WAH stream into group runs with whole-array arithmetic."""
    if len(payload) % 4:
        raise CodecError(f"WAH payload size {len(payload)} not word aligned")
    words = np.frombuffer(payload, dtype=np.uint32)
    is_fill = (words & np.uint32(_FILL_FLAG)) != 0
    types = np.full(words.shape[0], DIRTY, dtype=np.int8)
    fill_one = is_fill & ((words & np.uint32(_FILL_VALUE_FLAG)) != 0)
    types[is_fill] = kernels.FILL_ZERO
    types[fill_one] = FILL_ONE
    lengths = np.where(
        is_fill, (words & np.uint32(_MAX_FILL)).astype(np.int64), np.int64(1)
    )
    return Runs(types, lengths, words[~is_fill])


def wah_from_runs(runs: Runs) -> bytes:
    """The canonical WAH stream for ``runs`` (one-row
    :func:`wah_from_run_rows`)."""
    return wah_from_run_rows(runs, np.array([runs.num_runs]))[0]


def wah_from_run_rows(runs: Runs, runs_per_row: np.ndarray) -> list[bytes]:
    """Emit one canonical WAH stream per row via bulk scatter.

    ``runs`` concatenates the rows' run sequences and ``runs_per_row``
    counts each row's runs (:func:`kernels.runs_from_element_rows`).
    Canonical means the same stream the reference encoder produces: a
    lone fillable group becomes a literal word, a longer clean run
    becomes fill words, split into ``_MAX_FILL``-group chunks when it
    overflows the 30-bit counter.
    """
    is_fill = runs.types != DIRTY
    lengths = runs.lengths
    counts = np.where(is_fill, -(-lengths // _MAX_FILL), lengths)
    offsets = np.cumsum(counts) - counts
    out = np.empty(int(counts.sum()), dtype=np.uint32)
    if is_fill.any():
        f_len = lengths[is_fill]
        f_one = runs.types[is_fill] == FILL_ONE
        f_words = counts[is_fill]
        fill_flag = np.where(
            f_one, np.uint32(_FILL_FLAG | _FILL_VALUE_FLAG), np.uint32(_FILL_FLAG)
        )
        literal = np.where(f_one, np.uint32(_LITERAL_MASK), np.uint32(0))
        last = offsets[is_fill] + f_words - 1
        remainder = (f_len - (f_words - 1) * _MAX_FILL).astype(np.uint32)
        out[last] = np.where(f_len == 1, literal, fill_flag | remainder)
        full = f_words > 1
        if full.any():
            chunks = f_words[full] - 1
            out[kernels.expand_ranges(offsets[is_fill][full], chunks)] = np.repeat(
                fill_flag[full] | np.uint32(_MAX_FILL), chunks
            )
    dirty = ~is_fill
    if dirty.any():
        out[kernels.expand_ranges(offsets[dirty], lengths[dirty])] = runs.values
    run_bounds = np.concatenate(([0], np.cumsum(runs_per_row)))
    word_bounds = np.concatenate(([0], np.cumsum(counts)))[run_bounds].tolist()
    raw = out.tobytes()
    return [raw[4 * lo : 4 * hi] for lo, hi in zip(word_bounds, word_bounds[1:])]


class WahStream(BlockStream):
    """Group-window rematerialization of a WAH stream.

    WAH's 31-bit groups straddle 64-bit word boundaries, so a word
    window maps to a group window plus a bit offset: the overlapped
    groups are rematerialized and realigned by word shifts
    (:func:`words_from_groups`).  The scratch arrays are proportional to
    the block, not the vector.
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        self._num_groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        self._slicer = kernels.RunSlicer(runs_from_wah(payload))
        check_group_count(self._slicer.total, self._num_groups)

    def block(self, start: int, stop: int) -> np.ndarray:
        bit_lo = start * 64
        g_lo = bit_lo // _GROUP_BITS
        g_hi = min(-(-stop * 64 // _GROUP_BITS), self._num_groups)
        groups = kernels.elements_from_runs(
            self._slicer.slice(g_lo, g_hi), _LITERAL_MASK, np.uint32
        )
        return words_from_groups(groups, bit_lo - g_lo * _GROUP_BITS, stop - start)


class WahCodec(Codec):
    """32-bit Word-Aligned Hybrid run-length codec."""

    name = "wah"

    def _encode(self, vector: BitVector) -> bytes:
        return self._encode_many([vector])[0]

    def _encode_many(self, vectors) -> list[bytes]:
        """Encode equal-length bitmaps together, in blocks of at most
        :data:`~repro.expr.evaluator.BLOCK_WORDS` words."""
        from repro.expr.evaluator import BLOCK_WORDS  # expr imports compress

        payloads: list[bytes] = [b""] * len(vectors)
        by_length: dict[int, list[int]] = {}
        for i, vector in enumerate(vectors):
            by_length.setdefault(len(vector), []).append(i)
        for length, members in by_length.items():
            if length == 0:
                continue
            width = vectors[members[0]].num_words + 1
            per_block = max(1, BLOCK_WORDS // width)
            for lo in range(0, len(members), per_block):
                block = members[lo : lo + per_block]
                words = np.zeros((len(block), width), dtype=np.uint64)
                for row, i in enumerate(block):
                    words[row, :-1] = vectors[i].words
                runs, per_row = kernels.runs_from_element_rows(
                    group_rows(words, length), _LITERAL_MASK
                )
                for i, payload in zip(block, wah_from_run_rows(runs, per_row)):
                    payloads[i] = payload
        return payloads

    def _stream(self, payload, length: int) -> WahStream:
        return WahStream(payload, length)

    def _probe_many(self, payloads, length: int, positions: np.ndarray) -> np.ndarray:
        """One run search over the concatenated streams, no decode.

        Every stream must cover exactly the groups of ``length`` bits
        (the reader's check, :func:`check_group_count`), so stream
        ``i``'s group ``g`` is group ``i * groups + g`` of the
        concatenation; the word covering it is the first whose cumulative
        group count passes it.  A fill word answers with its fill bit, a
        literal with its own bit.
        """
        num_groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        sizes = [len(payload) for payload in payloads]
        for size in sizes:
            if size % 4:
                raise CodecError(f"WAH payload size {size} not word aligned")
        words = np.frombuffer(b"".join(payloads), dtype=np.uint32)
        is_fill = words >= np.uint32(_FILL_FLAG)
        counts = (words & np.uint32(_MAX_FILL)).astype(np.int64)
        counts[~is_fill] = 1
        # starts[j]: the groups before word j of the concatenation.
        starts = np.zeros(words.size + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        before = 0
        for end in accumulate(sizes):
            after = int(starts[end // 4])
            check_group_count(after - before, num_groups)
            before = after
        groups, bits = np.divmod(positions, _GROUP_BITS)
        offsets = np.arange(len(sizes), dtype=np.int64) * num_groups
        word = words[np.searchsorted(starts[1:], offsets[:, None] + groups, side="right")]
        shift = np.where(
            word >= np.uint32(_FILL_FLAG), np.uint32(30), bits.astype(np.uint32)
        )
        return ((word >> shift) & np.uint32(1)).astype(bool)

register_codec(WahCodec())
