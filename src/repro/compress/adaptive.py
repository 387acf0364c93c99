"""Adaptive per-bitmap codec selection: the ``auto`` meta-codec.

The paper's central lesson is that no single encoding wins everywhere —
the best scheme depends on each bitmap's density and run structure.
Roaring applies that lesson *inside* one bitmap, classifying every
2^16-bit chunk as array/bitmap/run by a size rule
(:func:`repro.compress.roaring._classify`).  This module lifts the same
rule to whole bitmaps: ``auto`` measures each vector's shape at encode
time, picks the cheapest concrete codec for *that bitmap*, and records
the choice in a one-byte tag so decode, compressed-domain operations,
block streams and persistence all dispatch transparently.

Payload layout: ``tag byte (CODEC_IDS) + inner payload``.  The tag ids
are part of the on-disk format (the v2 manifest's per-bitmap ``codec``
field cross-checks them) and must never be renumbered.

Decision table (sizes in bytes; ``n`` bits, ``c`` set bits, ``r``
maximal 1-runs, ``w = ceil(n/64)`` words):

======================  =======================================
candidate               size
======================  =======================================
``position_list``       ``4c``             (exact, arithmetic)
``range_list``          ``8r``             (exact, arithmetic)
``raw``                 ``8w``             (exact, arithmetic)
``bbc``/``wah``/        measured by a dry encode, *unless* the
``ewah``/``roaring``    fast path below already rules them out
======================  =======================================

**Fast path** (the lifted classification rule): every run-length codec
has a provable lower bound from the shape statistics alone — BBC
stores each mixed byte literally (``>= dirty_bytes``), WAH each mixed
31-bit group as a 4-byte literal (``>= 4 * dirty_groups``), EWAH each
mixed word verbatim plus one marker (``>= 8 * dirty_words + 8``), and
roaring pays a 7-byte directory entry per non-empty chunk plus
``min(2 * card, 4 * runs, 8 * words)`` inside each chunk.  When the
best arithmetic candidate is no larger than the smallest of those
bounds it is globally optimal and is chosen without encoding anything;
otherwise the four RLE codecs are dry-encoded and the global argmin
wins.  Ties break toward the earlier entry of :data:`PREFERENCE`
(cheaper decode).

Every selection reports ``compress.auto.selected{codec=...}`` to the
installed :mod:`repro.obs` instance.

Operations: same inner codec -> the inner codec's own
compressed-domain op, re-tagged (``raw`` inner uses the raw payload
ops).  Mixed inner codecs -> the two block streams are combined
block-at-a-time and the result re-encoded through selection, so a
mixed-codec index never materializes more than one block of scratch.
NOT and popcount always stay inside the inner codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, get_codec, register_codec
from repro.compress.compressed_ops import (
    COUNT_OPS,
    LOGICAL_OPS,
    NOT_OPS,
    register_compressed_ops,
)
from repro.compress.raw import raw_count, raw_logical, raw_not
from repro.compress.roaring import CHUNK_WORDS
from repro.compress.streams import open_stream, register_stream
from repro.errors import CodecError

#: Stable one-byte payload tags (on-disk format; never renumber).
CODEC_IDS = {
    "raw": 0,
    "bbc": 1,
    "wah": 2,
    "ewah": 3,
    "roaring": 4,
    "position_list": 5,
    "range_list": 6,
}
ID_CODECS = {tag: name for name, tag in CODEC_IDS.items()}

#: Candidates whose size is exact arithmetic over the shape statistics.
ARITHMETIC = ("position_list", "range_list", "raw")
#: Candidates sized by a dry encode when the fast path cannot decide.
MEASURED = ("roaring", "ewah", "wah", "bbc")
#: Tie-break order: equal-sized candidates resolve to the earlier name.
PREFERENCE = ARITHMETIC + MEASURED

_ONE = np.uint64(1)
_WAH_GROUP_BITS = 31


@dataclass(frozen=True)
class ShapeStats:
    """Per-bitmap shape measurements driving codec selection."""

    length: int
    count: int
    #: Maximal 1-runs.
    runs: int
    #: 64-bit words that are neither all-0 nor all-1.
    dirty_words: int
    #: Bytes that are neither 0x00 nor 0xFF.
    dirty_bytes: int
    #: 31-bit WAH groups that are neither all-0 nor all-1.
    dirty_groups: int
    #: Lower bound on a roaring encoding (directory + container floors).
    roaring_floor: int

    @property
    def density(self) -> float:
        return self.count / self.length if self.length else 0.0

    @property
    def clustering(self) -> float:
        """Mean 1-run length (the Markov clustering factor)."""
        return self.count / self.runs if self.runs else 0.0


def _dirty_units(per_unit: np.ndarray, unit_bits: int, length: int) -> int:
    """Units with 0 < popcount < capacity (the trailing unit's capacity
    is the logical bits it actually covers)."""
    if per_unit.size == 0:
        return 0
    capacity = np.full(per_unit.size, unit_bits, dtype=np.int64)
    tail = length - (per_unit.size - 1) * unit_bits
    capacity[-1] = tail
    return int(((per_unit > 0) & (per_unit < capacity)).sum())


def measure(vector: BitVector) -> ShapeStats:
    """Measure the shape statistics of ``vector`` (one pass, vectorized)."""
    length = len(vector)
    words = vector.words
    per_word = np.bitwise_count(words).astype(np.int64)
    count = int(per_word.sum())
    if count == 0:
        return ShapeStats(length, 0, 0, 0, 0, 0, 0)
    # 1-runs start at set bits whose predecessor bit is 0.
    carry = np.concatenate(
        (np.zeros(1, dtype=np.uint64), words[:-1] >> np.uint64(63))
    )
    run_start_bits = words & ~((words << _ONE) | carry)
    runs = int(np.bitwise_count(run_start_bits).astype(np.int64).sum())
    dirty_words = _dirty_units(per_word, 64, length)
    as_bytes = words.view(np.uint8)
    dirty_bytes = int(((as_bytes != 0) & (as_bytes != 0xFF)).sum())
    num_groups = -(-length // _WAH_GROUP_BITS)
    bits = np.unpackbits(as_bytes, bitorder="little", count=length)
    padded = np.zeros(num_groups * _WAH_GROUP_BITS, dtype=np.uint8)
    padded[:length] = bits
    per_group = padded.reshape(num_groups, _WAH_GROUP_BITS).sum(
        axis=1, dtype=np.int64
    )
    dirty_groups = _dirty_units(per_group, _WAH_GROUP_BITS, length)
    # Roaring floor: 7 directory bytes per non-empty chunk plus the
    # cheapest conceivable container for that chunk's card/runs.
    chunk_edges = np.arange(0, words.shape[0], CHUNK_WORDS)
    chunk_cards = np.add.reduceat(per_word, chunk_edges)
    chunk_runs = np.add.reduceat(
        np.bitwise_count(run_start_bits).astype(np.int64), chunk_edges
    )
    chunk_words = np.full(chunk_edges.size, CHUNK_WORDS, dtype=np.int64)
    chunk_words[-1] = words.shape[0] - int(chunk_edges[-1])
    occupied = chunk_cards > 0
    container_floor = np.minimum(
        np.minimum(2 * chunk_cards[occupied], 4 * chunk_runs[occupied]),
        8 * chunk_words[occupied],
    )
    roaring_floor = 4 + 7 * int(occupied.sum()) + int(container_floor.sum())
    return ShapeStats(
        length,
        count,
        runs,
        dirty_words,
        dirty_bytes,
        dirty_groups,
        roaring_floor,
    )


def candidate_sizes(stats: ShapeStats) -> dict[str, int]:
    """Exact encoded sizes of the arithmetic candidates."""
    return {
        "position_list": 4 * stats.count,
        "range_list": 8 * stats.runs,
        "raw": 8 * ((stats.length + 63) // 64),
    }


def rle_floor(stats: ShapeStats) -> int:
    """Smallest size any of the measured RLE codecs could reach."""
    ewah_floor = 8 * stats.dirty_words + (8 if stats.length else 0)
    wah_floor = 4 * stats.dirty_groups
    return min(stats.dirty_bytes, wah_floor, ewah_floor, stats.roaring_floor)


def select_codec(vector: BitVector, stats: ShapeStats | None = None) -> str:
    """The inner codec ``auto`` picks for ``vector`` (decision table)."""
    stats = measure(vector) if stats is None else stats
    sizes = candidate_sizes(stats)
    champion = min(ARITHMETIC, key=lambda name: (sizes[name], PREFERENCE.index(name)))
    if sizes[champion] <= rle_floor(stats):
        return champion
    for name in MEASURED:
        sizes[name] = get_codec(name).encoded_size(vector)
    return min(PREFERENCE, key=lambda name: (sizes[name], PREFERENCE.index(name)))


def payload_codec_name(payload) -> str:
    """The inner codec an ``auto`` payload is tagged with."""
    name, _ = split_payload(payload)
    return name


def split_payload(payload) -> tuple[str, object]:
    """(inner codec name, inner payload) of an ``auto`` payload."""
    if len(payload) < 1:
        raise CodecError("auto payload is missing its codec tag byte")
    tag = int(payload[0])
    try:
        name = ID_CODECS[tag]
    except KeyError:
        raise CodecError(
            f"unknown auto codec tag {tag}; known: {sorted(ID_CODECS)}"
        ) from None
    return name, payload[1:]


def _tagged(name: str, inner_payload: bytes) -> bytes:
    return bytes([CODEC_IDS[name]]) + inner_payload


def _inner_ops(name: str):
    """(logical, not_, count) payload ops for an inner codec.

    ``raw`` is not a compressed-domain codec (``engine="compressed"``
    rejects a raw *store*), but as an ``auto`` inner codec its payload
    ops are the plain word operations from :mod:`repro.compress.raw`.
    """
    if name == "raw":
        return raw_logical, raw_not, raw_count
    try:
        return LOGICAL_OPS[name], NOT_OPS[name], COUNT_OPS[name]
    except KeyError:
        raise CodecError(
            f"auto inner codec {name!r} has no compressed-domain ops"
        ) from None


def _combine_blockwise(
    op: str,
    name_a: str,
    body_a,
    name_b: str,
    body_b,
    length: int,
    block_words: int = 2048,
) -> BitVector:
    """Mixed-codec combine: stream both operands block-at-a-time."""
    try:
        op_fn = kernels._NP_OPS[op]
    except KeyError:
        raise CodecError(f"unknown compressed operation {op!r}") from None
    stream_a = open_stream(name_a, body_a, length)
    stream_b = open_stream(name_b, body_b, length)
    words = np.empty(stream_a.num_words, dtype=np.uint64)
    for lo in range(0, stream_a.num_words, block_words):
        hi = min(lo + block_words, stream_a.num_words)
        words[lo:hi] = op_fn(stream_a.block(lo, hi), stream_b.block(lo, hi))
    tail = length % 64
    if tail and words.shape[0]:
        words[-1] &= (_ONE << np.uint64(tail)) - _ONE
    return BitVector(length, words)


def auto_logical(op: str, payload_a, payload_b, length: int) -> bytes:
    """AND/OR/XOR over two ``auto`` payloads.

    Matching inner codecs stay in that codec's compressed domain; a
    mixed pair is combined blockwise and re-encoded through selection.
    """
    name_a, body_a = split_payload(payload_a)
    name_b, body_b = split_payload(payload_b)
    if name_a == name_b:
        logical, _, _ = _inner_ops(name_a)
        return _tagged(name_a, logical(op, body_a, body_b, length))
    result = _combine_blockwise(op, name_a, body_a, name_b, body_b, length)
    return AUTO_CODEC._encode(result)


def auto_not(payload, length: int) -> bytes:
    """Complement of an ``auto`` payload, staying in the inner codec."""
    name, body = split_payload(payload)
    _, not_, _ = _inner_ops(name)
    return _tagged(name, not_(body, length))


def auto_count(payload) -> int:
    """Popcount of an ``auto`` payload via the inner codec's counter."""
    name, body = split_payload(payload)
    _, _, count = _inner_ops(name)
    return count(body)


def _open_auto_stream(payload, length: int):
    """Block stream over an ``auto`` payload: peel the tag, open inner."""
    name, body = split_payload(payload)
    return open_stream(name, body, length)


class AutoCodec(Codec):
    """Meta-codec: per-bitmap selection with a one-byte dispatch tag."""

    name = "auto"

    def _encode(self, vector: BitVector) -> bytes:
        inner = select_codec(vector)
        o = _obs.active()
        if o is not None:
            o.count("compress.auto.selected", 1, codec=inner)
        return _tagged(inner, get_codec(inner)._encode(vector))

    def _decode(self, payload, length: int) -> BitVector:
        name, body = split_payload(payload)
        return get_codec(name)._decode(body, length)

    def _decode_view(self, payload, length: int) -> BitVector | None:
        name, body = split_payload(payload)
        return get_codec(name)._decode_view(body, length)


AUTO_CODEC = AutoCodec()
register_codec(AUTO_CODEC)
register_compressed_ops("auto", auto_logical, auto_not, auto_count)
register_stream("auto", _open_auto_stream)
