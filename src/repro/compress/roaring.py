"""Roaring bitmap codec: 2^16-bit chunks with typed containers.

Roaring (Chambi, Lemire, Kaser & Godin, "Better bitmap performance with
Roaring bitmaps") partitions the bit space into chunks of 2^16 bits and
stores each non-empty chunk in whichever *container* representation is
smallest:

* **array** — the sorted ``uint16`` offsets of the set bits, used for
  sparse chunks (cardinality <= 4096, i.e. where two bytes per bit beat
  the 8 KB bitmap);
* **bitmap** — the chunk's verbatim 64-bit words, used for dense chunks
  (cardinality > 4096); the final chunk of a non-aligned vector stores
  only the words the logical length needs;
* **run** — ``(start, length)`` pairs of the chunk's maximal 1-runs,
  used whenever ``4 * num_runs`` bytes undercut both alternatives (the
  ``runOptimize`` rule of the Roaring paper's follow-up).

Unlike the word-aligned RLE codecs (WAH/EWAH) the compressed form is
*indexed*: the container directory maps high bits to containers, so a
block stream (:class:`RoaringStream`, the codec's one reader) gathers
only the containers overlapping a word window without scanning a run
stream; a whole-vector decode is its full window.

Stream layout (all little-endian)::

    uint32           number of containers n
    uint16[n]        chunk keys (bits 16..31 of the positions), ascending
    uint8[n]         container kinds (0 = array, 1 = bitmap, 2 = run)
    uint32[n]        counts (array: cardinality; bitmap: word count;
                     run: number of runs)
    payloads         concatenated container payloads, in directory order
                     (array: uint16 offsets; bitmap: uint64 words;
                     run: uint16 starts then uint16 lengths-minus-one)

Container construction funnels through :func:`container_from_words`
and its one classification rule (:func:`_classify`), so every payload
is canonical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, register_codec
from repro.compress.streams import BlockStream, scatter_bits
from repro.errors import CodecError

#: Bits per chunk (the container partition size).
CHUNK_BITS = 1 << 16
#: 64-bit words per full chunk.
CHUNK_WORDS = CHUNK_BITS // 64
#: Largest cardinality stored as an array container.
ARRAY_MAX_CARD = 4096

#: Container kind tags (also the serialized kind bytes).
ARRAY = 0
BITMAP = 1
RUN = 2

_ONE = np.uint64(1)


@dataclass
class Container:
    """One chunk's worth of bits in its chosen representation.

    ``data`` is a sorted ``uint16`` offset array (:data:`ARRAY`), a
    ``uint64`` word array (:data:`BITMAP`), or a ``(starts, lengths)``
    pair of a ``uint16`` array and an ``int64`` array (:data:`RUN`).
    """

    key: int
    kind: int
    data: object


def chunk_geometry(key: int, length: int) -> tuple[int, int]:
    """(bits, words) covered by chunk ``key`` of a ``length``-bit vector."""
    bits = min(CHUNK_BITS, length - key * CHUNK_BITS)
    return bits, (bits + 63) // 64


def _classify(card: int, num_runs: int, chunk_words: int) -> int:
    """Pick the smallest container kind for the given chunk statistics."""
    if 4 * num_runs < min(chunk_words * 8, 2 * card):
        return RUN
    if card <= ARRAY_MAX_CARD:
        return ARRAY
    return BITMAP


def _runs_from_positions(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal consecutive runs of a sorted position array."""
    breaks = np.flatnonzero(np.diff(rel) != 1)
    starts = rel[np.concatenate(([0], breaks + 1))]
    ends = rel[np.concatenate((breaks, [rel.size - 1]))]
    return starts, ends - starts + 1


def container_from_words(
    key: int, words: np.ndarray, chunk_bits: int
) -> Container | None:
    """Best container for a chunk given as its 64-bit words."""
    card = int(np.bitwise_count(words).astype(np.int64).sum())
    if card == 0:
        return None
    # 1-runs start at set bits whose predecessor (within the chunk) is 0.
    carry = np.concatenate(
        (np.zeros(1, dtype=np.uint64), words[:-1] >> np.uint64(63))
    )
    run_starts = words & ~((words << _ONE) | carry)
    num_runs = int(np.bitwise_count(run_starts).astype(np.int64).sum())
    kind = _classify(card, num_runs, words.shape[0])
    if kind == BITMAP:
        return Container(key, BITMAP, words.copy())
    rel = np.flatnonzero(
        np.unpackbits(words.view(np.uint8), bitorder="little")
    ).astype(np.int64)
    if kind == ARRAY:
        return Container(key, ARRAY, rel.astype(np.uint16))
    starts, lengths = _runs_from_positions(rel)
    return Container(key, RUN, (starts.astype(np.uint16), lengths))


# ---------------------------------------------------------------------------
# Vector -> containers
# ---------------------------------------------------------------------------


def containers_from_vector(vector: BitVector) -> list[Container]:
    """Partition ``vector`` into its non-empty chunk containers."""
    length = len(vector)
    if length == 0:
        return []
    words = vector.words
    per_word = np.bitwise_count(words).astype(np.int64)
    edges = np.arange(0, words.shape[0], CHUNK_WORDS)
    cards = np.add.reduceat(per_word, edges)
    out: list[Container] = []
    for key in np.flatnonzero(cards).tolist():
        chunk_bits, chunk_words = chunk_geometry(key, length)
        start = key * CHUNK_WORDS
        out.append(
            container_from_words(key, words[start : start + chunk_words], chunk_bits)
        )
    return out


# ---------------------------------------------------------------------------
# Containers <-> bytes
# ---------------------------------------------------------------------------


def roaring_bytes(containers: list[Container]) -> bytes:
    """Serialize containers (already in ascending key order)."""
    n = len(containers)
    keys = np.fromiter((c.key for c in containers), dtype="<u2", count=n)
    kinds = np.fromiter((c.kind for c in containers), dtype=np.uint8, count=n)
    counts = np.empty(n, dtype="<u4")
    parts: list[bytes] = []
    for i, container in enumerate(containers):
        if container.kind == ARRAY:
            counts[i] = container.data.size
            parts.append(container.data.astype("<u2").tobytes())
        elif container.kind == BITMAP:
            counts[i] = container.data.shape[0]
            parts.append(container.data.astype("<u8").tobytes())
        else:
            starts, lengths = container.data
            counts[i] = starts.size
            parts.append(starts.astype("<u2").tobytes())
            parts.append((lengths - 1).astype("<u2").tobytes())
    header = np.asarray([n], dtype="<u4").tobytes()
    return b"".join([header, keys.tobytes(), kinds.tobytes(), counts.tobytes(), *parts])


def containers_from_roaring(payload: bytes) -> list[Container]:
    """Parse a roaring stream back into containers (with validation).

    Container arrays view the payload's memory where its byte order
    allows: treat them as read-only."""
    size = len(payload)
    if size < 4:
        raise CodecError(f"roaring payload too short ({size} bytes)")
    n = int(np.frombuffer(payload, dtype="<u4", count=1)[0])
    directory_end = 4 + 7 * n
    if size < directory_end:
        raise CodecError("truncated roaring container directory")
    keys = np.frombuffer(payload, dtype="<u2", count=n, offset=4)
    kinds = np.frombuffer(payload, dtype=np.uint8, count=n, offset=4 + 2 * n)
    counts = np.frombuffer(payload, dtype="<u4", count=n, offset=4 + 3 * n)
    if n and not bool((keys[1:] > keys[:-1]).all()):
        raise CodecError("roaring container keys not strictly ascending")
    out: list[Container] = []
    offset = directory_end
    for i in range(n):
        kind = int(kinds[i])
        count = int(counts[i])
        if count == 0:
            raise CodecError("empty roaring container")
        if kind == ARRAY:
            nbytes = 2 * count
        elif kind == BITMAP:
            nbytes = 8 * count
            if count > CHUNK_WORDS:
                raise CodecError(
                    f"roaring bitmap container of {count} words exceeds a chunk"
                )
        elif kind == RUN:
            nbytes = 4 * count
        else:
            raise CodecError(f"unknown roaring container kind {kind}")
        if offset + nbytes > size:
            raise CodecError("truncated roaring container payload")
        if kind == ARRAY:
            data = np.frombuffer(payload, dtype="<u2", count=count, offset=offset)
            data = data.astype(np.uint16, copy=False)
            if count > 1 and not bool((data[1:] > data[:-1]).all()):
                raise CodecError("roaring array container not strictly sorted")
            out.append(Container(int(keys[i]), ARRAY, data))
        elif kind == BITMAP:
            words = np.frombuffer(payload, dtype="<u8", count=count, offset=offset)
            out.append(
                Container(int(keys[i]), BITMAP, words.astype(np.uint64, copy=False))
            )
        else:
            starts = np.frombuffer(
                payload, dtype="<u2", count=count, offset=offset
            ).astype(np.uint16, copy=False)
            lengths = (
                np.frombuffer(
                    payload, dtype="<u2", count=count, offset=offset + 2 * count
                ).astype(np.int64)
                + 1
            )
            ends = starts.astype(np.int64) + lengths
            if int(ends.max()) > CHUNK_BITS:
                raise CodecError("roaring run container overruns its chunk")
            if count > 1 and not bool((starts[1:].astype(np.int64) > ends[:-1]).all()):
                raise CodecError("roaring run container runs overlap or touch")
            out.append(Container(int(keys[i]), RUN, (starts, lengths)))
        offset += nbytes
    if offset != size:
        raise CodecError(
            f"roaring payload has {size - offset} trailing bytes"
        )
    return out


class RoaringStream(BlockStream):
    """Container-directory window gather of a roaring stream.

    The directory is already an index over 2^16-bit chunks: a word
    window touches only the containers whose chunk overlaps it, found
    by bisecting the (ascending) keys.  Bitmap
    containers are copied by word slice; array and run containers are
    scattered as positions, one scatter per window.
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        containers = containers_from_roaring(payload)
        num_chunks = (length + CHUNK_BITS - 1) // CHUNK_BITS
        # Only the final chunk can be shorter than a full one.
        last_bits, last_words = chunk_geometry(num_chunks - 1, length)
        for container in containers:
            key, data = container.key, container.data
            if key >= num_chunks:
                raise CodecError(
                    f"roaring container key {key} overruns the declared "
                    f"length {length}"
                )
            if container.kind == BITMAP:
                chunk_words = last_words if key == num_chunks - 1 else CHUNK_WORDS
                if data.shape[0] != chunk_words:
                    raise CodecError(
                        f"roaring bitmap container has {data.shape[0]} words, "
                        f"chunk {key} holds {chunk_words}"
                    )
            elif key < num_chunks - 1:
                continue
            elif container.kind == ARRAY:
                if int(data[-1]) >= last_bits:
                    raise CodecError(
                        "roaring array container overruns the declared length"
                    )
            elif int((data[0].astype(np.int64) + data[1]).max()) > last_bits:
                raise CodecError("roaring run container overruns the declared length")
        self._containers = containers
        self._keys = [container.key for container in containers]

    def block(self, start: int, stop: int) -> np.ndarray:
        size = stop - start
        out = np.zeros(size, dtype=np.uint64)
        lo = bisect_left(self._keys, start // CHUNK_WORDS)
        hi = bisect_left(self._keys, -(-stop // CHUNK_WORDS))
        positions: list[np.ndarray] = []
        for container in self._containers[lo:hi]:
            # The chunk's first word, relative to the window.
            base = container.key * CHUNK_WORDS - start
            if container.kind == BITMAP:
                src_lo = max(-base, 0)
                src_hi = min(size - base, container.data.shape[0])
                out[base + src_lo : base + src_hi] = container.data[src_lo:src_hi]
                continue
            if container.kind == ARRAY:
                rel = container.data.astype(np.int64)
            else:
                starts, lengths = container.data
                rel = kernels.expand_ranges(starts, lengths)
            pos = rel + base * 64
            if base < 0 or (base + CHUNK_WORDS > size and stop < self.num_words):
                pos = pos[(pos >= 0) & (pos < size * 64)]
            positions.append(pos)
        if positions:
            scatter_bits(out, np.concatenate(positions))
        return out


class RoaringCodec(Codec):
    """Roaring container codec (2^16-bit chunks, typed containers)."""

    name = "roaring"

    def _encode(self, vector: BitVector) -> bytes:
        return roaring_bytes(containers_from_vector(vector))

    def _stream(self, payload, length: int) -> RoaringStream:
        return RoaringStream(payload, length)


register_codec(RoaringCodec())
