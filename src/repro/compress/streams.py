"""Block-at-a-time decode streams over encoded bitmap payloads.

The fused expression evaluator (:mod:`repro.expr.fused`) walks a query
tree in word blocks small enough to stay in L1/L2, so no expression
intermediate is ever a full-vector allocation.  For that it needs leaf
decode to be *incremental*: given an encoded payload, produce any word
window ``[start, stop)`` of the decoded vector without materializing
the rest.

Each codec gets a :class:`BlockStream`:

* **raw** — the payload *is* the word array; blocks are zero-copy
  ``numpy`` slices of it (and of the mmap when the payload is a
  :class:`~repro.storage.mmap_store.MappedDirectoryStore` view);
* **ewah** — word-granular runs; a :class:`~repro.compress.kernels.RunSlicer`
  window rematerializes exactly the requested words;
* **bbc** — byte-granular runs; the byte window is rematerialized and
  viewed as words, synthesizing the trailing zero bytes the encoder
  trimmed;
* **wah** — 31-bit groups do not align to 64-bit words, so the group
  window covering the block is rematerialized, bit-unpacked, shifted to
  the block's bit offset and repacked — the only codec that needs
  bit-level realignment;
* **roaring** — the container directory is an index: blocks gather only
  the containers overlapping the window (bitmap containers by word
  slice, array/run containers by position scatter).

Every stream validates its payload against the declared length at
construction time, raising the same :class:`~repro.errors.CodecError`
conditions as the codec's whole-vector ``decode``.  The arrays returned
by :meth:`BlockStream.block` may be read-only views or a scratch buffer
reused by the next call — callers must copy or combine, never hold.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.bbc import _FULL_BYTE, runs_from_bbc
from repro.compress.ewah import _FULL, runs_from_ewah
from repro.compress.roaring import (
    ARRAY,
    BITMAP,
    CHUNK_BITS,
    CHUNK_WORDS,
    chunk_geometry,
    containers_from_roaring,
)
from repro.compress.wah import _GROUP_BITS, runs_from_wah
from repro.errors import CodecError

_ONE = np.uint64(1)


def _num_words(length: int) -> int:
    return (length + 63) // 64


class BlockStream:
    """Incremental word-window access to one encoded bitmap.

    ``length`` is the logical bit length, ``num_words`` the decoded
    word count; :meth:`block` returns the decoded ``uint64`` words of
    ``[start, stop)`` (``stop`` capped at ``num_words`` by the caller).
    The returned array may alias internal or mapped memory and may be
    overwritten by the next :meth:`block` call.

    ``len(stream)`` is the size in bytes of the encoded form it streams
    (set by :func:`open_stream`), so an opened stream can stand in for
    its payload wherever payload bytes are summed.  A stream holds no
    cursor: one opened stream can serve any number of passes.
    """

    #: Encoded bytes behind the stream (see :func:`open_stream`).
    nbytes = 0

    def __init__(self, length: int):
        self.length = int(length)
        self.num_words = _num_words(length)

    def __len__(self) -> int:
        return self.nbytes

    def block(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError


class VectorStream(BlockStream):
    """Zero-copy window view over an already-decoded vector."""

    def __init__(self, vector: BitVector):
        super().__init__(len(vector))
        self._words = vector.words
        self.nbytes = self._words.nbytes

    def block(self, start: int, stop: int) -> np.ndarray:
        return self._words[start:stop]


class RawStream(BlockStream):
    """Zero-copy window view over a raw word payload."""

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


class EwahStream(BlockStream):
    """Word-run window rematerialization of an EWAH stream."""

    def __init__(self, payload, length: int):
        super().__init__(length)
        runs = runs_from_ewah(payload)
        total = runs.total
        if total > self.num_words:
            raise CodecError("EWAH stream overruns the declared length")
        if total != self.num_words:
            raise CodecError(
                f"EWAH stream produced {total} words, expected {self.num_words}"
            )
        self._slicer = kernels.RunSlicer(runs)

    def block(self, start: int, stop: int) -> np.ndarray:
        window = self._slicer.slice(start, stop)
        return kernels.elements_from_runs(window, _FULL, np.uint64)


class BbcStream(BlockStream):
    """Byte-run window rematerialization of a BBC atom stream.

    The encoder trims trailing zero bytes, so a window past the stream
    end is padded with zeros; windows also extend past the logical byte
    length up to the word boundary (those padding bytes are zero too).
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        logical_bytes = (length + 7) // 8
        runs = runs_from_bbc(payload)
        if runs.total > logical_bytes:
            raise CodecError(
                f"BBC stream decodes to {runs.total} bytes but length "
                f"{length} allows only {logical_bytes}"
            )
        self._slicer = kernels.RunSlicer(runs)

    def block(self, start: int, stop: int) -> np.ndarray:
        nbytes = (stop - start) * 8
        window = self._slicer.slice(start * 8, stop * 8)
        out = np.zeros(nbytes, dtype=np.uint8)
        body = kernels.elements_from_runs(window, _FULL_BYTE, np.uint8)
        out[: body.shape[0]] = body
        return out.view(np.uint64)


class WahStream(BlockStream):
    """Bit-realigned window rematerialization of a WAH stream.

    WAH's 31-bit groups straddle 64-bit word boundaries, so a word
    window maps to a group window plus a bit offset: the overlapped
    groups are rematerialized, unpacked to bits, shifted and repacked.
    The scratch arrays are proportional to the block, not the vector.
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        num_groups = (length + _GROUP_BITS - 1) // _GROUP_BITS
        runs = runs_from_wah(payload)
        total = runs.total
        if total > num_groups:
            raise CodecError("WAH stream overruns the declared length")
        if total != num_groups:
            raise CodecError(
                f"WAH stream produced {total} groups, expected {num_groups}"
            )
        self._slicer = kernels.RunSlicer(runs)
        self._num_groups = num_groups

    def block(self, start: int, stop: int) -> np.ndarray:
        bit_lo = start * 64
        bit_hi = min(stop * 64, self._num_groups * _GROUP_BITS)
        g_lo = bit_lo // _GROUP_BITS
        g_hi = min(-(-bit_hi // _GROUP_BITS), self._num_groups) if bit_hi > bit_lo else g_lo
        groups = kernels.elements_from_runs(
            self._slicer.slice(g_lo, g_hi), (1 << _GROUP_BITS) - 1, np.uint32
        )
        out_bits = np.zeros((stop - start) * 64, dtype=bool)
        if groups.shape[0]:
            raw = np.frombuffer(groups.astype("<u4").tobytes(), dtype=np.uint8)
            bits = np.unpackbits(raw, bitorder="little").reshape(-1, 32)[
                :, :_GROUP_BITS
            ].reshape(-1)
            offset = bit_lo - g_lo * _GROUP_BITS
            usable = min(bits.shape[0] - offset, bit_hi - bit_lo)
            out_bits[:usable] = bits[offset : offset + usable]
        packed = np.packbits(out_bits, bitorder="little")
        return packed.view(np.uint64)


class RoaringStream(BlockStream):
    """Container-directory window gather of a roaring stream.

    The directory is already an index over 2^16-bit chunks: a word
    window touches only the containers whose chunk overlaps it, found
    with one ``searchsorted`` over the (ascending) key column.
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        containers = containers_from_roaring(payload)
        num_chunks = (length + CHUNK_BITS - 1) // CHUNK_BITS
        for container in containers:
            if container.key >= num_chunks:
                raise CodecError(
                    f"roaring container key {container.key} overruns the "
                    f"declared length {length}"
                )
            chunk_bits, chunk_words = chunk_geometry(container.key, length)
            if container.kind == BITMAP:
                if container.data.shape[0] != chunk_words:
                    raise CodecError(
                        f"roaring bitmap container has "
                        f"{container.data.shape[0]} words, chunk "
                        f"{container.key} holds {chunk_words}"
                    )
            elif container.kind == ARRAY:
                if int(container.data[-1]) >= chunk_bits:
                    raise CodecError(
                        "roaring array container overruns the declared length"
                    )
            else:
                starts, lengths = container.data
                if int((starts.astype(np.int64) + lengths).max()) > chunk_bits:
                    raise CodecError(
                        "roaring run container overruns the declared length"
                    )
        self._containers = containers
        self._keys = np.asarray([c.key for c in containers], dtype=np.int64)

    def block(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.uint64)
        lo = int(np.searchsorted(self._keys, start // CHUNK_WORDS, side="left"))
        hi = int(np.searchsorted(self._keys, -(-stop // CHUNK_WORDS), side="left"))
        for container in self._containers[lo:hi]:
            word_base = container.key * CHUNK_WORDS
            if container.kind == BITMAP:
                src_lo = max(start - word_base, 0)
                src_hi = min(stop - word_base, container.data.shape[0])
                dst = word_base + src_lo - start
                out[dst : dst + (src_hi - src_lo)] = container.data[src_lo:src_hi]
                continue
            # Positions relative to the window's first bit.
            if container.kind == ARRAY:
                rel = container.data.astype(np.int64)
            else:
                starts, lengths = container.data
                rel = kernels.expand_ranges(starts.astype(np.int64), lengths)
            pos = rel + (word_base - start) * 64
            pos = pos[(pos >= 0) & (pos < out.shape[0] * 64)]
            if pos.size:
                np.bitwise_or.at(
                    out, pos >> 6, _ONE << (pos & 63).astype(np.uint64)
                )
        return out


_STREAMS = {
    "raw": RawStream,
    "ewah": EwahStream,
    "bbc": BbcStream,
    "wah": WahStream,
    "roaring": RoaringStream,
}


def register_stream(codec_name: str, factory) -> None:
    """Register a block-stream factory for a codec.

    ``factory`` is called as ``factory(payload, length)`` and must
    return a :class:`BlockStream`; a class or a plain function both
    work.  Everything block-oriented (fused evaluation, multiway
    thresholds, blockwise decode) dispatches through
    :func:`open_stream`, so registration is all a new codec needs.
    """
    if not codec_name:
        raise CodecError("block streams need a codec name")
    _STREAMS[codec_name] = factory


def open_stream(codec_name: str, payload, length: int) -> BlockStream:
    """A :class:`BlockStream` over ``payload`` for the named codec.

    The stream's ``len()`` is ``len(payload)``.
    """
    try:
        cls = _STREAMS[codec_name]
    except KeyError:
        raise CodecError(
            f"codec {codec_name!r} has no block stream; "
            f"available: {sorted(_STREAMS)}"
        ) from None
    stream = cls(payload, length)
    stream.nbytes = len(payload)
    return stream


def decode_blockwise(
    codec_name: str, payload, length: int, block_words: int = 2048
) -> BitVector:
    """Materialize a full vector through its block stream.

    Used by the compressed engine's final answer decode: identical
    output to ``codec.decode`` but the decode scratch stays block-sized
    (the output array is the answer, not an intermediate).
    """
    stream = open_stream(codec_name, payload, length)
    words = np.empty(stream.num_words, dtype=np.uint64)
    for lo in range(0, stream.num_words, block_words):
        hi = min(lo + block_words, stream.num_words)
        words[lo:hi] = stream.block(lo, hi)
    tail = length % 64
    if tail and words.shape[0]:
        words[-1] &= (_ONE << np.uint64(tail)) - _ONE
    return BitVector(length, words)
