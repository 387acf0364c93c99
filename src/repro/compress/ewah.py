"""Enhanced Word-Aligned Hybrid (EWAH) codec, 64-bit variant.

EWAH interleaves *marker words* and *dirty words*.  Each marker encodes
a run of clean (all-0 or all-1) 64-bit words followed by a count of
verbatim dirty words.  Unlike WAH it never needs to inspect dirty words
during skipping, at the cost of one marker per transition.

Marker layout (64 bits)::

    bit 0        clean fill value
    bits 1..32   clean word count (32 bits)
    bits 33..63  dirty word count (31 bits)

The codec operates directly on the bitmap's 64-bit word payload, so the
padding invariant of :class:`~repro.bitmap.BitVector` is preserved for
free.

Encode and decode run on the vectorized kernels in
:mod:`repro.compress.kernels`: word runs are segmented and markers
emitted with whole-array arithmetic; only the marker *walk* on decode
is sequential (each marker's position depends on the previous dirty
count), and that loop is per-marker, not per-word.  The reader,
:class:`EwahStream`, rematerializes exactly the requested words of any
window through a :class:`~repro.compress.kernels.RunSlicer`.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, register_codec
from repro.compress.kernels import DIRTY, FILL_ONE, FILL_ZERO, Runs
from repro.compress.streams import BlockStream
from repro.errors import CodecError

_FULL = 0xFFFF_FFFF_FFFF_FFFF
_MAX_CLEAN = (1 << 32) - 1
_MAX_DIRTY = (1 << 31) - 1


def _marker(clean_bit: int, clean_count: int, dirty_count: int) -> int:
    return clean_bit | (clean_count << 1) | (dirty_count << 33)


def runs_from_ewah(payload: bytes) -> Runs:
    """Parse an EWAH stream into word runs.

    The walk is per *marker* (positions form a sequential chain), but
    dirty words are sliced in bulk, never copied one at a time.
    """
    if len(payload) % 8:
        raise CodecError(f"EWAH payload size {len(payload)} not word aligned")
    stream = np.frombuffer(payload, dtype=np.uint64)
    markers = stream.tolist()
    n = len(markers)
    types: list[int] = []
    lengths: list[int] = []
    dirty_starts: list[int] = []
    dirty_lens: list[int] = []
    i = 0
    while i < n:
        marker = markers[i]
        i += 1
        clean_count = (marker >> 1) & _MAX_CLEAN
        dirty_count = marker >> 33
        if clean_count:
            types.append(FILL_ONE if marker & 1 else FILL_ZERO)
            lengths.append(clean_count)
        if dirty_count:
            if i + dirty_count > n:
                raise CodecError("truncated dirty words in EWAH stream")
            types.append(DIRTY)
            lengths.append(dirty_count)
            dirty_starts.append(i)
            dirty_lens.append(dirty_count)
            i += dirty_count
    # One bulk gather of every dirty stretch beats per-marker concatenation.
    values = stream[kernels.expand_ranges(dirty_starts, dirty_lens)]
    return Runs(
        np.asarray(types, dtype=np.int8), np.asarray(lengths, dtype=np.int64), values
    )


def ewah_from_runs(runs: Runs) -> bytes:
    """Emit the canonical EWAH stream for ``runs`` via bulk scatter.

    One marker per clean run (carrying the dirty run that follows it,
    if any), plus a leading zero-clean marker when the stream starts
    dirty — the same stream the reference encoder produces.  Falls back
    to a scalar path only when a run overflows a marker counter.
    """
    if runs.num_runs == 0:
        return b""
    types, lengths = runs.types, runs.lengths
    if bool((types[1:] == types[:-1]).any()) or bool((lengths <= 0).any()):
        runs = kernels.normalize(types, lengths, runs.values, _FULL)
        types, lengths = runs.types, runs.lengths
        if runs.num_runs == 0:
            return b""
    is_clean = types != DIRTY
    if bool((lengths[is_clean] > _MAX_CLEAN).any()) or bool(
        (lengths[~is_clean] > _MAX_DIRTY).any()
    ):
        return _ewah_from_runs_chunked(runs)

    clean_idx = np.flatnonzero(is_clean)
    nxt = np.minimum(clean_idx + 1, runs.num_runs - 1)
    has_dirty = (clean_idx + 1 < runs.num_runs) & (types[nxt] == DIRTY)
    mk_bit = (types[clean_idx] == FILL_ONE).astype(np.uint64)
    mk_clean = lengths[clean_idx].astype(np.uint64)
    mk_dirty = np.where(has_dirty, lengths[nxt], 0).astype(np.int64)
    if types[0] == DIRTY:
        mk_bit = np.concatenate(([0], mk_bit)).astype(np.uint64)
        mk_clean = np.concatenate(([0], mk_clean)).astype(np.uint64)
        mk_dirty = np.concatenate(([lengths[0]], mk_dirty)).astype(np.int64)
    markers = (
        mk_bit
        | (mk_clean << np.uint64(1))
        | (mk_dirty.astype(np.uint64) << np.uint64(33))
    )
    slots = 1 + mk_dirty
    offsets = np.cumsum(slots) - slots
    out = np.empty(int(slots.sum()), dtype=np.uint64)
    out[offsets] = markers
    if runs.values.size:
        out[kernels.expand_ranges(offsets + 1, mk_dirty)] = runs.values
    return out.tobytes()


def _ewah_from_runs_chunked(runs: Runs) -> bytes:
    """Scalar emitter for runs that overflow a marker counter."""
    out: list[int] = []
    types = runs.types.tolist()
    lengths = runs.lengths.tolist()
    values = runs.values
    val_pos = 0
    i = 0
    n = len(types)
    while i < n:
        if lengths[i] == 0:
            i += 1
            continue
        clean_bit = 0
        clean_count = 0
        if types[i] != DIRTY:
            clean_bit = 1 if types[i] == FILL_ONE else 0
            clean_count = min(lengths[i], _MAX_CLEAN)
            lengths[i] -= clean_count
            if lengths[i]:
                out.append(_marker(clean_bit, clean_count, 0))
                continue
            i += 1
        dirty_count = 0
        if i < n and types[i] == DIRTY:
            dirty_count = min(lengths[i], _MAX_DIRTY)
        out.append(_marker(clean_bit, clean_count, dirty_count))
        if dirty_count:
            out.extend(values[val_pos : val_pos + dirty_count].tolist())
            val_pos += dirty_count
            lengths[i] -= dirty_count
            if lengths[i] == 0:
                i += 1
    return np.asarray(out, dtype=np.uint64).tobytes()


class EwahStream(BlockStream):
    """Word-run window rematerialization of an EWAH stream."""

    def __init__(self, payload, length: int):
        super().__init__(length)
        self._slicer = kernels.RunSlicer(runs_from_ewah(payload))
        total = self._slicer.total
        if total > self.num_words:
            raise CodecError("EWAH stream overruns the declared length")
        if total != self.num_words:
            raise CodecError(
                f"EWAH stream produced {total} words, expected {self.num_words}"
            )

    def block(self, start: int, stop: int) -> np.ndarray:
        window = self._slicer.slice(start, stop)
        return kernels.elements_from_runs(window, _FULL, np.uint64)


class EwahCodec(Codec):
    """64-bit Enhanced Word-Aligned Hybrid codec."""

    name = "ewah"

    def _encode(self, vector: BitVector) -> bytes:
        return ewah_from_runs(kernels.runs_from_elements(vector.words, _FULL))

    def _stream(self, payload, length: int) -> EwahStream:
        return EwahStream(payload, length)


register_codec(EwahCodec())
