"""Byte-aligned run-length codec (BBC).

The paper compresses bitmaps with "a byte-aligned run-length encoding
scheme proposed by Antoshenkov [Ant93] which is used in Oracle8".  The
patent text is not reproduced in the paper, so this module implements a
codec with the same structure and asymptotics as BBC:

* the bitmap is viewed as a byte sequence;
* the stream is a sequence of *atoms*; each atom is a one-byte header
  optionally followed by variable-length counters and literal bytes;
* an atom encodes a *fill* (a run of identical ``0x00`` or ``0xFF``
  bytes) followed by a *tail* of literal (verbatim) bytes.

Header layout (one byte)::

    bit 7      fill value (0 = zero fill, 1 = one fill)
    bits 6..4  fill length in bytes; 0..6 stored inline, 7 means an
               unsigned LEB128 extension follows (value 7 + ext)
    bits 3..0  literal tail length in bytes; 0..14 stored inline, 15
               means an unsigned LEB128 extension follows (value 15 + ext)

Long runs of equal bits therefore cost O(log run) bytes while
incompressible regions cost one extra header byte per 14 literal bytes —
exactly the behaviour the paper's Figures 6(b), 6(c), 7 and 9 depend on.

Encode and decode run on the vectorized kernels in
:mod:`repro.compress.kernels`: byte runs are segmented with one
``np.flatnonzero`` pass and atoms (headers, LEB128 extensions, literal
tails) are emitted by bulk scatter; only the atom *walk* on decode is
sequential, and that loop is per-atom, not per-byte.  The reader,
:class:`BbcStream`, rematerializes the byte window under any word
window and re-pads the trailing zero bytes the encoder trimmed.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import Codec, register_codec
from repro.compress.kernels import DIRTY, FILL_ONE, FILL_ZERO, Runs
from repro.compress.streams import BlockStream
from repro.errors import CodecError

_FILL_INLINE_MAX = 6  # 3-bit field, 7 = extended
_LIT_INLINE_MAX = 14  # 4-bit field, 15 = extended
_FULL_BYTE = 0xFF
#: Minimum length for a 0x00/0xFF byte run to be encoded as a fill
#: rather than folded into a literal tail.  A run of one fill byte
#: saves nothing over a literal, so the threshold is two.
_MIN_FILL_RUN = 2


def _read_varint(payload: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 integer; returns ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(payload):
            raise CodecError("truncated varint in BBC stream")
        # int() so numpy buffer payloads (zero-copy store views) don't
        # poison the shift arithmetic with wrapping uint8 scalars.
        byte = int(payload[pos])
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _leb128_nbytes(values: np.ndarray) -> np.ndarray:
    """Encoded size in bytes of each unsigned LEB128 value."""
    nbytes = np.ones(values.shape[0], dtype=np.int64)
    rest = values >> 7
    while bool((rest > 0).any()):
        nbytes += rest > 0
        rest >>= 7
    return nbytes


def _leb128_scatter(
    out: np.ndarray, pos: np.ndarray, values: np.ndarray, nbytes: np.ndarray
) -> None:
    """Write each value's LEB128 bytes at ``out[pos[i] : pos[i]+nbytes[i]]``.

    Loops over byte *position* (at most 10 iterations for 64-bit
    values), scattering one byte of every value per pass.
    """
    if values.shape[0] == 0:
        return
    for k in range(int(nbytes.max())):
        mask = nbytes > k
        byte = (values[mask] >> (7 * k)) & 0x7F
        cont = np.where(nbytes[mask] > k + 1, 0x80, 0)
        out[pos[mask] + k] = (byte | cont).astype(np.uint8)


def runs_from_bbc(payload: bytes) -> Runs:
    """Parse a BBC atom stream into byte runs.

    The walk is per *atom* (positions chain through the variable-length
    counters), but literal tails are sliced in bulk.
    """
    n = len(payload)
    data = np.frombuffer(payload, dtype=np.uint8)
    # The walk keeps the loop body minimal — four plain appends per
    # atom; run arrays and literal bytes are assembled in bulk below.
    at_bits: list[int] = []
    at_fills: list[int] = []
    at_lits: list[int] = []
    at_starts: list[int] = []
    pos = 0
    while pos < n:
        header = int(payload[pos])
        pos += 1
        fill_len = (header >> 4) & 0x7
        lit_len = header & 0xF
        if fill_len == _FILL_INLINE_MAX + 1:
            ext, pos = _read_varint(payload, pos)
            fill_len += ext
        if lit_len == _LIT_INLINE_MAX + 1:
            ext, pos = _read_varint(payload, pos)
            lit_len += ext
        at_bits.append(header >> 7)
        at_fills.append(fill_len)
        at_lits.append(lit_len)
        at_starts.append(pos)
        pos += lit_len
    if pos > n:
        # Only the final atom can overrun: every earlier one had its
        # header byte read successfully past its literal tail.
        raise CodecError("truncated literal tail in BBC stream")

    bits = np.asarray(at_bits, dtype=np.int64)
    fills = np.asarray(at_fills, dtype=np.int64)
    lits = np.asarray(at_lits, dtype=np.int64)
    starts = np.asarray(at_starts, dtype=np.int64)
    has_fill = fills > 0
    has_lit = lits > 0
    slots = has_fill.astype(np.int64) + has_lit
    offsets = np.cumsum(slots) - slots
    total = int(slots.sum())
    types = np.empty(total, dtype=np.int8)
    lengths = np.empty(total, dtype=np.int64)
    fill_pos = offsets[has_fill]
    types[fill_pos] = np.where(bits[has_fill] != 0, FILL_ONE, FILL_ZERO)
    lengths[fill_pos] = fills[has_fill]
    lit_pos = offsets[has_lit] + has_fill[has_lit]
    types[lit_pos] = DIRTY
    lengths[lit_pos] = lits[has_lit]
    # One bulk gather of every literal tail beats per-atom slicing.
    values = data[kernels.expand_ranges(starts[has_lit], lits[has_lit])]
    return Runs(types, lengths, values)


def bbc_from_runs(runs: Runs) -> bytes:
    """Emit the canonical BBC atom stream for ``runs`` via bulk scatter.

    Fill runs shorter than :data:`_MIN_FILL_RUN` are demoted into the
    literal tail (a one-byte fill saves nothing over a literal), then
    each surviving fill run becomes one atom carrying the dirty run
    that follows it — the same stream the reference encoder produces.
    """
    if runs.num_runs == 0:
        return b""
    types, lengths, values = runs.types, runs.lengths, runs.values
    if bool((types[1:] == types[:-1]).any()) or bool((lengths <= 0).any()):
        runs = kernels.normalize(types, lengths, values, _FULL_BYTE)
        types, lengths, values = runs.types, runs.lengths, runs.values
        if types.shape[0] == 0:
            return b""

    # Demote short fills to literal bytes, keeping stream order.
    is_fill = types != DIRTY
    demote = is_fill & (lengths < _MIN_FILL_RUN)
    if bool(demote.any()):
        contrib = np.where(types == DIRTY, lengths, np.where(demote, lengths, 0))
        new_values = np.empty(int(contrib.sum()), dtype=np.uint8)
        val_off = np.cumsum(contrib) - contrib
        dirty = types == DIRTY
        if dirty.any():
            new_values[
                kernels.expand_ranges(val_off[dirty], lengths[dirty])
            ] = values
        new_values[
            kernels.expand_ranges(val_off[demote], lengths[demote])
        ] = np.repeat(
            np.where(types[demote] == FILL_ONE, _FULL_BYTE, 0).astype(np.uint8),
            lengths[demote],
        )
        types = np.where(demote, np.int8(DIRTY), types)
        values = new_values
        # Merge dirty runs that became adjacent.
        change = np.flatnonzero(types[1:] != types[:-1]) + 1
        starts = np.concatenate(([0], change))
        types = types[starts]
        lengths = np.add.reduceat(lengths, starts)

    # One atom per fill run, carrying the dirty run that follows it,
    # plus a leading fill-free atom when the stream starts dirty.
    num_runs = types.shape[0]
    is_fill = types != DIRTY
    fill_idx = np.flatnonzero(is_fill)
    nxt = np.minimum(fill_idx + 1, num_runs - 1)
    has_lit = (fill_idx + 1 < num_runs) & (types[nxt] == DIRTY)
    at_bit = (types[fill_idx] == FILL_ONE).astype(np.int64)
    at_fill = lengths[fill_idx]
    at_lit = np.where(has_lit, lengths[nxt], 0)
    if num_runs and types[0] == DIRTY:
        at_bit = np.concatenate(([0], at_bit))
        at_fill = np.concatenate(([0], at_fill))
        at_lit = np.concatenate(([lengths[0]], at_lit))

    fill_field = np.minimum(at_fill, _FILL_INLINE_MAX + 1)
    lit_field = np.minimum(at_lit, _LIT_INLINE_MAX + 1)
    fill_extended = fill_field == _FILL_INLINE_MAX + 1
    lit_extended = lit_field == _LIT_INLINE_MAX + 1
    fill_ext_val = np.where(fill_extended, at_fill - (_FILL_INLINE_MAX + 1), 0)
    lit_ext_val = np.where(lit_extended, at_lit - (_LIT_INLINE_MAX + 1), 0)
    fill_ext_len = np.where(fill_extended, _leb128_nbytes(fill_ext_val), 0)
    lit_ext_len = np.where(lit_extended, _leb128_nbytes(lit_ext_val), 0)

    atom_len = 1 + fill_ext_len + lit_ext_len + at_lit
    offsets = np.cumsum(atom_len) - atom_len
    out = np.zeros(int(atom_len.sum()), dtype=np.uint8)
    out[offsets] = ((at_bit << 7) | (fill_field << 4) | lit_field).astype(np.uint8)
    _leb128_scatter(
        out,
        (offsets + 1)[fill_extended],
        fill_ext_val[fill_extended],
        fill_ext_len[fill_extended],
    )
    _leb128_scatter(
        out,
        (offsets + 1 + fill_ext_len)[lit_extended],
        lit_ext_val[lit_extended],
        lit_ext_len[lit_extended],
    )
    if values.size:
        lit_pos = offsets + 1 + fill_ext_len + lit_ext_len
        out[kernels.expand_ranges(lit_pos, at_lit)] = values
    return out.tobytes()


class BbcStream(BlockStream):
    """Byte-run window rematerialization of a BBC atom stream.

    The encoder trims trailing zero bytes, so a window past the stream
    end is padded with zeros; windows also extend past the logical byte
    length up to the word boundary (those padding bytes are zero too).
    """

    def __init__(self, payload, length: int):
        super().__init__(length)
        logical_bytes = (length + 7) // 8
        self._slicer = kernels.RunSlicer(runs_from_bbc(payload))
        if self._slicer.total > logical_bytes:
            raise CodecError(
                f"BBC stream decodes to {self._slicer.total} bytes but length "
                f"{length} allows only {logical_bytes}"
            )

    def block(self, start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.uint64)
        body = kernels.elements_from_runs(
            self._slicer.slice(start * 8, stop * 8), _FULL_BYTE, np.uint8
        )
        out.view(np.uint8)[: body.shape[0]] = body
        return out


class BbcCodec(Codec):
    """Byte-aligned run-length codec in the style of Antoshenkov's BBC."""

    name = "bbc"

    _MIN_FILL_RUN = _MIN_FILL_RUN

    def _encode(self, vector: BitVector) -> bytes:
        data = np.frombuffer(vector.to_bytes(), dtype=np.uint8)
        # Trim trailing padding bytes that are entirely past the logical
        # length; they are zero by the padding invariant and the decoder
        # regenerates them.
        logical_bytes = (len(vector) + 7) // 8
        data = data[:logical_bytes]
        return bbc_from_runs(kernels.runs_from_elements(data, _FULL_BYTE))

    def _stream(self, payload, length: int) -> BbcStream:
        return BbcStream(payload, length)


register_codec(BbcCodec())
