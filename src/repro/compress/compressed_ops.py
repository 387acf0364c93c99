"""Logical operations directly on EWAH-compressed bitmaps.

The paper charges decompression CPU for every compressed bitmap a
query touches; the codecs that later superseded BBC (WAH/EWAH) owe
their popularity to *compressed-domain* logical operations, which skip
that cost for the clean (all-0/all-1) runs that dominate compressible
bitmaps.  This module implements AND/OR/XOR/NOT over EWAH payloads
without materializing uncompressed bit vectors.

Both input streams are parsed into run arrays
(:func:`repro.compress.ewah.runs_from_ewah`) and combined by the
vectorized kernels in :mod:`repro.compress.kernels`:

* run alignment is a ``searchsorted`` merge over the union of both
  streams' run boundaries — no Python cursor loop;
* clean x clean overlaps combine fill bits in O(1) per overlap;
* every overlap touching dirty words — including dirty x dirty — is
  computed by a single numpy op over the whole stretch;
* clean words produced by the operation (e.g. complemented all-ones)
  are re-detected in bulk so outputs stay canonically compressed.

The evaluation engine uses these through
:class:`~repro.compress.compressed_ops.CompressedBitmap`, which since
the roaring extension dispatches per codec: the module-level
``LOGICAL_OPS`` / ``NOT_OPS`` / ``COUNT_OPS`` tables give every
compressed-domain codec (BBC, WAH, EWAH, roaring) one payload-level
signature, and ``COMPRESSED_DOMAIN_CODECS`` names the codecs the
compressed query engine accepts.  The ``bench_compressed_ops``
benchmark quantifies the saving against decompress-then-operate.
"""

from __future__ import annotations

import numpy as np

from repro.bitmap import BitVector
from repro.compress import kernels
from repro.compress.base import get_codec
from repro.compress.bbc_ops import bbc_count, bbc_logical, bbc_not
from repro.compress.ewah import _FULL, ewah_from_runs, runs_from_ewah
from repro.compress.roaring_ops import roaring_count, roaring_logical, roaring_not
from repro.compress.wah_ops import wah_count, wah_logical, wah_not
from repro.errors import CodecError


def ewah_logical(op: str, payload_a: bytes, payload_b: bytes) -> bytes:
    """``op`` in {"and", "or", "xor"} over two equal-length EWAH payloads.

    Both payloads must decode to the same number of 64-bit words (the
    codec guarantees that for vectors of equal bit length).
    """
    if op not in kernels._NP_OPS:
        raise CodecError(f"unknown compressed operation {op!r}")
    runs_a = runs_from_ewah(payload_a)
    runs_b = runs_from_ewah(payload_b)
    if runs_a.total != runs_b.total:
        raise CodecError("EWAH operands have different word counts")
    result = kernels.combine(op, runs_a, runs_b, _FULL, np.uint64)
    return ewah_from_runs(result)


def ewah_not(payload: bytes, length: int) -> bytes:
    """Complement of an EWAH payload for a vector of ``length`` bits.

    The final word's padding bits must stay zero, so the last word is
    masked explicitly when the length is not word-aligned.
    """
    tail_bits = length % 64
    tail_mask = (1 << tail_bits) - 1 if tail_bits else None
    runs = runs_from_ewah(payload)
    result = kernels.complement(runs, _FULL, np.uint64, tail_mask)
    return ewah_from_runs(result)


def ewah_count(payload: bytes) -> int:
    """Population count of an EWAH payload without decompression."""
    return kernels.runs_popcount(runs_from_ewah(payload), 64)


# ---------------------------------------------------------------------------
# Per-codec compressed-domain dispatch
# ---------------------------------------------------------------------------

#: ``(op, payload_a, payload_b, length) -> payload`` per codec.
LOGICAL_OPS = {
    "bbc": bbc_logical,
    "wah": lambda op, a, b, length: wah_logical(op, a, b),
    "ewah": lambda op, a, b, length: ewah_logical(op, a, b),
    "roaring": roaring_logical,
}

#: ``(payload, length) -> payload`` per codec.
NOT_OPS = {
    "bbc": bbc_not,
    "wah": wah_not,
    "ewah": ewah_not,
    "roaring": roaring_not,
}

#: ``(payload) -> int`` per codec.
COUNT_OPS = {
    "bbc": bbc_count,
    "wah": wah_count,
    "ewah": ewah_count,
    "roaring": roaring_count,
}

#: Codecs whose payloads support the full compressed-domain protocol.
#: A plain (mutable) set: modules that add codecs extend it through
#: :func:`register_compressed_ops`, and by-name importers (the
#: compressed query engine) observe the additions because the set
#: object itself is shared.
COMPRESSED_DOMAIN_CODECS = set(LOGICAL_OPS)


def register_compressed_ops(name: str, logical, not_, count) -> None:
    """Register a codec's payload-level compressed-domain operations.

    ``logical`` is ``(op, payload_a, payload_b, length) -> payload``,
    ``not_`` is ``(payload, length) -> payload`` and ``count`` is
    ``(payload) -> int``.  Registration adds ``name`` to
    :data:`COMPRESSED_DOMAIN_CODECS`, which is all
    :class:`CompressedBitmap` and the compressed query engine consult —
    no per-codec conditionals anywhere downstream.
    """
    if not name:
        raise CodecError("compressed-domain ops need a codec name")
    LOGICAL_OPS[name] = logical
    NOT_OPS[name] = not_
    COUNT_OPS[name] = count
    COMPRESSED_DOMAIN_CODECS.add(name)


# ---------------------------------------------------------------------------
# Convenience wrapper
# ---------------------------------------------------------------------------


class CompressedBitmap:
    """A compressed bitmap supporting compressed-domain logic.

    Mirrors the :class:`~repro.bitmap.BitVector` operator protocol but
    keeps the payload compressed throughout; :meth:`decode` gives the
    plain vector when record ids are finally needed.  Any codec in
    :data:`COMPRESSED_DOMAIN_CODECS` works (EWAH remains the default);
    operands must share both length and codec.
    """

    def __init__(self, payload: bytes, length: int, codec: str = "ewah"):
        if codec not in COMPRESSED_DOMAIN_CODECS:
            raise CodecError(
                f"codec {codec!r} has no compressed-domain operations; "
                f"available: {sorted(COMPRESSED_DOMAIN_CODECS)}"
            )
        self.payload = payload
        self.length = length
        self.codec = codec

    @classmethod
    def from_vector(cls, vector: BitVector, codec: str = "ewah") -> "CompressedBitmap":
        return cls(get_codec(codec).encode(vector), len(vector), codec)

    def decode(self) -> BitVector:
        """Materialize the plain bit vector."""
        return get_codec(self.codec).decode(self.payload, self.length)

    def _check(self, other: "CompressedBitmap") -> None:
        if self.length != other.length:
            raise CodecError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        if self.codec != other.codec:
            raise CodecError(
                f"codec mismatch: {self.codec!r} vs {other.codec!r}"
            )

    def _logical(self, other: "CompressedBitmap", op: str) -> "CompressedBitmap":
        self._check(other)
        payload = LOGICAL_OPS[self.codec](
            op, self.payload, other.payload, self.length
        )
        return CompressedBitmap(payload, self.length, self.codec)

    def __and__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._logical(other, "and")

    def __or__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._logical(other, "or")

    def __xor__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._logical(other, "xor")

    def __invert__(self) -> "CompressedBitmap":
        return CompressedBitmap(
            NOT_OPS[self.codec](self.payload, self.length),
            self.length,
            self.codec,
        )

    def count(self) -> int:
        """Set-bit count, computed in the compressed domain."""
        return COUNT_OPS[self.codec](self.payload)

    def compressed_size(self) -> int:
        """Payload size in bytes."""
        return len(self.payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedBitmap):
            return NotImplemented
        # Payloads are canonical only per codec; compare decoded.
        return self.length == other.length and self.decode() == other.decode()

    def __repr__(self) -> str:
        return (
            f"CompressedBitmap(codec={self.codec!r}, length={self.length}, "
            f"bytes={len(self.payload)})"
        )
