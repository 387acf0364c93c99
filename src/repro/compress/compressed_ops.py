"""Logical operations on encoded bitmaps, through the one range walk.

:func:`repro.expr.evaluate` is the only implementation of AND/OR/XOR/NOT
over encoded bitmaps: it reads each operand one word range at a time
from its :class:`~repro.compress.streams.BlockStream`, so an operation
never decodes a whole operand.  :class:`CompressedBitmap` puts that
walk behind the :class:`~repro.bitmap.BitVector` operator protocol: an
operator opens a stream per operand, evaluates the ``And``/``Or``/
``Xor``/``Not`` node over them and re-encodes the result with the
operands' codec, so a result payload is exactly ``codec.encode`` of
the result.

:data:`COMPRESSED_DOMAIN_CODECS` names the codecs the compressed
convention of the query engine (``engine="compressed"``) accepts:
every registered codec (each has a block stream, its one reader)
except ``raw``, whose payload already is the decoded words.
"""

from __future__ import annotations

from collections.abc import Set

from repro.bitmap import BitVector
from repro.compress.base import _REGISTRY, get_codec
from repro.compress.streams import open_stream
from repro.errors import CodecError
from repro.expr.nodes import And, Leaf, Not, Or, Xor


class _RegisteredCodecs(Set):
    """Live view of the registered codecs, minus raw.

    A view rather than a copy: a codec registered later through
    :func:`~repro.compress.base.register_codec` joins it, and by-name
    importers (the query engine) see the addition.
    """

    def __contains__(self, name: object) -> bool:
        return name != "raw" and name in _REGISTRY

    def __iter__(self):
        return (name for name in list(_REGISTRY) if name != "raw")

    def __len__(self) -> int:
        return sum(1 for _ in self)


#: Codecs a :class:`CompressedBitmap` and ``engine="compressed"`` take.
COMPRESSED_DOMAIN_CODECS = _RegisteredCodecs()

#: The operator nodes, over leaves 0 and 1 (``(self, other)``).
_AND, _OR, _XOR = (node((Leaf(0), Leaf(1))) for node in (And, Or, Xor))
_NOT = Not(Leaf(0))


class CompressedBitmap:
    """An encoded bitmap behind the ``BitVector`` operator protocol.

    Holds the payload, its bit length and its codec; :meth:`decode`
    gives the plain vector.  Any codec in
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

    def _apply(self, expr, *others: "CompressedBitmap") -> "CompressedBitmap":
        """Evaluate ``expr`` over ``(self, *others)`` as leaves 0, 1, ...
        and re-encode the result with the operands' codec."""
        # Imported here: the evaluator imports this package's streams.
        from repro.expr.evaluator import evaluate

        for other in others:
            if self.length != other.length:
                raise CodecError(f"length mismatch: {self.length} vs {other.length}")
            if self.codec != other.codec:
                raise CodecError(f"codec mismatch: {self.codec!r} vs {other.codec!r}")
        streams = [open_stream(b.codec, b.payload, b.length) for b in (self, *others)]
        result = evaluate(expr, streams.__getitem__, self.length)
        return CompressedBitmap(
            get_codec(self.codec).encode(result), self.length, self.codec
        )

    def __and__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._apply(_AND, other)

    def __or__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._apply(_OR, other)

    def __xor__(self, other: "CompressedBitmap") -> "CompressedBitmap":
        return self._apply(_XOR, other)

    def __invert__(self) -> "CompressedBitmap":
        return self._apply(_NOT)

    def count(self) -> int:
        """Set-bit count."""
        return self.decode().count()

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
