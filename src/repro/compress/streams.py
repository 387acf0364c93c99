"""Block-at-a-time decode streams over encoded bitmap payloads.

:func:`repro.expr.evaluate` walks an expression one word range at a
time, and a leaf it reads straight from its encoded payload (a leaf
the compressed convention's pool holds no decoded copy of) is never
decoded whole.  For that, leaf decode must be *incremental*: given an
encoded payload, produce any word window ``[start, stop)`` of the
decoded vector without materializing the rest.

A :class:`BlockStream` is a codec's one reader.  Each codec defines
its stream in its own module and opens it through
:meth:`Codec._stream <repro.compress.base.Codec._stream>`; the
codec's whole-vector ``decode``, ``decode_view`` and default probe
read the stream's full window ``block(0, num_words)``, so a payload
is parsed and validated by exactly one piece of code per format.
:func:`open_stream` opens a stream by codec name through the codec
registry.

Every stream validates its payload against the declared length when it
is opened, raising :class:`~repro.errors.CodecError`.  The arrays
returned by :meth:`BlockStream.block` may be read-only views of the
payload or a scratch buffer reused by the next call, and their padding
bits past ``length`` need not be clear — callers must copy or combine,
never hold, and read each window once (the evaluator materializes one
window per leaf and range).
"""

from __future__ import annotations

import numpy as np

from repro.compress.base import get_codec


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
        self.num_words = (self.length + 63) // 64

    def __len__(self) -> int:
        return self.nbytes

    def block(self, start: int, stop: int) -> np.ndarray:
        raise NotImplementedError


def scatter_bits(out: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Set the bits at ``positions`` (int64, relative to ``out``'s first
    bit) in the word array ``out``; returns ``out``."""
    if positions.size:
        np.bitwise_or.at(
            out, positions >> 6, np.uint64(1) << (positions & 63).astype(np.uint64)
        )
    return out


def open_stream(codec_name: str, payload, length: int) -> BlockStream:
    """A :class:`BlockStream` over ``payload`` for the named codec.

    Dispatches to the registered codec's reader; the stream's ``len()``
    is ``len(payload)``.
    """
    stream = get_codec(codec_name)._stream(payload, length)
    stream.nbytes = len(payload)
    return stream
