"""Codec interface and registry.

A codec turns a :class:`~repro.bitmap.BitVector` into bytes and back.
Codecs are stateless; the registry maps short names (``"raw"``, ``"bbc"``,
``"wah"``, ``"ewah"``) to singleton instances so that experiment configs
can refer to codecs by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import obs as _obs
from repro.bitmap import BitVector
from repro.errors import CodecError


class Codec(ABC):
    """Stateless bitmap compressor/decompressor.

    Subclasses implement :meth:`_encode` / :meth:`_decode` (and may
    batch :meth:`_encode_many` or read bits straight from payloads in
    :meth:`_probe_many`); the public :meth:`encode` / :meth:`encode_many`
    / :meth:`decode` / :meth:`probe_many` wrappers additionally report
    ``codec.encode.*`` / ``codec.decode.*`` / ``codec.probe.*`` counters
    to the installed :mod:`repro.obs` instance (tagged by codec name), so
    every byte that crosses the codec boundary is attributable to the
    span that caused it.
    """

    #: Short registry name; subclasses must override.
    name: str = ""

    #: Cached ``(obs_instance, counter_handles)`` pair.  Codecs sit on
    #: the hottest instrumented path (every page fetch decodes), so the
    #: registry lookups are done once per installed instance and the
    #: handles reused until a different instance is installed.
    _obs_handles: tuple = (None, None)

    @abstractmethod
    def _encode(self, vector: BitVector) -> bytes:
        """Compress ``vector`` into a self-contained byte string."""

    def _encode_many(self, vectors: list[BitVector]) -> list[bytes]:
        """Compress a batch; codecs with a batched kernel override this."""
        return [self._encode(vector) for vector in vectors]

    @abstractmethod
    def _decode(self, payload: bytes, length: int) -> BitVector:
        """Decompress ``payload`` back into a vector of ``length`` bits."""

    def _decode_view(self, payload, length: int) -> BitVector | None:
        """Zero-copy decode over ``payload``'s buffer, or None.

        Subclasses whose decoded form can alias the payload (raw)
        return a vector whose words *view* the payload memory; the
        default says no such form exists and :meth:`decode_view` falls
        back to a copying decode.
        """
        return None

    def _probe_many(self, payloads: list, length: int, positions: np.ndarray) -> np.ndarray:
        """Bits at ``positions`` of each payload; the default decodes
        each one (zero-copy where the codec can) and gathers."""
        bits = np.empty((len(payloads), positions.size), dtype=bool)
        for row, payload in enumerate(payloads):
            vector = self._decode_view(payload, length)
            if vector is None:
                vector = self._decode(payload, length)
            bits[row] = vector.take(positions)
        return bits

    def _counters(self, o):
        owner, handles = self._obs_handles
        if owner is not o:
            handles = (
                o.metrics.counter("codec.encode.calls", codec=self.name),
                o.metrics.counter("codec.encode.bits_in", codec=self.name),
                o.metrics.counter("codec.encode.bytes_out", codec=self.name),
                o.metrics.counter("codec.decode.calls", codec=self.name),
                o.metrics.counter("codec.decode.bytes_in", codec=self.name),
                o.metrics.counter("codec.probe.calls", codec=self.name),
                o.metrics.counter("codec.probe.bytes_in", codec=self.name),
            )
            self._obs_handles = (o, handles)
        return handles

    def encode(self, vector: BitVector) -> bytes:
        """Compress ``vector``, reporting to the installed obs sink."""
        payload = self._encode(vector)
        o = _obs.active()
        if o is not None:
            calls, bits_in, bytes_out, *_ = self._counters(o)
            calls.inc(1)
            bits_in.inc(len(vector))
            bytes_out.inc(len(payload))
            tracer = o.tracer
            tracer.attribute("codec.encode.calls", 1)
            tracer.attribute("codec.encode.bits_in", len(vector))
            tracer.attribute("codec.encode.bytes_out", len(payload))
        return payload

    def encode_many(self, vectors) -> list[bytes]:
        """Compress a batch of vectors in one call.

        Payloads are byte-identical to one :meth:`encode` per vector,
        and so are the ``codec.encode.*`` counter totals.
        """
        vectors = list(vectors)
        payloads = self._encode_many(vectors)
        o = _obs.active()
        if o is not None and vectors:
            bits = sum(len(vector) for vector in vectors)
            size = sum(len(payload) for payload in payloads)
            calls, bits_in, bytes_out, *_ = self._counters(o)
            calls.inc(len(vectors))
            bits_in.inc(bits)
            bytes_out.inc(size)
            tracer = o.tracer
            tracer.attribute("codec.encode.calls", len(vectors))
            tracer.attribute("codec.encode.bits_in", bits)
            tracer.attribute("codec.encode.bytes_out", size)
        return payloads

    def decode(self, payload: bytes, length: int) -> BitVector:
        """Decompress ``payload``, reporting to the installed obs sink."""
        vector = self._decode(payload, length)
        o = _obs.active()
        if o is not None:
            _, _, _, calls, bytes_in, *_ = self._counters(o)
            calls.inc(1)
            bytes_in.inc(len(payload))
            tracer = o.tracer
            tracer.attribute("codec.decode.calls", 1)
            tracer.attribute("codec.decode.bytes_in", len(payload))
        return vector

    def decode_view(self, payload, length: int) -> BitVector:
        """Like :meth:`decode`, zero-copy when the codec supports it.

        ``payload`` may be any byte buffer (``bytes`` or a read-only
        ``numpy`` view of an mmap).  When the codec has a zero-copy
        decoded form the returned vector's words alias the payload
        memory — treat it as read-only.  Reports the *same*
        ``codec.decode.*`` counters as :meth:`decode`, so zero-copy and
        copying fetch paths stay byte-for-byte identical in obs.
        """
        vector = self._decode_view(payload, length)
        if vector is None:
            vector = self._decode(payload, length)
        o = _obs.active()
        if o is not None:
            _, _, _, calls, bytes_in, *_ = self._counters(o)
            calls.inc(1)
            bytes_in.inc(len(payload))
            tracer = o.tracer
            tracer.attribute("codec.decode.calls", 1)
            tracer.attribute("codec.decode.bytes_in", len(payload))
        return vector

    def probe_many(self, payloads, length: int, positions: np.ndarray) -> np.ndarray:
        """The bits at ``positions`` of every ``length``-bit payload.

        Returns one boolean row per payload, equal to decoding it and
        gathering ``positions``; a run-length codec may instead search
        its runs and never decode (WAH does, one search over every
        payload of the batch).  A payload that does not decode raises
        the :class:`CodecError` :meth:`decode` would.  Reports
        ``codec.probe.*`` counters (calls count payloads).
        """
        payloads = list(payloads)
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (positions.min() < 0 or positions.max() >= length):
            raise CodecError(f"probe positions outside [0, {length})")
        bits = self._probe_many(payloads, length, positions)
        o = _obs.active()
        if o is not None and payloads:
            size = sum(len(payload) for payload in payloads)
            *_, calls, bytes_in = self._counters(o)
            calls.inc(len(payloads))
            bytes_in.inc(size)
            tracer = o.tracer
            tracer.attribute("codec.probe.calls", len(payloads))
            tracer.attribute("codec.probe.bytes_in", size)
        return bits

    # Deprecated: nothing calls it since the range walk reads a stream
    # leaf window by window; perfbench's tracer still wraps it.  Delete
    # with its wrappers (ROADMAP item 2).
    def decode_blockwise(
        self, payload, length: int, block_words: int = 2048
    ) -> BitVector:
        """:meth:`decode` (``block_words`` is ignored)."""
        return self.decode(payload, length)

    def encoded_size(self, vector: BitVector) -> int:
        """Size in bytes of the encoded form (default: encode and measure).

        Goes through :meth:`_encode` directly so pure size measurement
        (``stats.measure_codec``) does not inflate the encode counters.
        """
        return len(self._encode(vector))

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec) -> Codec:
    """Register ``codec`` under ``codec.name``; returns the codec."""
    if not codec.name:
        raise CodecError(f"codec {codec!r} has no name")
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a codec by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CodecError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_codecs() -> list[str]:
    """Sorted names of all registered codecs."""
    return sorted(_REGISTRY)
