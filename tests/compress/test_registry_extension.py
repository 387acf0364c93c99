"""A codec registered at runtime flows through every dispatch layer.

Dispatch is by registry lookup, never by codec name: one
:func:`register_codec` call must be *all* a new codec needs for decode,
stats tables, :class:`CompressedBitmap`, the compressed convention of
the query engine and the block streams its range walk reads to pick it
up.  A fake codec (trivial raw clone under a new name, whose one reader
is raw's stream) proves it end to end.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import (
    COMPRESSED_DOMAIN_CODECS,
    CompressedBitmap,
    Codec,
    available_codecs,
    get_codec,
    measure_all_codecs,
    open_stream,
    register_codec,
)
from repro.compress.base import _REGISTRY
from repro.compress.multiway import multiway_threshold
from repro.compress.raw import RawStream
from repro.errors import CodecError


class FakeCodec(Codec):
    """Raw words under a different registry name."""

    name = "fake64"

    def _encode(self, vector):
        return vector.to_bytes()

    def _stream(self, payload, length):
        return RawStream(payload, length)


@pytest.fixture
def fake_codec():
    codec = register_codec(FakeCodec())
    try:
        yield codec
    finally:
        del _REGISTRY["fake64"]


def test_measure_all_codecs_includes_registered_codec(fake_codec, rng):
    vectors = [
        BitVector.from_bools(rng.random(500) < d) for d in (0.01, 0.5)
    ]
    stats = measure_all_codecs(vectors)
    assert "fake64" in stats
    assert list(stats) == available_codecs()
    assert stats["fake64"].encoded_bytes == stats["raw"].encoded_bytes


def test_compressed_bitmap_dispatches_registered_codec(fake_codec, rng):
    vec_a = BitVector.from_bools(rng.random(300) < 0.2)
    vec_b = BitVector.from_bools(rng.random(300) < 0.6)
    a = CompressedBitmap.from_vector(vec_a, "fake64")
    b = CompressedBitmap.from_vector(vec_b, "fake64")
    assert "fake64" in COMPRESSED_DOMAIN_CODECS
    assert (a & b).decode() == (vec_a & vec_b)
    assert (a | b).payload == fake_codec.encode(vec_a | vec_b)
    assert (~a).decode() == ~vec_a
    assert a.count() == vec_a.count()


def test_open_stream_and_multiway_dispatch_registered_codec(fake_codec, rng):
    length = 5000
    vectors = [
        BitVector.from_bools(rng.random(length) < d) for d in (0.1, 0.5, 0.9)
    ]
    payloads = [fake_codec.encode(v) for v in vectors]
    stream = open_stream("fake64", payloads[0], length)
    assert BitVector(length, stream.block(0, stream.num_words).copy()) == vectors[0]
    got = multiway_threshold(2, "fake64", payloads, length)
    raw = get_codec("raw")
    want = multiway_threshold(
        2, "raw", [raw.encode(v) for v in vectors], length
    )
    assert got == want


def test_compressed_engine_accepts_registered_codec(fake_codec, rng):
    from repro.index import BitmapIndex, IndexSpec
    from repro.index.evaluation import QueryEngine
    from repro.queries import IntervalQuery

    values = rng.integers(0, 12, size=400)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=12, scheme="E", codec="fake64")
    )
    engine = QueryEngine(index, engine="compressed")
    query = IntervalQuery(2, 9, 12)
    want = np.flatnonzero((values >= 2) & (values <= 9))
    got = engine.execute(query).bitmap.to_indices()
    assert np.array_equal(got, want)


def test_unregistered_name_still_rejected():
    with pytest.raises(CodecError):
        get_codec("fake64")
    with pytest.raises(CodecError):
        open_stream("fake64", b"", 0)
    assert "fake64" not in COMPRESSED_DOMAIN_CODECS


def test_compressed_domain_codecs_are_the_streamed_codecs_but_raw():
    """The compressed convention takes every registered codec (each one
    streamed by its reader) except raw."""
    assert COMPRESSED_DOMAIN_CODECS == {
        "bbc",
        "wah",
        "ewah",
        "roaring",
        "position_list",
        "range_list",
        "auto",
    }
    assert "raw" not in COMPRESSED_DOMAIN_CODECS
    assert set(available_codecs()) == set(COMPRESSED_DOMAIN_CODECS) | {"raw"}
