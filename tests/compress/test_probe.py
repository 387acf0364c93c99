"""``Codec.probe_many``: bits at given positions, without a decoded copy.

For every registered codec a probe must equal decoding each payload and
gathering the positions.  WAH answers by one run search over the
batch's streams and never decodes, so a malformed WAH stream must still
fail exactly as :meth:`Codec.decode` fails on it.
"""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import available_codecs, get_codec
from repro.errors import CodecError

LENGTHS = [0, 1, 30, 31, 32, 63, 64, 65, 2**16 - 1, 2**16 + 1]


def random_bitmaps(rng, length):
    return [
        BitVector.from_bools(rng.random(length) < density)
        for density in (0.0, 0.02, 0.5, 1.0)
    ]


def sorted_bitmaps(rng, length):
    """Bitmaps of a sorted column: one run of ones each (fills)."""
    cuts = np.sort(rng.integers(0, length + 1, 6))
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        bits = np.zeros(length, dtype=bool)
        bits[lo:hi] = True
        out.append(BitVector.from_bools(bits))
    return out


def positions_for(rng, length):
    if length == 0:
        return np.empty(0, dtype=np.int64)
    picked = rng.integers(0, length, 64)
    return np.concatenate([[0, length - 1], picked]).astype(np.int64)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("name", available_codecs())
def test_probe_equals_decode_then_gather(name, length):
    codec = get_codec(name)
    rng = np.random.default_rng(length)
    vectors = random_bitmaps(rng, length) + sorted_bitmaps(rng, length)
    payloads = [codec.encode(vector) for vector in vectors]
    positions = positions_for(rng, length)
    bits = codec.probe_many(payloads, length, positions)
    assert bits.shape == (len(vectors), positions.size)
    assert bits.dtype == bool
    for row, payload in zip(bits, payloads):
        decoded = codec.decode(payload, length)
        assert np.array_equal(row, decoded.to_bools()[positions])


@pytest.mark.parametrize("name", available_codecs())
def test_payload_views_probe_like_bytes(name):
    codec = get_codec(name)
    vector = BitVector.from_bools(np.random.default_rng(1).random(1000) < 0.1)
    payload = codec.encode(vector)
    positions = np.arange(0, 1000, 7, dtype=np.int64)
    view = np.frombuffer(payload, dtype=np.uint8)
    assert np.array_equal(
        codec.probe_many([view], 1000, positions),
        codec.probe_many([payload], 1000, positions),
    )


def test_empty_batch():
    bits = get_codec("wah").probe_many([], 100, np.array([3, 4]))
    assert bits.shape == (0, 2)


@pytest.mark.parametrize("name", available_codecs())
@pytest.mark.parametrize("bad", [-1, 100])
def test_positions_outside_the_bitmap_are_rejected(name, bad):
    codec = get_codec(name)
    payload = codec.encode(BitVector.ones(100))
    with pytest.raises(CodecError, match="outside"):
        codec.probe_many([payload], 100, np.array([0, bad]))


def wah_words(*words):
    return np.asarray(words, dtype=np.uint32).tobytes()


class TestMalformedWah:
    """Each malformed stream raises the CodecError its decode raises."""

    LENGTH = 93  # three 31-bit groups

    def good(self):
        return get_codec("wah").encode(BitVector.from_indices(self.LENGTH, [5, 40, 92]))

    def cases(self):
        good = self.good()
        return {
            "truncated": good[:-4],
            "overrunning": good + wah_words(0x8000_0002),
            "misaligned": good[:-1],
            "one word short of a fill": wah_words(0x8000_0002),
        }

    @pytest.mark.parametrize(
        "case", ["truncated", "overrunning", "misaligned", "one word short of a fill"]
    )
    def test_same_error_as_decode(self, case):
        codec = get_codec("wah")
        payload = self.cases()[case]
        with pytest.raises(CodecError) as decoded:
            codec.decode(payload, self.LENGTH)
        with pytest.raises(CodecError) as probed:
            codec.probe_many([payload], self.LENGTH, np.array([0, 5]))
        assert str(probed.value) == str(decoded.value)

    @pytest.mark.parametrize("case", ["truncated", "overrunning", "misaligned"])
    def test_a_bad_stream_fails_the_whole_batch(self, case):
        payloads = [self.good(), self.cases()[case], self.good()]
        with pytest.raises(CodecError):
            get_codec("wah").probe_many(payloads, self.LENGTH, np.array([5]))


def test_probe_counters():
    codec = get_codec("wah")
    payloads = [codec.encode(BitVector.ones(500)), codec.encode(BitVector.zeros(500))]
    with obs.observed() as o:
        codec.probe_many(payloads, 500, np.array([1, 2, 3]))
    assert o.metrics.find("codec.probe.calls", codec="wah").value == 2
    assert o.metrics.find("codec.probe.bytes_in", codec="wah").value == sum(
        len(payload) for payload in payloads
    )
