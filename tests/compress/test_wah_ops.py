"""WAH cases of :class:`CompressedBitmap`: fills, tail masking, bad payloads.

WAH's 31-bit groups straddle the range walk's 64-bit words, so these
pin the operators over WAH payloads on the shapes that stress that
realignment: long fills, lengths at and off group boundaries, and
payloads that do not match their declared length.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import CompressedBitmap, get_codec
from repro.errors import CodecError
from tests.conftest import random_bitvector

CODEC = get_codec("wah")


def enc(vector: BitVector) -> CompressedBitmap:
    return CompressedBitmap.from_vector(vector, "wah")


def wah(payload: bytes, length: int) -> CompressedBitmap:
    return CompressedBitmap(payload, length, "wah")


class TestBinaryOps:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.a = random_bitvector(rng, 4000, density=0.05)
        self.b = random_bitvector(rng, 4000, density=0.4)

    @pytest.mark.parametrize("op", ["and", "or", "xor"])
    def test_matches_plain_ops(self, op):
        fn = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}[op]
        assert fn(enc(self.a), enc(self.b)).decode() == fn(self.a, self.b)

    def test_fill_and_fill_is_constant_size(self):
        zeros = enc(BitVector.zeros(1_000_000))
        ones = enc(BitVector.ones(1_000_000))
        assert (zeros & ones).compressed_size() <= 8
        assert (zeros | ones).count() == 1_000_000

    def test_fill_short_circuits_literals(self, rng):
        noisy = enc(random_bitvector(rng, 100_000, density=0.5))
        zeros = enc(BitVector.zeros(100_000))
        result = zeros & noisy
        assert result.compressed_size() <= 8
        assert result.count() == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(CodecError):
            _ = enc(BitVector.zeros(31)) & enc(BitVector.zeros(62))

    def test_misaligned_payload_rejected(self):
        with pytest.raises(CodecError):
            _ = wah(b"\x00\x00\x00", 31) & wah(b"\x00\x00\x00", 31)


class TestNot:
    def test_not_masks_tail(self):
        vec = BitVector.from_indices(40, [0, 39])
        assert (~enc(vec)).decode() == ~vec

    def test_not_of_long_fill_stays_compressed(self):
        result = ~enc(BitVector.zeros(10_000_000))
        assert result.compressed_size() <= 12
        assert result.count() == 10_000_000

    def test_group_aligned_length(self):
        vec = BitVector.from_indices(62, [5])
        assert (~enc(vec)).count() == 61

    def test_length_mismatch_detected(self):
        with pytest.raises(CodecError):
            _ = ~wah(CODEC.encode(BitVector.zeros(31)), 62)


class TestCount:
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
    def test_counts_match(self, rng, density):
        vec = random_bitvector(rng, 3100, density)
        assert enc(vec).count() == vec.count()


run_lists = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=120)),
    min_size=0,
    max_size=10,
)


def vec_of(runs, length):
    bits = []
    for value, count in runs:
        bits.extend([value] * count)
    bits = (bits + [False] * length)[:length]
    return BitVector.from_bools(np.array(bits, dtype=bool))


@given(runs_a=run_lists, runs_b=run_lists, extra=st.integers(0, 70))
@settings(max_examples=250, deadline=None)
def test_wah_property(runs_a, runs_b, extra):
    length = max(sum(c for _, c in runs_a), sum(c for _, c in runs_b), 1) + extra
    a, b = vec_of(runs_a, length), vec_of(runs_b, length)
    pa, pb = enc(a), enc(b)
    assert (pa & pb).decode() == (a & b)
    assert (pa | pb).decode() == (a | b)
    assert (pa ^ pb).decode() == (a ^ b)
    assert (~pa).decode() == ~a
    assert pa.count() == a.count()


@given(runs=run_lists, extra=st.integers(1, 70))
@settings(max_examples=150, deadline=None)
def test_wah_output_is_canonical(runs, extra):
    """Operator results decode AND re-encode identically — the writer's
    fill re-detection keeps payloads canonical."""
    length = max(sum(c for _, c in runs), 1) + extra
    payload = (~enc(vec_of(runs, length))).payload
    assert payload == CODEC.encode(CODEC.decode(payload, length))
