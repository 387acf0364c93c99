"""Tests for :class:`CompressedBitmap` over EWAH payloads (the default codec).

Operators run the range walk over the operands' block streams and
re-encode the result; these cases pin its answers, its sizes on clean
operands, the tail-padding invariant of NOT, and the wrapper protocol.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import CompressedBitmap
from repro.errors import CodecError
from tests.conftest import random_bitvector


def compressed(vector: BitVector) -> CompressedBitmap:
    return CompressedBitmap.from_vector(vector)


class TestBinaryOps:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.a = random_bitvector(rng, 5000, density=0.02)
        self.b = random_bitvector(rng, 5000, density=0.3)

    @pytest.mark.parametrize("op,expected", [
        ("and", lambda a, b: a & b),
        ("or", lambda a, b: a | b),
        ("xor", lambda a, b: a ^ b),
    ])
    def test_matches_plain_ops(self, op, expected):
        ca, cb = compressed(self.a), compressed(self.b)
        result = {"and": ca & cb, "or": ca | cb, "xor": ca ^ cb}[op]
        assert result.decode() == expected(self.a, self.b)

    def test_sparse_and_sparse_stays_tiny(self):
        a = BitVector.from_indices(1_000_000, [10])
        b = BitVector.from_indices(1_000_000, [999_990])
        result = compressed(a) & compressed(b)
        assert result.count() == 0
        assert result.compressed_size() < 64

    def test_clean_runs_short_circuit(self):
        # AND with an all-zero bitmap never touches the dirty words.
        zero = compressed(BitVector.zeros(100_000))
        rng = np.random.default_rng(1)
        noisy = compressed(random_bitvector(rng, 100_000, 0.5))
        result = zero & noisy
        assert result.count() == 0
        assert result.compressed_size() <= 16

    def test_or_with_ones_short_circuits(self):
        ones = compressed(BitVector.ones(100_000))
        rng = np.random.default_rng(2)
        noisy = compressed(random_bitvector(rng, 100_000, 0.5))
        assert (ones | noisy).count() == 100_000

    def test_xor_with_ones_complements(self):
        ones = compressed(BitVector.ones(6400))
        vec = BitVector.from_indices(6400, [0, 100, 6399])
        assert (ones ^ compressed(vec)).decode() == ~vec

    def test_length_mismatch_rejected(self):
        with pytest.raises(CodecError):
            _ = compressed(BitVector.zeros(64)) & compressed(BitVector.zeros(128))


class TestNot:
    def test_not_masks_padding(self):
        vec = BitVector.from_indices(70, [0, 69])
        result = ~compressed(vec)
        assert result.decode() == ~vec
        assert result.count() == 68

    def test_not_of_zeros(self):
        assert (~compressed(BitVector.zeros(1000))).count() == 1000

    def test_double_not_identity(self):
        rng = np.random.default_rng(3)
        vec = random_bitvector(rng, 777, 0.4)
        assert (~~compressed(vec)).decode() == vec

    def test_word_aligned_length(self):
        vec = BitVector.from_indices(128, [5])
        assert (~compressed(vec)).count() == 127


class TestCount:
    def test_counts_match(self):
        rng = np.random.default_rng(4)
        for density in (0.0, 0.001, 0.5, 1.0):
            vec = random_bitvector(rng, 3000, density)
            assert compressed(vec).count() == vec.count()


class TestWrapper:
    def test_roundtrip_equality(self):
        vec = BitVector.from_indices(200, [1, 2, 3])
        assert compressed(vec) == compressed(vec.copy())

    def test_repr(self):
        assert "length=200" in repr(compressed(BitVector.zeros(200)))


# ---------------------------------------------------------------------------
# Property: compressed-domain algebra == plain algebra.
# ---------------------------------------------------------------------------

run_lists = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=150)),
    min_size=0,
    max_size=12,
)


def vec_of(runs, length):
    bits = []
    for value, count in runs:
        bits.extend([value] * count)
    bits = (bits + [False] * length)[:length]
    return BitVector.from_bools(np.array(bits, dtype=bool))


@given(runs_a=run_lists, runs_b=run_lists, extra=st.integers(0, 130))
@settings(max_examples=250, deadline=None)
def test_compressed_ops_property(runs_a, runs_b, extra):
    length = max(
        sum(c for _, c in runs_a), sum(c for _, c in runs_b), 1
    ) + extra
    a, b = vec_of(runs_a, length), vec_of(runs_b, length)
    ca, cb = compressed(a), compressed(b)
    assert (ca & cb).decode() == (a & b)
    assert (ca | cb).decode() == (a | b)
    assert (ca ^ cb).decode() == (a ^ b)
    assert (~ca).decode() == ~a
    assert (ca | cb).count() == (a | b).count()


@given(runs_a=run_lists)
@settings(max_examples=150, deadline=None)
def test_demorgan_in_compressed_domain(runs_a):
    length = max(sum(c for _, c in runs_a), 1)
    a = vec_of(runs_a, length)
    b = vec_of(list(reversed(runs_a)), length)
    ca, cb = compressed(a), compressed(b)
    left = ~(ca & cb)
    right = (~ca) | (~cb)
    assert left.decode() == right.decode()
