"""Tests for :mod:`repro.compress.multiway` — N-way adapters and counters.

Equivalence: the one-pass N-way OR/AND/XOR (the adapters evaluate it
through :func:`repro.expr.evaluate` over block streams) must be
bit-identical to the numpy fold of the plain vectors for every codec,
and a threshold to the naive per-row count.  Accounting:
under the compressed convention, an n-ary node must charge *strictly
fewer* ``words_operated`` than the pairwise fold for N >= 3 (the fold
re-charges every intermediate it materializes; the n-ary node reads
each input once).  Plus the bit-sliced counter in isolation, the
degenerate ``k`` bounds, the error paths, and the ``expr.threshold.*``
obs counters.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS
from repro.compress.compressed_ops import CompressedBitmap
from repro.compress.multiway import (
    ThresholdCounter,
    counter_width,
    multiway_logical,
    multiway_threshold,
)
from repro.compress.streams import open_stream
from repro.errors import BitmapError
from repro.expr import BLOCK_WORDS, EvalStats, Threshold, compile_query, evaluate, leaf
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.queries import IntervalQuery
from repro.storage import CostClock
from repro.workload import zipf_column

COMPRESSED_CODECS = sorted(COMPRESSED_DOMAIN_CODECS)

lengths = st.sampled_from([1, 63, 64, 65, 1000, 2**16 - 1, 2**16 + 1])
densities = st.sampled_from([0.0, 0.05, 0.5, 1.0])

NUMPY_OPS = {
    "and": np.logical_and,
    "or": np.logical_or,
    "xor": np.logical_xor,
}


def stream_of(vector):
    """An opened ``raw`` stream over ``vector``'s words."""
    return open_stream("raw", vector.words.view(np.uint8), len(vector))


def streams_of(vectors):
    return [stream_of(v) for v in vectors]


def random_vectors(n, length, density, seed):
    rng = np.random.default_rng(seed)
    return [
        BitVector.from_bools(rng.random(length) < density) for _ in range(n)
    ]


class TestMultiwayLogical:
    @pytest.mark.parametrize("codec", COMPRESSED_CODECS)
    @pytest.mark.parametrize("op", ["and", "or", "xor"])
    @given(
        n=st.integers(min_value=1, max_value=9),
        length=lengths,
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_pairwise_compressed_fold(
        self, codec, op, n, length, density, seed
    ):
        """One-pass N-way == the numpy fold of the plain vectors."""
        vectors = random_vectors(n, length, density, seed)
        encoded = [CompressedBitmap.from_vector(v, codec) for v in vectors]
        merged = multiway_logical(op, codec, [e.payload for e in encoded], length)
        oracle = reduce(
            NUMPY_OPS[op], [v.to_bools() for v in vectors]
        )
        assert merged.to_bools().tolist() == oracle.tolist()

    def test_unknown_operator_rejected(self):
        vec = BitVector.from_bools(np.array([True, False]))
        payload = CompressedBitmap.from_vector(vec, "wah").payload
        with pytest.raises(BitmapError, match="unknown multiway operator"):
            multiway_logical("nand", "wah", [payload], 2)

    def test_empty_inputs_rejected(self):
        with pytest.raises(BitmapError, match="at least one input"):
            multiway_logical("or", "wah", [], 10)

    def test_codec_name_count_mismatch_rejected(self):
        payload = CompressedBitmap.from_vector(BitVector.zeros(8), "wah").payload
        with pytest.raises(BitmapError, match="codec names"):
            multiway_logical("or", ["wah"], [payload, payload], 8)


class TestThresholdKernels:
    @given(
        n=st.integers(min_value=1, max_value=32),
        length=lengths,
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_vectors_matches_count(
        self, n, length, density, seed, data
    ):
        vectors = random_vectors(n, length, density, seed)
        k = data.draw(st.integers(1, n), label="k")
        counts = np.zeros(length, dtype=np.int64)
        for vector in vectors:
            counts += vector.to_bools()
        leaves = tuple(leaf(i) for i in range(n))
        result = evaluate(Threshold(k, leaves), vectors.__getitem__, length)
        assert result.to_bools().tolist() == (counts >= k).tolist()

    def test_k_at_most_zero_is_all_ones_masked(self):
        vectors = random_vectors(2, 70, 0.5, 3)
        result = multiway_threshold(0, "raw", streams_of(vectors), 70)
        assert result.to_bools().all()
        # Padding bits above length 70 must be masked off.
        assert int(result.words[-1]) >> 6 == 0

    def test_k_above_n_is_all_zeros(self):
        vectors = random_vectors(2, 70, 1.0, 3)
        result = multiway_threshold(3, "raw", streams_of(vectors), 70)
        assert not result.to_bools().any()

    def test_empty_vectors_rejected(self):
        with pytest.raises(BitmapError, match="at least one input"):
            multiway_threshold(1, "raw", [], 10)

    def test_stream_length_mismatch_rejected(self):
        streams = [
            stream_of(BitVector.zeros(64)),
            stream_of(BitVector.zeros(128)),
        ]
        with pytest.raises(BitmapError, match="length"):
            multiway_threshold(1, "raw", streams, 64)

    @pytest.mark.parametrize("codec", COMPRESSED_CODECS)
    def test_multiway_threshold_roundtrip(self, codec):
        vectors = random_vectors(5, 1000, 0.3, 11)
        payloads = [
            CompressedBitmap.from_vector(v, codec).payload for v in vectors
        ]
        counts = np.zeros(1000, dtype=np.int64)
        for vector in vectors:
            counts += vector.to_bools()
        for k in (1, 3, 5):
            result = multiway_threshold(k, codec, payloads, 1000)
            assert result.to_bools().tolist() == (counts >= k).tolist()

    def test_emits_obs_counters(self):
        vectors = random_vectors(4, 256, 0.5, 7)
        with obs.observed() as o:
            multiway_threshold(2, "raw", streams_of(vectors), 256)
        assert o.counter_total("expr.threshold.evals") == 1
        assert o.counter_total("expr.threshold.children") == 4


class TestThresholdCounter:
    def test_counter_width(self):
        assert counter_width(1) == 1
        assert counter_width(3) == 2
        assert counter_width(4) == 3
        assert counter_width(32) == 6
        with pytest.raises(BitmapError):
            counter_width(0)

    @given(
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_then_compare_matches_popcount(self, n, seed, data):
        words = 4
        rng = np.random.default_rng(seed)
        blocks = [
            rng.integers(0, 2**64, size=words, dtype=np.uint64)
            for _ in range(n)
        ]
        k = data.draw(st.integers(1, n), label="k")
        counter = ThresholdCounter(n, words)
        counter.reset(words)
        for block in blocks:
            counter.add(block)
        out = np.empty(words, dtype=np.uint64)
        counter.compare_ge(k, out)
        for w in range(words):
            for bit in range(64):
                count = sum(
                    (int(block[w]) >> bit) & 1 for block in blocks
                )
                expected = count >= k
                got = bool((int(out[w]) >> bit) & 1)
                assert got == expected, (w, bit, count, k)

    def test_reset_reuses_scratch_between_windows(self):
        counter = ThresholdCounter(3, 2)
        out = np.empty(2, dtype=np.uint64)
        full = np.full(2, 0xFFFF_FFFF_FFFF_FFFF, dtype=np.uint64)
        for _ in range(2):  # second window must not see the first's counts
            counter.reset(2)
            counter.add(full)
            counter.compare_ge(2, out)
            assert not out.any()
            counter.add(full)
            counter.compare_ge(2, out)
            assert (out == full).all()


class TestEngineAccounting:
    """N-ary nodes vs pairwise folds under the compressed convention."""

    FANIN = 6

    @pytest.fixture(scope="class")
    def engine_parts(self):
        # Range-encoded prefix bitmaps (A <= v): dense, overlapping, so
        # a fold's intermediates stay large and its re-charging shows.
        cardinality = self.FANIN + 2
        values = zipf_column(4000, cardinality, 1.0, seed=5)
        index = BitmapIndex.build(
            values,
            IndexSpec(cardinality=cardinality, scheme="R", codec="wah"),
        )
        leaves = [
            index.rewriter.rewrite_interval(
                IntervalQuery(0, v, cardinality)
            )
            for v in range(1, self.FANIN + 1)
        ]
        return index, leaves

    def run(self, index, expr):
        clock = CostClock()
        engine = QueryEngine(index, clock=clock, engine="compressed")
        bitmap = engine.evaluate_shared(compile_query([expr]), {}, EvalStats())
        return bitmap, clock.words_operated

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("op", ["|", "&"])
    def test_nary_strictly_cheaper_than_pairwise_fold(
        self, engine_parts, n, op
    ):
        index, leaves = engine_parts
        children = leaves[:n]
        fold = {"|": lambda a, b: a | b, "&": lambda a, b: a & b}[op]
        chain = reduce(fold, children)  # nested binary nodes
        nary = type(fold(children[0], children[1]))(tuple(children))
        chain_bitmap, chain_words = self.run(index, chain)
        nary_bitmap, nary_words = self.run(index, nary)
        assert nary_bitmap == chain_bitmap, (op, n)
        assert nary_words < chain_words, (op, n)

    def test_pairwise_and_nary_words_equal_for_two(self, engine_parts):
        index, leaves = engine_parts
        from repro.expr.nodes import Or

        _, chain_words = self.run(index, leaves[0] | leaves[1])
        _, nary_words = self.run(index, Or(tuple(leaves[:2])))
        assert nary_words == chain_words

    def test_threshold_one_strictly_cheaper_than_or_fold(self, engine_parts):
        index, leaves = engine_parts
        chain = reduce(lambda a, b: a | b, leaves)
        chain_bitmap, chain_words = self.run(index, chain)
        threshold_bitmap, threshold_words = self.run(
            index, Threshold(1, tuple(leaves))
        )
        assert threshold_bitmap == chain_bitmap
        assert threshold_words < chain_words

    def test_default_block_words_is_power_of_two(self):
        assert BLOCK_WORDS & (BLOCK_WORDS - 1) == 0
