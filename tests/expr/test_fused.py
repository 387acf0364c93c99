"""Fixed-example tests of :func:`repro.expr.evaluate` over several ranges.

The hypothesis suite beside it (``test_fused_differential``) owns the
naive-scan differential; these pin named cases on a vector of three
word ranges with a ragged tail: answers, range independence, the
shared-cache accounting, the obs counters and codec-decoded leaves.
(The module keeps its historical name and test names, from when it
tested a separate fused evaluator.)
"""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import get_codec
from repro.errors import BitmapError
from repro.expr import EvalStats, evaluate, leaf, one, zero
from repro.expr.evaluator import BLOCK_WORDS
from tests.expr.test_fused_differential import check_evaluate, naive


def make_bitmaps(length, seed=0, keys="abcd"):
    rng = np.random.default_rng(seed)
    return {
        key: BitVector.from_bools(rng.random(length) < density)
        for key, density in zip(keys, (0.3, 0.5, 0.05, 0.9))
    }


RANGE_BITS = BLOCK_WORDS * 64
# Three ranges, the last one ragged.
LENGTH = 2 * RANGE_BITS + 17
BITMAPS = make_bitmaps(LENGTH)

EXPRS = [
    leaf("a"),
    ~leaf("a"),
    leaf("a") & leaf("b"),
    (leaf("a") & leaf("b")) | leaf("c"),
    ~(leaf("a") ^ leaf("b")),
    (~leaf("a") | leaf("b")) & ~(leaf("c") ^ ~leaf("d")),
    (leaf("a") | one()) ^ (leaf("b") & zero()),
    ~~leaf("a") & ~(~leaf("b")),
]
IDS = [str(i) for i in range(len(EXPRS))]


class TestCorrectness:
    @pytest.mark.parametrize("expr", EXPRS, ids=IDS)
    def test_matches_materializing(self, expr):
        check_evaluate(expr, BITMAPS, LENGTH)

    def test_padding_bits_clean_after_folded_not(self):
        # A complement sets padding bits; the final mask must clear
        # them so count()/to_indices() stay correct.
        length = 100
        vec = BitVector.from_indices(length, [0, 99])
        result = evaluate(~leaf("a"), {"a": vec}.get, length)
        assert result.count() == length - 2
        assert int(result.words[-1]) >> (length % 64) == 0

    def test_result_does_not_alias_fetched_bitmap(self):
        original = bool(BITMAPS["a"][10])
        result = evaluate(leaf("a") | zero(), BITMAPS.get, LENGTH)
        result[10] = not original
        assert bool(BITMAPS["a"][10]) == original

    def test_block_size_invariance(self):
        # The first range of a long vector equals the same expression
        # over just that range's bits: range edges move no answer bit.
        expr = (~leaf("a") | leaf("b")) & ~(leaf("c") ^ leaf("d"))
        whole = evaluate(expr, BITMAPS.get, LENGTH).to_bools()
        head = {
            key: BitVector.from_bools(vec.to_bools()[:RANGE_BITS])
            for key, vec in BITMAPS.items()
        }
        part = evaluate(expr, head.get, RANGE_BITS).to_bools()
        assert part.tolist() == whole[:RANGE_BITS].tolist()

    def test_length_mismatch_detected(self):
        with pytest.raises(BitmapError):
            evaluate(leaf("a"), BITMAPS.get, LENGTH + 1)


class TestAccounting:
    @pytest.mark.parametrize("expr", EXPRS, ids=IDS)
    def test_stats_match_materializing(self, expr):
        # A second evaluation against the same cache fetches nothing
        # but charges the same operations and gives the same answer.
        cache, first, second = {}, EvalStats(), EvalStats()
        a = evaluate(expr, BITMAPS.get, LENGTH, first, cache)
        b = evaluate(expr, BITMAPS.get, LENGTH, second, cache)
        assert a == b
        assert first.scans == len(first.fetched_keys) == len(expr.leaf_keys())
        assert (second.scans, second.fetched_keys) == (0, [])
        assert second.operations == first.operations

    def test_shared_cache_suppresses_refetch(self):
        cache, stats = {}, EvalStats()
        evaluate(leaf("a") & leaf("b"), BITMAPS.get, LENGTH, stats, cache)
        evaluate(leaf("a") | leaf("c"), BITMAPS.get, LENGTH, stats, cache)
        assert stats.scans == 3

    def test_cse_charge_is_memoized(self):
        shared = leaf("a") & leaf("b")
        stats = EvalStats()
        evaluate(shared | shared, BITMAPS.get, LENGTH, stats)
        # The logical charge counts the repeated AND once, plus the OR.
        assert stats.operations == 2

    def test_obs_counters(self):
        with obs.observed() as o:
            evaluate(~(leaf("a") & ~leaf("b")), BITMAPS.get, LENGTH)
        assert o.counter_total("expr.fused.blocks") == 3  # word ranges

    def test_materializing_counts_intermediates(self):
        with obs.observed() as o:
            evaluate(~(leaf("a") & leaf("b")) | leaf("c"), BITMAPS.get, LENGTH)
        assert o.metrics.find("expr.intermediate_allocs").value == 0


class TestStreams:
    @pytest.mark.parametrize("codec", ["raw", "bbc", "wah", "ewah", "roaring"])
    def test_encoded_leaves_stream(self, codec):
        impl = get_codec(codec)
        decoded = {
            key: impl.decode_view(impl.encode(vec), LENGTH)
            for key, vec in BITMAPS.items()
        }
        expr = (~leaf("a") | leaf("b")) & ~(leaf("c") ^ leaf("d"))
        stats = EvalStats()
        result = evaluate(expr, decoded.get, LENGTH, stats)
        assert result.to_bools().tolist() == naive(expr, BITMAPS, LENGTH).tolist()
        assert stats.scans == 4

    def test_stream_length_mismatch_detected(self):
        impl = get_codec("ewah")
        short = impl.decode(impl.encode(BITMAPS["a"]), LENGTH)
        with pytest.raises(BitmapError):
            evaluate(leaf("a") & leaf("b"), {"a": short, "b": short}.get, LENGTH - 1)
