"""Tests for the epoch-keyed result cache."""

import pytest

from repro.bitmap import BitVector
from repro.serve.cache import ResultCache


def bits(n):
    return BitVector.ones(n)


EXPR_A = ("a",)
EXPR_B = ("b",)


class TestResultCache:
    def test_get_miss_then_hit(self):
        cache = ResultCache(4)
        assert cache.get(0, EXPR_A) is None
        cache.put(0, EXPR_A, bits(3))
        assert cache.get(0, EXPR_A) == bits(3)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_epoch_is_part_of_the_key(self):
        cache = ResultCache(4)
        cache.put(0, EXPR_A, bits(3))
        assert cache.get(1, EXPR_A) is None

    def test_invalidate_below_drops_only_stale(self):
        cache = ResultCache(8)
        cache.put(0, EXPR_A, bits(1))
        cache.put(0, EXPR_B, bits(2))
        cache.put(1, EXPR_A, bits(3))
        dropped = cache.invalidate_below(1)
        assert dropped == 2
        assert cache.stats.invalidated == 2
        assert len(cache) == 1
        assert cache.get(1, EXPR_A) == bits(3)

    def test_lru_eviction(self):
        cache = ResultCache(2)
        cache.put(0, EXPR_A, bits(1))
        cache.put(0, EXPR_B, bits(2))
        cache.get(0, EXPR_A)  # A is now most recently used
        cache.put(0, ("c",), bits(3))
        assert cache.get(0, EXPR_B) is None  # B was the LRU victim
        assert cache.get(0, EXPR_A) is not None
        assert cache.stats.evictions == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        cache.put(0, EXPR_A, bits(1))
        assert len(cache) == 0
        assert cache.get(0, EXPR_A) is None

    def test_capacity_zero_counts_misses_without_hashing(self):
        class Unhashable:
            def __hash__(self):
                raise AssertionError("a disabled cache hashed its key")

        cache = ResultCache(0)
        for _ in range(3):
            assert cache.get(0, (Unhashable(),)) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 3)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_put_replaces_existing_entry(self):
        cache = ResultCache(2)
        cache.put(0, EXPR_A, bits(1))
        cache.put(0, EXPR_A, bits(5))
        assert len(cache) == 1
        assert cache.get(0, EXPR_A) == bits(5)

    def test_clear_keeps_stats(self):
        cache = ResultCache(4)
        cache.put(0, EXPR_A, bits(1))
        cache.get(0, EXPR_A)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
