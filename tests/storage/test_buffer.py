"""Tests for the LRU buffer pool and its cost accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.errors import BufferError_, CodecError
from repro.storage import BitmapStore, BufferPool, CostClock


def make_store(num_bitmaps: int = 8, length: int = 10_000) -> BitmapStore:
    # page_size 512 -> each decoded bitmap is ceil(1256/512) = 3 pages.
    store = BitmapStore(codec="raw", page_size=512)
    for i in range(num_bitmaps):
        store.put(i, BitVector.from_indices(length, [i]))
    return store


class TestLruSemantics:
    def test_hit_after_miss(self):
        pool = BufferPool(make_store(), capacity_pages=100)
        pool.fetch(0)
        pool.fetch(0)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_eviction_order_is_lru(self):
        # Capacity for exactly two decoded bitmaps (3 pages each).
        pool = BufferPool(make_store(), capacity_pages=6)
        pool.fetch(0)
        pool.fetch(1)
        pool.fetch(0)      # touch 0 so 1 is the LRU victim
        pool.fetch(2)      # evicts 1
        assert pool.contains(0)
        assert not pool.contains(1)
        assert pool.contains(2)
        assert pool.stats.evictions == 1

    def test_capacity_never_exceeded(self):
        pool = BufferPool(make_store(), capacity_pages=7)
        for i in range(8):
            pool.fetch(i)
            assert pool.used_pages <= 7

    def test_oversized_fetch_still_served(self):
        pool = BufferPool(make_store(), capacity_pages=1)
        vector = pool.fetch(0)
        assert vector.count() == 1

    def test_stats_invariant_fetches(self):
        pool = BufferPool(make_store(), capacity_pages=6)
        for key in [0, 1, 2, 0, 1, 2, 2]:
            pool.fetch(key)
        assert pool.stats.fetches == pool.stats.hits + pool.stats.misses == 7

    def test_clear_drops_residents(self):
        pool = BufferPool(make_store(), capacity_pages=100)
        pool.fetch(0)
        pool.clear()
        assert pool.used_pages == 0
        pool.fetch(0)
        assert pool.stats.misses == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(BufferError_):
            BufferPool(make_store(), capacity_pages=0)

    def test_hit_ratio(self):
        pool = BufferPool(make_store(), capacity_pages=100)
        assert pool.stats.hit_ratio == 0.0
        pool.fetch(0)
        pool.fetch(0)
        pool.fetch(0)
        assert pool.stats.hit_ratio == pytest.approx(2 / 3)


class TestClockCharges:
    def test_miss_charges_io(self):
        clock = CostClock()
        pool = BufferPool(make_store(), capacity_pages=100, clock=clock)
        pool.fetch(0)
        assert clock.read_requests == 1
        assert clock.pages_read == 3
        assert clock.io_ms == pytest.approx(
            clock.model.seek_ms + 3 * clock.model.transfer_ms_per_page
        )

    def test_hit_charges_nothing(self):
        clock = CostClock()
        pool = BufferPool(make_store(), capacity_pages=100, clock=clock)
        pool.fetch(0)
        before = clock.total_ms
        pool.fetch(0)
        assert clock.total_ms == before

    def test_compressed_store_charges_decompression(self):
        store = BitmapStore(codec="bbc", page_size=512)
        store.put("x", BitVector.from_indices(10_000, [7]))
        clock = CostClock()
        pool = BufferPool(store, capacity_pages=100, clock=clock)
        pool.fetch("x")
        assert clock.bytes_decompressed > 0
        assert clock.cpu_ms > 0

    def test_raw_store_charges_no_decompression(self):
        clock = CostClock()
        pool = BufferPool(make_store(), capacity_pages=100, clock=clock)
        pool.fetch(0)
        assert clock.bytes_decompressed == 0

    def test_word_ops_and_reset(self):
        clock = CostClock()
        clock.charge_word_ops(4, 100)
        assert clock.words_operated == 400
        assert clock.cpu_ms > 0
        clock.reset()
        assert clock.total_ms == 0.0
        assert clock.words_operated == 0


class TestInPlaceResize:
    """Re-fetching a resident bitmap re-measures it (regression tests:
    the pool used to keep the page count recorded at insert time, so an
    in-place size change corrupted ``used_pages`` at eviction time)."""

    def test_refetch_after_growth_evicts_others_not_the_key(self):
        pool = BufferPool(make_store(), capacity_pages=9)
        vector = pool.fetch(0)
        pool.fetch(1)
        pool.fetch(2)  # 3 x 3 pages, pool exactly full
        # Grow key 0 in place: 40_000 bits = 5000 bytes -> 10 pages.
        BitVector.__init__(vector, 40_000)
        assert pool.fetch(0) is vector
        assert pool.stats.hits == 1
        assert pool.contains(0)
        assert not pool.contains(1)
        assert not pool.contains(2)
        assert pool.used_pages == 10  # oversized entries occupy the pool alone

    def test_refetch_after_shrink_frees_pages(self):
        pool = BufferPool(make_store(), capacity_pages=9)
        vector = pool.fetch(0)
        pool.fetch(1)
        pool.fetch(2)
        # Shrink key 0 in place: 512 bits = 64 bytes -> 1 page.
        BitVector.__init__(vector, 512)
        pool.fetch(0)
        assert pool.used_pages == 7
        pool.fetch(3)  # needs 3 pages; only the LRU entry (1) must go
        assert pool.stats.evictions == 1
        assert pool.contains(0)
        assert not pool.contains(1)
        assert pool.contains(2)
        assert pool.contains(3)
        assert pool.used_pages == 7

    def test_unchanged_hit_keeps_accounting(self):
        pool = BufferPool(make_store(), capacity_pages=9)
        pool.fetch(0)
        used = pool.used_pages
        pool.fetch(0)
        assert pool.used_pages == used
        assert pool.stats.evictions == 0


class TestEvictToFitKeep:
    """``_evict_to_fit(keep=...)`` must never evict the entry whose hit
    triggered the eviction, even when that entry alone no longer fits."""

    def grown_pool(self) -> BufferPool:
        pool = BufferPool(make_store(), capacity_pages=9)
        vector = pool.fetch(0)
        pool.fetch(1)
        pool.fetch(2)
        pool.fetch(1)  # make key 0 the LRU victim candidate
        # Grow key 0 in place past the whole capacity:
        # 80_000 bits = 10_000 bytes -> 20 pages > 9.
        BitVector.__init__(vector, 80_000)
        assert pool.fetch(0) is vector  # hit re-measures and evicts
        return pool

    def test_grown_entry_exceeding_capacity_survives_its_own_hit(self):
        pool = self.grown_pool()
        assert pool.contains(0)
        assert not pool.contains(1)
        assert not pool.contains(2)
        assert pool.stats.evictions == 2
        # The loop terminates with only the protected entry resident,
        # over capacity — oversized entries occupy the pool alone.
        assert pool.used_pages == 20 > pool.capacity_pages

    def test_next_miss_evicts_the_oversized_entry(self):
        pool = self.grown_pool()
        pool.fetch(3)
        assert not pool.contains(0)
        assert pool.contains(3)
        assert pool.used_pages == 3
        assert pool.stats.evictions == 3


class TestClearStats:
    def test_clear_preserves_every_counter_exactly(self):
        pool = BufferPool(make_store(), capacity_pages=6)
        # misses: 0, 1, 2 (evicts 0), 0 (evicts 1); hit: 2.
        for key in [0, 1, 2, 0, 2]:
            pool.fetch(key)
        assert (pool.stats.hits, pool.stats.misses, pool.stats.evictions) == (
            1, 4, 2,
        )
        pool.clear()
        assert pool.used_pages == 0
        assert not pool.contains(0)
        assert (pool.stats.hits, pool.stats.misses, pool.stats.evictions) == (
            1, 4, 2,
        )
        assert pool.stats.hit_ratio == pytest.approx(1 / 5)


@given(
    sequence=st.lists(st.integers(min_value=0, max_value=7), max_size=60),
    capacity=st.integers(min_value=3, max_value=30),
)
@settings(max_examples=150, deadline=None)
def test_pool_properties(sequence, capacity):
    """Invariants under arbitrary access sequences: correct contents,
    bounded residency, consistent stats."""
    store = make_store()
    pool = BufferPool(store, capacity_pages=capacity)
    for key in sequence:
        vector = pool.fetch(key)
        assert vector == store.get(key)
        assert pool.used_pages <= max(capacity, 3)
    assert pool.stats.fetches == len(sequence)
    assert pool.stats.hits + pool.stats.misses == len(sequence)
    assert pool.stats.evictions <= pool.stats.misses


class TestFillRunEntries:
    """Fill-dominated (sorted) WAH bitmaps through a decoding pool."""

    def make_sorted_store(self, length=65_536):
        store = BitmapStore(codec="wah", page_size=512)
        for i in range(4):
            bits = np.zeros(length, dtype=bool)
            bits[i * 9_000 + 17 : i * 9_000 + 20_011] = True
            store.put(("run", i), BitVector.from_bools(bits))
        rng = np.random.default_rng(0)
        store.put("noisy", BitVector.from_bools(rng.random(length) < 0.3))
        return store

    def test_hits_expand_to_the_stored_bitmap(self):
        store = self.make_sorted_store()
        pool = BufferPool(store, capacity_pages=10_000)
        for key in store.keys():
            first = pool.fetch(key)
            again = pool.fetch(key)
            assert first == again == store.get(key)
        assert pool.stats.misses == 5 and pool.stats.hits == 5

    def test_raw_bitmaps_stay_decoded(self):
        store = BitmapStore(codec="raw", page_size=512)
        store.put("a", BitVector.zeros(65_536))
        pool = BufferPool(store, capacity_pages=100)
        pool.fetch("a")
        assert isinstance(pool._resident["a"][0], BitVector)

    def test_replaced_payload_is_reread(self):
        store = self.make_sorted_store()
        pool = BufferPool(store, capacity_pages=10_000)
        pool.fetch(("run", 0))
        store.put(("run", 0), BitVector.ones(65_536))
        assert pool.fetch(("run", 0)) == BitVector.ones(65_536)
        assert pool.stats.misses == 2


class TestProbingPool:
    """A pool with ``probe`` keeps each bitmap's bits at the probe
    positions and accounts for it exactly as a decoding pool does."""

    POSITIONS = np.array([0, 17, 3_000, 9_999], dtype=np.int64)

    def probing(self, store, capacity, clock=None, positions=None):
        positions = self.POSITIONS if positions is None else positions
        return BufferPool(
            store, capacity, clock=clock, probe=lambda: (positions, 10_000)
        )

    def wah_store(self):
        store = BitmapStore(codec="wah", page_size=512)
        for i in range(8):
            bits = np.zeros(10_000, dtype=bool)
            bits[i * 1_000 : 3_000 + i * 1_000] = True
            store.put(i, BitVector.from_bools(bits))
        return store

    def test_entries_are_the_bits_at_the_positions(self):
        store = self.wah_store()
        pool = self.probing(store, 100)
        for key, vector in zip(range(8), pool.fetch_many(range(8))):
            assert len(vector) == self.POSITIONS.size
            assert np.array_equal(vector.to_bools(), store.get(key).take(self.POSITIONS))
            assert pool.fetch(key) is vector
        assert (pool.stats.misses, pool.stats.hits) == (8, 8)

    @pytest.mark.parametrize("capacity", [3, 7, 100])
    def test_accounting_equals_fetching_one_at_a_time(self, capacity):
        sequence = [[0, 1, 2], [2, 3], [0, 4, 5, 6], [1], [7, 0, 3]]
        store = self.wah_store()
        probe_clock, fetch_clock = CostClock(), CostClock()
        probing = self.probing(store, capacity, probe_clock)
        decoding = BufferPool(store, capacity, clock=fetch_clock)
        for keys in sequence:
            probing.fetch_many(keys)
            for key in keys:
                decoding.fetch(key)
            assert probing.used_pages == decoding.used_pages
            assert [probing.contains(k) for k in range(8)] == [
                decoding.contains(k) for k in range(8)
            ]
        assert probing.stats == decoding.stats
        assert probe_clock.total_ms == fetch_clock.total_ms
        assert probe_clock.pages_read == fetch_clock.pages_read

    def test_an_entry_evicted_in_its_own_batch_is_still_served(self):
        store = self.wah_store()
        pool = self.probing(store, 3)  # room for one 3-page bitmap
        vectors = pool.fetch_many([0, 1, 2])
        assert [v.to_bools().tolist() for v in vectors] == [
            store.get(k).take(self.POSITIONS).tolist() for k in range(3)
        ]
        assert not pool.contains(0) and pool.contains(2)

    def test_replaced_payload_is_probed_again(self):
        store = self.wah_store()
        pool = self.probing(store, 100)
        pool.fetch(0)
        store.put(0, BitVector.ones(10_000))
        assert pool.fetch(0).all()
        assert pool.stats.misses == 2

    def test_a_failed_probe_leaves_no_entry(self):
        store = self.wah_store()
        store.put_payload(5, b"\x01\x02\x03", 10_000)  # misaligned WAH
        pool = self.probing(store, 100)
        pool.fetch(0)
        with pytest.raises(CodecError):
            pool.fetch_many([1, 5, 2])
        assert [pool.contains(k) for k in (0, 1, 5, 2)] == [True, False, False, False]
        assert pool.used_pages == 3

    def test_a_bitmap_of_the_wrong_length_is_rejected(self):
        store = self.wah_store()
        store.put(9, BitVector.zeros(20_000))
        with pytest.raises(CodecError, match="overruns the declared length"):
            self.probing(store, 100).fetch(9)

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(BufferError_):
            self.probing(self.wah_store(), 100).fetch_many([1, 1])
