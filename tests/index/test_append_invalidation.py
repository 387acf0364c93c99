"""Appends must invalidate derived state, not just rewrite the store.

An append rewrites every stored bitmap, so anything holding a decoded
copy — a buffer pool, a compressed-payload pool, an expression-level
result cache — is stale the moment it returns.  These are the
regression tests for the invalidation chain: the store's per-key write
versions (pools re-read replaced payloads) and the index epoch counter
(result caches compare epochs).  The serving-layer half of the chain is
covered in ``tests/serve``.
"""

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.compress import streams
from repro.compress.base import Codec
from repro.expr.nodes import Or
from repro.index import BitmapIndex, IndexSpec
from repro.index.evaluation import QueryEngine
from repro.index.segmented import SegmentedBitmapIndex
from repro.queries import IntervalQuery, MembershipQuery
from repro.storage import BitmapStore, BufferPool, CostClock

CARDINALITY = 20


def queries():
    return [
        IntervalQuery(3, 11, CARDINALITY),
        MembershipQuery.of({0, 5, 19}, CARDINALITY),
    ]


class TestStoreVersions:
    def test_version_starts_at_zero_and_counts_writes(self):
        store = BitmapStore("raw")
        assert store.version("k") == 0
        store.put("k", BitVector.ones(8))
        assert store.version("k") == 1
        store.put("k", BitVector.ones(16))
        assert store.version("k") == 2
        assert store.version("other") == 0

    def test_buffer_pool_refetches_replaced_bitmap(self):
        store = BitmapStore("raw")
        store.put("k", BitVector.ones(64))
        pool = BufferPool(store, capacity_pages=4)
        assert pool.fetch("k") == BitVector.ones(64)
        store.put("k", BitVector.zeros(64))
        # A stale hit would return the old all-ones decode.
        assert pool.fetch("k") == BitVector.zeros(64)
        assert pool.stats.misses == 2

    def test_unreplaced_bitmap_still_hits(self):
        store = BitmapStore("raw")
        store.put("k", BitVector.ones(64))
        pool = BufferPool(store, capacity_pages=4)
        pool.fetch("k")
        pool.fetch("k")
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1


class TestEpochCounter:
    def test_bitmap_index_epoch_bumps_per_append(self, rng):
        index = BitmapIndex.build(
            rng.integers(0, CARDINALITY, size=100),
            IndexSpec(cardinality=CARDINALITY, scheme="E"),
        )
        assert index.epoch == 0
        index.append(np.array([3]))
        index.append(np.array([7, 7]))
        assert index.epoch == 2

    def test_segmented_index_epoch_bumps_per_append(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, CARDINALITY, size=100),
            IndexSpec(cardinality=CARDINALITY, scheme="E"),
            segment_size=64,
        )
        epoch = index.epoch
        index.append(rng.integers(0, CARDINALITY, size=70))
        assert index.epoch == epoch + 1


class TestEmptyAppend:
    """A zero-row batch is a no-op and must not invalidate anything.

    Regression: empty appends used to bump the epoch, which swept every
    epoch-keyed result cache (local and serving) even though no stored
    bitmap changed.
    """

    def test_bitmap_index_empty_append_keeps_epoch(self, rng):
        index = BitmapIndex.build(
            rng.integers(0, CARDINALITY, size=100),
            IndexSpec(cardinality=CARDINALITY, scheme="E"),
        )
        index.append(np.array([3]))
        report = index.append(np.array([], dtype=np.int64))
        assert index.epoch == 1
        assert report.records_appended == 0
        assert report.bitmaps_extended == 0
        assert report.bitmaps_touched == 0
        assert index.num_records == 101

    def test_segmented_index_empty_append_keeps_epoch(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, CARDINALITY, size=100),
            IndexSpec(cardinality=CARDINALITY, scheme="E"),
            segment_size=64,
        )
        epoch = index.epoch
        report = index.append(np.array([], dtype=np.int64))
        assert index.epoch == epoch
        assert report.records_appended == 0
        assert index.num_records == 100

    def test_empty_append_leaves_store_versions_alone(self, rng):
        index = BitmapIndex.build(
            rng.integers(0, CARDINALITY, size=100),
            IndexSpec(cardinality=CARDINALITY, scheme="E"),
        )
        versions = {
            key: index.store.version(key) for key in index.store.keys()
        }
        index.append(np.array([], dtype=np.int64))
        for key, version in versions.items():
            assert index.store.version(key) == version


class TestEnginesSurviveAppend:
    @pytest.mark.parametrize(
        "make_engine,codec",
        [
            (lambda ix: QueryEngine(ix, buffer_pages=8), "raw"),
            (lambda ix: QueryEngine(ix, engine="compressed", buffer_pages=8), "wah"),
        ],
        ids=["decoded", "compressed"],
    )
    def test_requery_after_append_sees_new_rows(self, rng, make_engine, codec):
        base = rng.integers(0, CARDINALITY, size=300)
        batch = rng.integers(0, CARDINALITY, size=120)
        index = BitmapIndex.build(
            base, IndexSpec(cardinality=CARDINALITY, scheme="E", codec=codec)
        )
        engine = make_engine(index)
        for query in queries():  # warm the pool with pre-append decodes
            assert engine.execute(query).bitmap == BitVector.from_bools(
                query.matches(base)
            )
        index.append(batch)
        merged = np.concatenate([base, batch])
        for query in queries():
            result = engine.execute(query)
            assert len(result.bitmap) == len(merged)
            assert result.bitmap == BitVector.from_bools(query.matches(merged))

    def test_append_charges_refetch_to_the_clock(self, rng):
        base = rng.integers(0, CARDINALITY, size=300)
        index = BitmapIndex.build(
            base, IndexSpec(cardinality=CARDINALITY, scheme="E", codec="raw")
        )
        engine = QueryEngine(index, buffer_pages=32)
        query = IntervalQuery(3, 11, CARDINALITY)
        engine.execute(query)
        pages_warm = engine.clock.pages_read
        engine.execute(query)
        assert engine.clock.pages_read == pages_warm  # fully resident
        index.append(np.array([5]))
        engine.execute(query)
        assert engine.clock.pages_read > pages_warm  # stale copies re-read


class TestCompressedEngineStreamCache:
    """On the stream path (a pool with no room for decoded copies),
    results are never re-encoded, and a pooled leaf's block stream is
    parsed once per residency — until an append replaces the payload
    (the store-version path)."""

    QUERY = IntervalQuery(3, 11, CARDINALITY)

    @pytest.fixture
    def opened(self, monkeypatch):
        """Counts ``auto`` leaf streams opened through the registry."""
        calls = []
        factory = streams._STREAMS["auto"]

        def counting(payload, length):
            calls.append(length)
            return factory(payload, length)

        monkeypatch.setitem(streams._STREAMS, "auto", counting)
        return calls

    @pytest.fixture
    def encodes(self, monkeypatch):
        """Counts ``Codec.encode`` calls on every codec."""
        calls = []
        encode = Codec.encode

        def counting(self, vector):
            calls.append(self.name)
            return encode(self, vector)

        monkeypatch.setattr(Codec, "encode", counting)
        return calls

    def test_leaf_streams_opened_once_until_append(self, rng, opened, encodes):
        base = rng.integers(0, CARDINALITY, size=3000)
        batch = rng.integers(0, CARDINALITY, size=500)
        index = BitmapIndex.build(
            base, IndexSpec(cardinality=CARDINALITY, scheme="E", codec="auto")
        )
        expr = index.rewriter.rewrite_interval(self.QUERY)
        assert isinstance(expr, Or) and len(expr.children()) >= 3
        num_leaves = len(expr.leaf_keys())
        clock = CostClock()
        # Exactly the leaves' encoded pages: every leaf stays resident
        # and no page is left for a decoded copy.
        leaf_pages = sum(index.store.info(key).pages for key in expr.leaf_keys())
        engine = QueryEngine(
            index, buffer_pages=leaf_pages, clock=clock, engine="compressed"
        )
        encodes.clear()  # the build encoded every stored bitmap

        with obs.observed() as o:
            first = engine.execute(self.QUERY)
        assert first.bitmap == BitVector.from_bools(self.QUERY.matches(base))
        assert encodes == []
        assert "compress.auto.selected" not in o.metrics.to_dict()
        # One count per leaf source.
        assert o.metrics.to_dict()["compress.physical"] == {
            "path=stream": {"type": "counter", "value": float(num_leaves)}
        }
        assert clock.bytes_decompressed == 0  # the answer is an OR node
        assert len(opened) == num_leaves

        opened.clear()
        engine.execute(self.QUERY)
        assert opened == []  # every leaf stream reused from the pool

        index.append(batch)
        merged = np.concatenate([base, batch])
        opened.clear()
        after = engine.execute(self.QUERY)
        assert len(opened) == num_leaves
        assert after.bitmap == BitVector.from_bools(self.QUERY.matches(merged))
        assert clock.bytes_decompressed == 0


class TestCompressedEngineDecodedResidency:
    """With the default pool every leaf's decoded copy stays resident:
    one decode per leaf per residency, re-decoded only after an append
    replaces the payload."""

    QUERY = IntervalQuery(3, 11, CARDINALITY)

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Counts ``Codec.decode`` calls on every codec."""
        calls = []
        decode = Codec.decode

        def counting(self, payload, length):
            calls.append(length)
            return decode(self, payload, length)

        monkeypatch.setattr(Codec, "decode", counting)
        return calls

    def test_leaves_decoded_once_until_append(self, rng, decodes):
        base = rng.integers(0, CARDINALITY, size=3000)
        batch = rng.integers(0, CARDINALITY, size=500)
        index = BitmapIndex.build(
            base, IndexSpec(cardinality=CARDINALITY, scheme="E", codec="auto")
        )
        expr = index.rewriter.rewrite_interval(self.QUERY)
        num_leaves = len(expr.leaf_keys())
        assert num_leaves >= 3
        clock = CostClock()
        engine = QueryEngine(index, engine="compressed", clock=clock)

        with obs.observed() as o:
            first = engine.execute(self.QUERY)
        assert first.bitmap == BitVector.from_bools(self.QUERY.matches(base))
        assert decodes == [len(base)] * num_leaves
        # One count per leaf source.
        assert o.metrics.to_dict()["compress.physical"] == {
            "path=words": {"type": "counter", "value": float(num_leaves)}
        }

        decodes.clear()
        again = engine.execute(self.QUERY)
        assert decodes == []  # every decoded copy reused from the pool
        assert again.bitmap == first.bitmap

        index.append(batch)
        merged = np.concatenate([base, batch])
        decodes.clear()
        after = engine.execute(self.QUERY)
        assert decodes == [len(merged)] * num_leaves
        assert after.bitmap == BitVector.from_bools(self.QUERY.matches(merged))
        assert clock.bytes_decompressed == 0

    def test_bare_leaf_answer_is_a_copy(self, rng):
        base = rng.integers(0, CARDINALITY, size=3000)
        index = BitmapIndex.build(
            base, IndexSpec(cardinality=CARDINALITY, scheme="E", codec="auto")
        )
        engine = QueryEngine(index, engine="compressed")
        query = IntervalQuery(4, 4, CARDINALITY)
        answer = engine.execute(query).bitmap
        answer.words[:] = 0  # the caller owns its answer
        assert engine.execute(query).bitmap == BitVector.from_bools(
            query.matches(base)
        )
