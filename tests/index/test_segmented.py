"""Tests for the segmented bitmap index.

Queries run through :class:`~repro.serve.shard_worker.ShardEngine`, the
one per-index evaluator, over an injected segmented index.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.errors import EncodingSchemeError, QueryError, ReproError
from repro.index import BitmapIndex, IndexSpec, SegmentedBitmapIndex
from repro.index.segmented import FANOUT
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.shard_worker import ShardEngine

SPEC = IndexSpec(cardinality=20, scheme="I", codec="bbc")


def evaluate(index, query):
    """The serving engine's answer to ``query`` over ``index``."""
    engine = ShardEngine(None, index.spec, index=index, cache_entries=0)
    return engine.evaluate_batch([query])[0]


class TestBuild:
    def test_segment_count(self, rng):
        values = rng.integers(0, 20, size=2500)
        index = SegmentedBitmapIndex.build(values, SPEC, segment_size=1000)
        assert index.num_segments == 3
        assert [s.num_records for s in index.segments()] == [1000, 1000, 500]
        assert index.num_records == 2500

    def test_invalid_segment_size(self):
        with pytest.raises(ReproError):
            SegmentedBitmapIndex(SPEC, segment_size=0)

    def test_empty_build(self):
        index = SegmentedBitmapIndex.build(
            np.array([], dtype=np.int64), SPEC, segment_size=100
        )
        assert index.num_segments == 0
        assert evaluate(index, IntervalQuery(0, 5, 20)).bitmap.count() == 0

    def test_out_of_domain_rejected(self):
        with pytest.raises(EncodingSchemeError):
            SegmentedBitmapIndex.build(np.array([20]), SPEC, segment_size=10)


class TestQuery:
    @pytest.fixture
    def built(self, rng):
        values = rng.integers(0, 20, size=3300)
        return (
            SegmentedBitmapIndex.build(values, SPEC, segment_size=1000),
            values,
        )

    def test_matches_monolithic_index(self, built):
        segmented, values = built
        monolithic = BitmapIndex.build(values, SPEC)
        for query in (
            IntervalQuery(3, 11, 20),
            IntervalQuery(0, 0, 20),
            MembershipQuery.of({1, 7, 19}, 20),
        ):
            assert (
                evaluate(segmented, query).bitmap
                == monolithic.query(query).bitmap
            ), str(query)

    def test_threshold_matches_scan(self, built):
        segmented, values = built
        query = ThresholdQuery.of(
            2,
            [
                IntervalQuery(2, 9, 20),
                IntervalQuery(5, 14, 20),
                MembershipQuery.of({3, 7, 12, 18}, 20),
            ],
        )
        assert evaluate(segmented, query).bitmap == BitVector.from_bools(
            query.matches(values)
        )

    def test_row_ids_are_global(self, built):
        segmented, values = built
        result = evaluate(segmented, IntervalQuery(5, 5, 20))
        assert (
            result.bitmap.to_indices().tolist()
            == np.flatnonzero(values == 5).tolist()
        )

    def test_stats_aggregate_over_segments(self, built):
        segmented, _ = built
        query = IntervalQuery(3, 11, 20)
        result = evaluate(segmented, query)
        per_segment = evaluate(
            BitmapIndex.build(np.zeros(1, dtype=np.int64), SPEC), query
        )
        assert result.operations == (
            per_segment.operations * segmented.num_segments
        )
        assert result.scans == per_segment.scans

    def test_domain_mismatch_rejected(self, built):
        segmented, _ = built
        with pytest.raises(QueryError):
            evaluate(segmented, IntervalQuery(0, 5, 10))


class TestAppend:
    def test_append_fills_tail_then_opens_segments(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=700), SPEC, segment_size=1000
        )
        index.append(rng.integers(0, 20, size=800))
        assert index.num_segments == 2
        assert [s.num_records for s in index.segments()] == [1000, 500]

    def test_sealed_segments_untouched(self, rng):
        values = rng.integers(0, 20, size=1000)
        index = SegmentedBitmapIndex.build(values, SPEC, segment_size=1000)
        sealed = index.segments()[0]
        snapshot = {key: sealed.store.get(key) for key in sealed.store.keys()}
        index.append(rng.integers(0, 20, size=2500))
        for key, bitmap in snapshot.items():
            assert sealed.store.get(key) == bitmap

    def test_append_equals_rebuild(self, rng):
        base = rng.integers(0, 20, size=1500)
        batch = rng.integers(0, 20, size=2200)
        incremental = SegmentedBitmapIndex.build(base, SPEC, segment_size=1000)
        incremental.append(batch)
        rebuilt = SegmentedBitmapIndex.build(
            np.concatenate([base, batch]), SPEC, segment_size=1000
        )
        query = IntervalQuery(4, 16, 20)
        assert (
            evaluate(incremental, query).bitmap
            == evaluate(rebuilt, query).bitmap
        )
        assert incremental.num_segments == rebuilt.num_segments

    def test_empty_append(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=100), SPEC, segment_size=50
        )
        report = index.append(np.array([], dtype=np.int64))
        assert report.records_appended == 0
        assert index.num_records == 100


class TestSplitAt:
    def build(self, rng, size=300, segment_size=100):
        values = rng.integers(0, 20, size=size)
        index = SegmentedBitmapIndex.build(values, SPEC, segment_size)
        return values, index

    def test_halves_answer_like_slices(self, rng):
        values, index = self.build(rng)
        left, right = index.split_at(100)
        query = IntervalQuery(4, 16, 20)
        assert left.num_records == 100
        assert right.num_records == 200
        assert evaluate(left, query).bitmap == BitVector.from_bools(
            query.matches(values[:100])
        )
        assert evaluate(right, query).bitmap == BitVector.from_bools(
            query.matches(values[100:])
        )

    def test_parent_not_mutated(self, rng):
        values, index = self.build(rng)
        index.split_at(200)
        assert index.num_records == 300
        query = IntervalQuery(2, 9, 20)
        assert evaluate(index, query).bitmap == BitVector.from_bools(
            query.matches(values)
        )

    def test_segments_shared_by_reference(self, rng):
        _, index = self.build(rng)
        left, right = index.split_at(100)
        assert left.segments()[0] is index.segments()[0]
        assert right.segments() == index.segments()[1:]

    def test_edge_splits(self, rng):
        values, index = self.build(rng)
        left, right = index.split_at(0)
        assert left.num_records == 0
        assert right.num_records == 300
        left, right = index.split_at(300)
        assert left.num_records == 300
        assert right.num_records == 0

    def test_non_boundary_row_rejected(self, rng):
        _, index = self.build(rng)
        with pytest.raises(ReproError, match="not a segment boundary"):
            index.split_at(150)

    def test_out_of_range_rejected(self, rng):
        _, index = self.build(rng)
        with pytest.raises(ReproError, match="outside"):
            index.split_at(-100)
        with pytest.raises(ReproError, match="outside"):
            index.split_at(400)

    def test_halves_start_fresh_epochs_and_append_independently(self, rng):
        values, index = self.build(rng)
        index.epoch = 7
        left, right = index.split_at(100)
        assert left.epoch == 0 and right.epoch == 0
        extra = rng.integers(0, 20, size=40)
        right.append(extra)
        assert right.epoch == 1
        assert left.num_records == 100  # untouched by the sibling
        query = IntervalQuery(0, 19, 20)
        combined = np.concatenate([values[100:], extra])
        assert evaluate(right, query).bitmap == BitVector.from_bools(
            query.matches(combined)
        )


class TestCompaction:
    """Size-tiered compaction: FANOUT sealed segments of one size merge."""

    SIZE = 4  # tiers 4, 16, 64, 256 (the cap)

    def sizes(self, index):
        return [s.num_records for s in index.segments()]

    def test_build_lays_out_tiers(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=100), SPEC, segment_size=self.SIZE
        )
        assert self.sizes(index) == [64, 16, 16, 4]
        assert index.boundaries() == [0, 64, 80, 96, 100]

    def test_tiers_stop_at_the_cap(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=2 * 256 + 3), SPEC, self.SIZE
        )
        assert index.max_tier_rows == self.SIZE * FANOUT**3 == 256
        assert self.sizes(index) == [256, 256, 3]
        index.append(rng.integers(0, 20, size=256))
        assert self.sizes(index) == [256, 256, 256, 3]

    @pytest.mark.parametrize("batch", [1, 3, 4, 5, 15, 16, 17, 63, 64, 65])
    def test_appends_compact_to_the_built_layout(self, rng, batch):
        values = rng.integers(0, 20, size=300)
        index = SegmentedBitmapIndex(SPEC, self.SIZE)
        for offset in range(0, values.size, batch):
            index.append(values[offset : offset + batch])
            # The sizes build() lays out for this many rows.
            assert self.sizes(index) == index._tier_sizes(index.num_records)
        built = SegmentedBitmapIndex.build(values, SPEC, self.SIZE)
        assert self.sizes(index) == self.sizes(built) == [256, 16, 16, 4, 4, 4]
        assert evaluate(index, IntervalQuery(3, 12, 20)).bitmap == (
            BitVector.from_bools((values >= 3) & (values <= 12))
        )

    def test_append_reports_what_it_merged(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=60), SPEC, self.SIZE
        )
        assert self.sizes(index) == [16, 16, 16, 4, 4, 4]
        sealed = index.segments()
        report = index.append(rng.integers(0, 20, size=4))
        # The fourth 4-row segment merges into a 16, which completes a
        # run of four 16s: one append, two cascading merges.
        assert self.sizes(index) == [64]
        assert report.merges == 2
        assert report.segments_merged == 2 * FANOUT
        assert report.rows_merged == 16 + 64
        assert report.bytes_merged > sum(s.size_bytes() for s in sealed[3:])
        assert report.compaction_ms > 0
        quiet = index.append(rng.integers(0, 20, size=3))
        assert (quiet.merges, quiet.rows_merged, quiet.bytes_merged) == (0, 0, 0)

    def test_merge_adds_no_epoch_bump(self, rng):
        index = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=12), SPEC, self.SIZE
        )
        epoch = index.epoch
        report = index.append(rng.integers(0, 20, size=4))
        assert report.merges == 1
        assert index.epoch == epoch + 1

    def test_merged_segment_is_resorted(self, rng):
        spec = IndexSpec(cardinality=20, scheme="E", codec="wah", reorder="lexicographic")
        values = rng.integers(0, 20, size=64)
        index = SegmentedBitmapIndex(spec, self.SIZE)
        for offset in range(0, 64, 3):
            index.append(values[offset : offset + 3])
        (merged,) = index.segments()
        # One sort over all 64 rows, not four sorted 16-row blocks.
        assert merged.reordering.num_sorted == 64
        assert np.array_equal(
            merged.reordering.apply(values), np.sort(values, kind="stable")
        )

    def test_codes_kept_in_narrowest_dtype(self, rng):
        small = SegmentedBitmapIndex.build(
            rng.integers(0, 20, size=40), SPEC, self.SIZE
        )
        wide_spec = IndexSpec(cardinality=300, scheme="E")
        wide = SegmentedBitmapIndex.build(
            rng.integers(0, 300, size=40), wide_spec, self.SIZE
        )
        small.append(rng.integers(0, 20, size=9))
        assert {codes.dtype for codes in small._codes} == {np.dtype(np.uint8)}
        assert {codes.dtype for codes in wide._codes} == {np.dtype(np.uint16)}

    def test_split_at_merged_tier_boundary_shares_segments(self, rng):
        values = rng.integers(0, 20, size=100)
        index = SegmentedBitmapIndex(SPEC, self.SIZE)
        for offset in range(0, 100, 7):
            index.append(values[offset : offset + 7])
        assert self.sizes(index) == [64, 16, 16, 4]
        assert index.is_boundary(80) and not index.is_boundary(72)
        left, right = index.split_at(80)
        segments = index.segments()
        assert all(a is b for a, b in zip(left.segments(), segments[:2]))
        assert all(a is b for a, b in zip(right.segments(), segments[2:]))
        query = IntervalQuery(2, 15, 20)
        assert evaluate(left, query).bitmap == BitVector.from_bools(
            query.matches(values[:80])
        )
        assert evaluate(right, query).bitmap == BitVector.from_bools(
            query.matches(values[80:])
        )
        with pytest.raises(ReproError, match="not a segment boundary"):
            index.split_at(72)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    segment_size=st.integers(min_value=1, max_value=400),
    sizes=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4),
    scheme=st.sampled_from(["E", "R", "I"]),
)
@settings(max_examples=50, deadline=None)
def test_segmented_property(seed, segment_size, sizes, scheme):
    """Any append sequence at any segment size answers like a scan."""
    rng = np.random.default_rng(seed)
    spec = IndexSpec(cardinality=12, scheme=scheme)
    index = SegmentedBitmapIndex(spec, segment_size)
    chunks = [rng.integers(0, 12, size=size) for size in sizes]
    for chunk in chunks:
        index.append(chunk)
    merged = (
        np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
    )
    low = int(rng.integers(0, 12))
    high = int(rng.integers(low, 12))
    result = evaluate(index, IntervalQuery(low, high, 12))
    expected = BitVector.from_bools((merged >= low) & (merged <= high))
    assert result.bitmap == expected


class TestGrownEqualsBuilt:
    """Tails rebuilt from their codes: a column grown by appends stores
    exactly what one built from the same rows does."""

    SPEC = IndexSpec(cardinality=50, scheme="I", codec="wah", reorder="lexicographic")

    @staticmethod
    def payloads(index):
        return [
            {key: segment.store.get_payload(key) for key in segment.store.keys()}
            for segment in index.segments()
        ]

    @staticmethod
    def decode_and_count(index, batch):
        """``bitmaps_touched`` the old way: build each piece the batch
        adds to a segment and count the bitmaps with a set bit."""
        touched = 0
        tail = index.num_records % index.segment_size
        offset = 0
        while offset < batch.size:
            piece = batch[offset : offset + index.segment_size - tail]
            built = BitmapIndex.build(piece, IndexSpec(cardinality=50, scheme="I"))
            touched += sum(
                1 for key in built.store.keys() if built.store.get(key).any()
            )
            offset += piece.size
            tail = 0
        return touched

    @pytest.mark.parametrize(
        "batch, rows",
        [(1, 4200), (3, 4200), (2000, 16500), (4095, 16500), (4096, 16500), (4097, 16500)],
    )
    def test_grown_payloads_equal_built(self, rng, batch, rows):
        values = rng.zipf(1.3, size=rows) % 50
        index = SegmentedBitmapIndex(self.SPEC)
        for offset in range(0, rows, batch):
            chunk = values[offset : offset + batch]
            expected = self.decode_and_count(index, chunk)
            assert index.append(chunk).bitmaps_touched == expected
        built = SegmentedBitmapIndex.build(values, self.SPEC)
        assert [s.num_records for s in index.segments()] == [
            s.num_records for s in built.segments()
        ]
        assert self.payloads(index) == self.payloads(built)
        assert index.size_bytes() == built.size_bytes()

    def test_tail_segment_is_replaced_not_mutated(self, rng):
        index = SegmentedBitmapIndex.build(rng.integers(0, 50, 100), self.SPEC)
        (tail,) = index.segments()
        snapshot = {key: tail.store.get_payload(key) for key in tail.store.keys()}
        index.append(rng.integers(0, 50, 10))
        assert index.segments()[0] is not tail
        assert tail.num_records == 100
        assert {key: tail.store.get_payload(key) for key in tail.store.keys()} == snapshot

    def test_sorted_segments_hold_their_codes_once(self, rng):
        values = rng.integers(0, 50, 9_000)
        index = SegmentedBitmapIndex.build(values[:5_000], self.SPEC)
        index.append(values[5_000:])
        for codes, segment in zip(index._codes, index.segments()):
            assert codes is segment.reordering.codes
        assert np.array_equal(np.concatenate(index._codes), values)
