"""Round-trip coverage for reordered indexes.

Build with ``reorder="lexicographic"``, query through both engines,
persist, reload (copying and mapped stores), append, segment — at
every boundary the answer's row-id set must equal both the unreordered
build's and a naive scan's.  The permutation is the one piece of
derived state that can silently misattribute every answer if any layer
drops or double-applies it, so these tests compare full id sets, never
just counts.
"""

import numpy as np
import pytest

from repro.compress import COMPRESSED_DOMAIN_CODECS, available_codecs
from repro.encoding import ALL_SCHEME_NAMES
from repro.errors import (
    ChecksumMismatchError,
    ManifestMismatchError,
    TruncatedBlobError,
)
from repro.index import BitmapIndex, IndexSpec
from repro.index.evaluation import QueryEngine
from repro.index.persist import (
    PERMUTATION_NAME,
    load_index,
    save_index,
    validate_index,
)
from repro.index.segmented import SegmentedBitmapIndex
from repro.queries import IntervalQuery, MembershipQuery
from repro.serve.shard_worker import ShardEngine

CARDINALITY = 12
ALL_CODECS = available_codecs()


def column(rng, size=420):
    """A skewed column: reordering has real work to do."""
    weights = np.array([0.4] + [0.6 / (CARDINALITY - 1)] * (CARDINALITY - 1))
    return rng.choice(CARDINALITY, size=size, p=weights)


def queries():
    return [
        IntervalQuery(2, 8, CARDINALITY),
        IntervalQuery(0, 0, CARDINALITY),
        MembershipQuery.of({1, 5, CARDINALITY - 1}, CARDINALITY),
    ]


def ids(result_bitmap):
    return result_bitmap.to_indices().tolist()


def naive_ids(values, query):
    return np.flatnonzero(query.matches(values)).tolist()


def segmented_ids(index, query):
    """Answer ids over a segmented index, through the serving engine."""
    engine = ShardEngine(None, index.spec, index=index, cache_entries=0)
    return ids(engine.evaluate_batch([query])[0].bitmap)


class TestEveryCodecAndScheme:
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    @pytest.mark.parametrize("codec", ALL_CODECS)
    def test_reordered_matches_plain_and_scan(self, rng, scheme, codec):
        values = column(rng)
        plain_spec = IndexSpec(
            cardinality=CARDINALITY, scheme=scheme, bases=(4, 3), codec=codec
        )
        sorted_spec = IndexSpec(
            cardinality=CARDINALITY,
            scheme=scheme,
            bases=(4, 3),
            codec=codec,
            reorder="lexicographic",
        )
        plain = BitmapIndex.build(values, plain_spec)
        reordered = BitmapIndex.build(values, sorted_spec)
        assert reordered.reordering is not None
        for query in queries():
            expected = naive_ids(values, query)
            assert ids(plain.query(query).bitmap) == expected
            assert ids(reordered.query(query).bitmap) == expected
            if codec in COMPRESSED_DOMAIN_CODECS:
                engine = QueryEngine(reordered, engine="compressed")
                assert ids(engine.execute(query).bitmap) == expected


class TestPersistence:
    @pytest.mark.parametrize("mapped", [False, True])
    def test_save_load_query(self, tmp_path, rng, mapped):
        values = column(rng)
        spec = IndexSpec(
            cardinality=CARDINALITY,
            scheme="E",
            codec="wah",
            reorder="lexicographic",
        )
        index = BitmapIndex.build(values, spec)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", mapped=mapped)
        assert loaded.spec.reorder == "lexicographic"
        assert loaded.reordering is not None
        assert np.array_equal(
            loaded.reordering.permutation, index.reordering.permutation
        )
        assert loaded.reordering.num_sorted == values.size
        for query in queries():
            assert ids(loaded.query(query).bitmap) == naive_ids(values, query)

    def test_validate_reports_clean(self, tmp_path, rng):
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="I", codec="bbc",
            reorder="lexicographic",
        )
        save_index(BitmapIndex.build(column(rng), spec), tmp_path / "idx")
        report = validate_index(tmp_path / "idx")
        assert report.ok, report.errors

    def test_corrupt_permutation_detected(self, tmp_path, rng):
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        save_index(BitmapIndex.build(column(rng), spec), tmp_path / "idx")
        perm_path = tmp_path / "idx" / PERMUTATION_NAME
        payload = bytearray(perm_path.read_bytes())
        payload[0] ^= 0xFF
        perm_path.write_bytes(bytes(payload))
        with pytest.raises(ChecksumMismatchError):
            load_index(tmp_path / "idx")
        assert not validate_index(tmp_path / "idx").ok

    def test_truncated_permutation_detected(self, tmp_path, rng):
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        save_index(BitmapIndex.build(column(rng), spec), tmp_path / "idx")
        perm_path = tmp_path / "idx" / PERMUTATION_NAME
        perm_path.write_bytes(perm_path.read_bytes()[:-8])
        with pytest.raises(
            (ChecksumMismatchError, ManifestMismatchError, TruncatedBlobError)
        ):
            load_index(tmp_path / "idx")

    def test_unreordered_directory_loads_as_identity(self, tmp_path, rng):
        """Pre-reorder manifests (no ``reorder`` entry) keep loading."""
        values = column(rng)
        spec = IndexSpec(cardinality=CARDINALITY, scheme="E", codec="wah")
        save_index(BitmapIndex.build(values, spec), tmp_path / "idx")
        assert not (tmp_path / "idx" / PERMUTATION_NAME).exists()
        loaded = load_index(tmp_path / "idx")
        assert loaded.reordering is None
        assert loaded.spec.reorder == "none"
        query = queries()[0]
        assert ids(loaded.query(query).bitmap) == naive_ids(values, query)

    def test_overwrite_with_unreordered_sweeps_permutation(
        self, tmp_path, rng
    ):
        values = column(rng)
        sorted_spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        save_index(BitmapIndex.build(values, sorted_spec), tmp_path / "idx")
        assert (tmp_path / "idx" / PERMUTATION_NAME).exists()
        plain_spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah"
        )
        save_index(BitmapIndex.build(values, plain_spec), tmp_path / "idx")
        assert not (tmp_path / "idx" / PERMUTATION_NAME).exists()
        assert validate_index(tmp_path / "idx").ok

    def test_append_then_save_round_trips(self, tmp_path, rng):
        values = column(rng, size=300)
        batch = column(rng, size=90)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        index = BitmapIndex.build(values, spec)
        index.append(batch)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.reordering.num_sorted == 300
        assert loaded.reordering.size == 390
        merged = np.concatenate([values, batch])
        for query in queries():
            assert ids(loaded.query(query).bitmap) == naive_ids(merged, query)


class TestAppendAfterReorder:
    def test_appended_rows_keep_arrival_ids(self, rng):
        values = column(rng, size=350)
        batch = column(rng, size=120)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="I", codec="ewah",
            reorder="lexicographic",
        )
        index = BitmapIndex.build(values, spec)
        assert index.reordering.num_sorted == 350
        index.append(batch)
        assert index.reordering.num_sorted == 350
        assert index.reordering.size == 470
        merged = np.concatenate([values, batch])
        for query in queries():
            assert ids(index.query(query).bitmap) == naive_ids(merged, query)
            engine = QueryEngine(index, engine="compressed")
            assert ids(engine.execute(query).bitmap) == naive_ids(
                merged, query
            )


class TestSegmented:
    @pytest.mark.parametrize(
        "num_rows",
        [
            256,  # exactly two shard-sized segments
            300,  # partial tail segment
            128,  # single full segment
            100,  # single partial segment
        ],
    )
    def test_per_segment_reordering_matches_scan(self, rng, num_rows):
        values = column(rng, size=num_rows)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        index = SegmentedBitmapIndex.build(values, spec, segment_size=128)
        for query in queries():
            assert segmented_ids(index, query) == naive_ids(values, query)

    def test_tail_append_into_reordered_segments(self, rng):
        values = column(rng, size=200)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="bbc",
            reorder="lexicographic",
        )
        index = SegmentedBitmapIndex.build(values, spec, segment_size=128)
        batch = column(rng, size=90)
        index.append(batch)
        merged = np.concatenate([values, batch])
        assert index.num_records == 290
        for query in queries():
            assert segmented_ids(index, query) == naive_ids(merged, query)

    def test_split_at_shares_reordered_segments(self, rng):
        values = column(rng, size=256)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah",
            reorder="lexicographic",
        )
        index = SegmentedBitmapIndex.build(values, spec, segment_size=128)
        left, right = index.split_at(128)
        query = queries()[0]
        assert segmented_ids(left, query) == naive_ids(values[:128], query)
        assert segmented_ids(right, query) == naive_ids(values[128:], query)


class TestCodesRestore:
    """A single-column sort keeps codes, not a permutation; the answers
    it restores must equal the permutation scatter's."""

    SPEC = IndexSpec(
        cardinality=CARDINALITY, scheme="I", codec="wah", reorder="lexicographic"
    )

    def test_built_index_holds_codes_not_a_permutation(self, rng):
        values = column(rng)
        reordering = BitmapIndex.build(values, self.SPEC).reordering
        assert reordering.codes is not None
        assert reordering.codes.dtype == np.uint8
        assert reordering._permutation is None
        assert np.array_equal(
            reordering.permutation, np.argsort(values, kind="stable")
        )

    @pytest.mark.parametrize("mapped", [False, True])
    def test_permutation_file_bytes_unchanged(self, tmp_path, rng, mapped):
        values = column(rng, size=300)
        batch = np.array([CARDINALITY - 1, 3, CARDINALITY - 1])
        index = BitmapIndex.build(values, self.SPEC)
        index.append(batch)
        save_index(index, tmp_path / "idx")
        written = (tmp_path / "idx" / PERMUTATION_NAME).read_bytes()
        expected = np.concatenate(
            [np.argsort(values, kind="stable"), np.arange(300, 303)]
        ).astype("<i8")
        assert written == expected.tobytes()
        loaded = load_index(tmp_path / "idx", mapped=mapped)
        assert loaded.reordering.codes is None  # loads keep the permutation
        save_index(loaded, tmp_path / "again")
        assert (tmp_path / "again" / PERMUTATION_NAME).read_bytes() == written
        merged = np.concatenate([values, batch])
        for query in queries():
            assert ids(loaded.query(query).bitmap) == naive_ids(merged, query)

    def test_values_absent_from_the_sorted_prefix_arrive_by_append(self, rng):
        values = rng.integers(2, 6, size=200)  # no 0, 1 or anything >= 6
        index = BitmapIndex.build(values, self.SPEC)
        batches = [np.array([0, 7, 3]), np.array([11, 1, 0, 7]), np.array([9])]
        merged = values
        for batch in batches:
            index.append(batch)
            merged = np.concatenate([merged, batch])
            for low, high in [(0, 0), (0, 1), (6, 11), (7, 7), (1, 9), (3, 5)]:
                query = IntervalQuery(low, high, CARDINALITY)
                answer = index.query(query).bitmap
                assert ids(answer) == naive_ids(merged, query)
            membership = MembershipQuery.of({0, 3, 7, 9, 11}, CARDINALITY)
            assert ids(index.query(membership).bitmap) == naive_ids(merged, membership)

    def test_segmented_and_compressed_engines(self, rng):
        values = column(rng, size=900)
        spec = IndexSpec(
            cardinality=CARDINALITY, scheme="E", codec="wah", reorder="lexicographic"
        )
        index = SegmentedBitmapIndex.build(values, spec, segment_size=256)
        index.append(column(rng, size=70))
        merged = np.concatenate([values, np.concatenate(index._codes)[900:]])
        for query in queries():
            assert segmented_ids(index, query) == naive_ids(merged, query)
        flat = BitmapIndex.build(values, spec)
        for query in queries():
            engine = QueryEngine(flat, engine="compressed")
            assert ids(engine.execute(query).bitmap) == naive_ids(values, query)
