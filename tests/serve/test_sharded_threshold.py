"""Threshold (k-of-N) queries through the sharded serving tier.

Counting is per row and shards are row-disjoint, so scatter-gathering
a ``ThresholdQuery`` — each shard answers k-of-N over its own rows and
the router concatenates in shard order — must be exact.  The suite
drives row counts at ``shards * chunk +/- 1`` (the boundary layouts
where merge arithmetic can go wrong) against the naive count scan,
sweeps codecs on the compressed engine, and checks the
``(epoch, expression)`` cache: a repeated threshold query is a global
hit, and an append invalidates exactly the tail shard's part.
"""

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS
from repro.errors import QueryError
from repro.index import BitmapIndex, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve import (
    QueryService,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)

CARDINALITY = 16
SHARDS = 4


def make_spec(codec="raw", scheme="E"):
    return IndexSpec(cardinality=CARDINALITY, scheme=scheme, codec=codec)


def inline_config(**overrides):
    defaults = dict(
        shards=SHARDS,
        transport="inline",
        segment_size=16,
        buffer_pages=8,
        workers=2,
    )
    defaults.update(overrides)
    return ShardedConfig(**defaults)


def column(num_rows):
    # Row i holds i % C: every matching row id is reconstructible from
    # its value, so merge off-by-ones surface as wrong ids.
    return np.arange(num_rows) % CARDINALITY


def sample_threshold_queries():
    p = [
        IntervalQuery(0, 5, CARDINALITY),
        IntervalQuery(3, 9, CARDINALITY),
        MembershipQuery.of({1, 4, 11, 15}, CARDINALITY),
        MembershipQuery.of({0, 7}, CARDINALITY),
    ]
    return [
        ThresholdQuery.of(1, p),           # degenerate OR
        ThresholdQuery.of(2, p),           # true k-of-N
        ThresholdQuery.of(3, p),           # N-1
        ThresholdQuery.of(4, p),           # degenerate AND
        ThresholdQuery.of(2, [p[0], p[0], p[1]]),  # duplicate predicate
    ]


def naive(query, values):
    return BitVector.from_bools(query.matches(values))


class TestBoundaries:
    """Exactness at ``shards * chunk +/- 1`` row layouts."""

    @pytest.mark.parametrize("num_rows", [127, 128, 129])
    def test_threshold_at_boundary_row_counts(self, num_rows):
        values = column(num_rows)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            for query in sample_threshold_queries():
                result = s.execute(query)
                expected = naive(query, values)
                assert result.bitmap == expected, (num_rows, str(query))
                assert np.array_equal(
                    result.row_ids(), np.flatnonzero(query.matches(values))
                ), (num_rows, str(query))

    def test_empty_tail_shard(self):
        # n=8 over 5 shards: chunk 2 -> 2,2,2,2,0; the empty tail must
        # contribute an empty partial bitmap, not an error.
        values = column(8)
        config = inline_config(shards=5, segment_size=4)
        query = sample_threshold_queries()[1]
        with ShardedQueryService(values, make_spec(), config) as s:
            result = s.execute(query)
            assert result.shard_count == 5
            assert result.bitmap == naive(query, values)

    def test_matches_single_process_service(self):
        values = column(97)
        query = sample_threshold_queries()[1]
        with ShardedQueryService(
            values, make_spec(), inline_config(shards=3)
        ) as sharded:
            ours = sharded.execute(query)
        index = BitmapIndex.build(values, make_spec())
        with QueryService(index, ServiceConfig(buffer_pages=8)) as single:
            theirs = single.execute(query)
        assert ours.bitmap == theirs.bitmap == naive(query, values)

    @pytest.mark.parametrize("codec", sorted(COMPRESSED_DOMAIN_CODECS))
    def test_compressed_engine_codecs(self, codec):
        values = column(129)
        config = inline_config(engine="compressed")
        with ShardedQueryService(values, make_spec(codec), config) as s:
            for query in sample_threshold_queries():
                assert s.execute(query).bitmap == naive(query, values), (
                    codec,
                    str(query),
                )

    def test_process_transport(self):
        values = column(97)
        config = ShardedConfig(
            shards=2, transport="process", segment_size=32, buffer_pages=8
        )
        with ShardedQueryService(values, make_spec(), config) as s:
            for query in sample_threshold_queries()[:2]:
                assert s.execute(query).bitmap == naive(query, values)

    def test_domain_mismatch_rejected(self):
        values = column(64)
        bad = ThresholdQuery.of(
            1, [IntervalQuery(0, 1, CARDINALITY + 1)]
        )
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            with pytest.raises(QueryError):
                s.execute(bad)


class TestEpochCache:
    """(epoch, expression) caching of threshold answers."""

    def test_repeat_is_global_hit(self):
        values = column(128)
        query = sample_threshold_queries()[1]
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            first = s.execute(query)
            second = s.execute(query)
            assert not first.cached
            assert second.cached
            assert second.epochs == first.epochs
            assert second.bitmap == first.bitmap

    def test_append_invalidates_only_tail_part(self):
        values = column(128)
        query = sample_threshold_queries()[1]
        extra = column(16)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            s.execute(query)
            hits_before = s.metrics_snapshot()["shard_cache_hits"]
            s.append(extra)
            combined = np.concatenate([values, extra])
            result = s.execute(query)
            # The tail shard's epoch moved, so its cached part is stale
            # and the request is not a global hit — but the untouched
            # shards still serve their parts from cache.
            assert not result.cached
            assert result.bitmap == naive(query, combined)
            hits_after = s.metrics_snapshot()["shard_cache_hits"]
            assert hits_after - hits_before >= SHARDS - 1

    def test_append_changes_threshold_answer(self):
        # Appended rows that satisfy >= k predicates must show up in
        # the re-evaluated tail part immediately after the append.
        values = column(127)
        p = [IntervalQuery(0, 5, CARDINALITY), IntervalQuery(3, 9, CARDINALITY)]
        query = ThresholdQuery.of(2, p)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            before = s.execute(query)
            extra = np.array([4, 4, 12])  # 4 satisfies both, 12 neither
            s.append(extra)
            after = s.execute(query)
            assert after.row_count == before.row_count + 2
            combined = np.concatenate([values, extra])
            assert after.bitmap == naive(query, combined)

    def test_distinct_k_cached_separately(self):
        # Same predicates, different k: different expressions, so one
        # must never serve the other's cached answer.
        values = column(128)
        p = [
            IntervalQuery(0, 5, CARDINALITY),
            IntervalQuery(3, 9, CARDINALITY),
            MembershipQuery.of({1, 4, 11}, CARDINALITY),
        ]
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            for k in (1, 2, 3):
                query = ThresholdQuery.of(k, p)
                assert s.execute(query).bitmap == naive(query, values), k
