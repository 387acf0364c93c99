"""Tests for :class:`repro.serve.ShardedQueryService` (router core).

Correctness of scatter-gather against the naive scan and against the
single-process :class:`QueryService` (the differential suite sweeps
every codec x every scheme at a shard-boundary row count), shard
boundary row ids at ``k * shard_size +/- 1`` for query/append/split,
the empty-tail-shard layout, per-request cache accounting (a request
is a global hit only when every shard part was cached), close
semantics under queued work, and the obs mirror.  Everything here runs
on the inline transport — deterministic, single-process — except where
a test says otherwise; the chaos suite owns the process transport's
failure paths.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bitmap import BitVector
from repro.compress import available_codecs
from repro.encoding import ALL_SCHEME_NAMES
from repro.errors import (
    EncodingSchemeError,
    Overloaded,
    QueryError,
    ServeError,
    ServiceClosed,
)
from repro.index import BitmapIndex, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery
from repro.serve import (
    QueryService,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)
from repro.serve.shard_worker import ShardEngine

CARDINALITY = 20


@pytest.fixture
def values(rng):
    return rng.integers(0, CARDINALITY, size=400)


def make_spec(codec="raw", scheme="E"):
    return IndexSpec(cardinality=CARDINALITY, scheme=scheme, codec=codec)


def inline_config(**overrides):
    defaults = dict(
        shards=3,
        transport="inline",
        segment_size=32,
        buffer_pages=8,
        workers=2,
    )
    defaults.update(overrides)
    return ShardedConfig(**defaults)


def sample_queries():
    return [
        IntervalQuery(3, 11, CARDINALITY),
        IntervalQuery(0, 0, CARDINALITY),
        MembershipQuery.of({0, 5, 19}, CARDINALITY),
        MembershipQuery.of({2, 3, 4, 5, 6, 7}, CARDINALITY),
        MembershipQuery.of({1}, CARDINALITY),
    ]


def naive(query, values):
    return BitVector.from_bools(query.matches(values))


class TestConfig:
    def test_defaults_valid(self):
        config = ShardedConfig()
        assert config.shards == 2
        assert config.transport == "inline"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"transport": "carrier-pigeon"},
            {"max_queue": 0},
            {"workers": 0},
            {"max_batch": 0},
            {"call_timeout_s": 0.0},
            {"fused": "sometimes"},  # deprecated no-op, still validated
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ShardedConfig(**kwargs)


class TestCorrectness:
    def test_execute_matches_naive_scan(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            for query in sample_queries():
                result = s.execute(query)
                assert result.bitmap == naive(query, values), query
                assert result.shard_count == 3
                assert result.row_count == int(query.matches(values).sum())

    def test_execute_many_matches_naive_scan(self, values):
        queries = sample_queries() * 3
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            results = s.execute_many(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.bitmap == naive(query, values)

    def test_row_ids_are_global(self, values):
        query = IntervalQuery(5, 9, CARDINALITY)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            result = s.execute(query)
        expected = np.flatnonzero(query.matches(values))
        assert np.array_equal(result.row_ids(), expected)

    def test_concurrent_submissions(self, values):
        queries = sample_queries() * 8
        with ShardedQueryService(
            values, make_spec(), inline_config(workers=3)
        ) as s:
            tickets = [s.submit(q) for q in queries]
            for query, ticket in zip(queries, tickets):
                assert ticket.result().bitmap == naive(query, values)

    def test_single_shard_degenerates_to_whole_column(self, values):
        with ShardedQueryService(
            values, make_spec(), inline_config(shards=1)
        ) as s:
            assert len(s.shard_info()) == 1
            query = IntervalQuery(2, 13, CARDINALITY)
            assert s.execute(query).bitmap == naive(query, values)

    def test_process_transport_matches_naive_scan(self, rng):
        values = rng.integers(0, CARDINALITY, size=120)
        config = ShardedConfig(
            shards=2, transport="process", segment_size=32, buffer_pages=8
        )
        with ShardedQueryService(values, make_spec(), config) as s:
            for query in sample_queries():
                assert s.execute(query).bitmap == naive(query, values)

    def test_compressed_engine_matches_naive_scan(self, values):
        config = inline_config(engine="compressed")
        with ShardedQueryService(values, make_spec("wah"), config) as s:
            for query in sample_queries():
                assert s.execute(query).bitmap == naive(query, values)

    def test_domain_mismatch_rejected(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            with pytest.raises(QueryError):
                s.execute(IntervalQuery(0, 1, CARDINALITY + 1))


class TestDifferential:
    """Sharded == single-process QueryService == naive, every codec x scheme.

    The row count (97 over 3 shards, chunk 33) puts the last shard one
    row short of the others and cuts shard 0 / shard 1 mid-segment
    (segment_size 16), so the sweep also exercises non-word-aligned
    concatenation at every merge.
    """

    @pytest.mark.parametrize("codec", sorted(available_codecs()))
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
    def test_codec_scheme_matrix(self, rng, codec, scheme):
        values = rng.integers(0, 12, size=97)
        spec = IndexSpec(cardinality=12, scheme=scheme, codec=codec)
        engine = "decoded" if codec == "raw" else "compressed"
        queries = [
            IntervalQuery(2, 7, 12),
            IntervalQuery(0, 11, 12),
            MembershipQuery.of({0, 4, 11}, 12),
        ]
        sharded_config = ShardedConfig(
            shards=3,
            transport="inline",
            segment_size=16,
            buffer_pages=8,
            engine=engine,
        )
        with ShardedQueryService(values, spec, sharded_config) as sharded:
            sharded_results = sharded.execute_many(queries)
        single_config = ServiceConfig(engine=engine, buffer_pages=8)
        index = BitmapIndex.build(values, spec)
        with QueryService(index, single_config) as single:
            single_results = single.execute_many(queries)
        for query, ours, theirs in zip(
            queries, sharded_results, single_results
        ):
            expected = naive(query, values)
            assert ours.bitmap == expected, (codec, scheme, query)
            assert theirs.bitmap == expected, (codec, scheme, query)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scheme=st.sampled_from(ALL_SCHEME_NAMES),
    codec=st.sampled_from(sorted(available_codecs())),
    shards=st.integers(min_value=1, max_value=4),
    boundary_offset=st.integers(min_value=-1, max_value=1),
)
@settings(max_examples=15, deadline=None)
def test_sharded_differential_property(
    seed, scheme, codec, shards, boundary_offset
):
    """sharded == single-process == naive at drawn boundary row counts.

    The row count is k * chunk + offset for offset in {-1, 0, +1}: the
    shard layout lands exactly on, one short of, or one past an even
    partition, so the drawn space concentrates on the row counts where
    merge arithmetic can go wrong.
    """
    rng = np.random.default_rng(seed)
    num_rows = max(2, shards * 24 + boundary_offset)
    values = rng.integers(0, 12, size=num_rows)
    spec = IndexSpec(cardinality=12, scheme=scheme, codec=codec)
    engine = "decoded" if codec == "raw" else "compressed"
    low = int(rng.integers(0, 12))
    high = int(rng.integers(low, 12))
    queries = [
        IntervalQuery(low, high, 12),
        MembershipQuery.of(
            set(rng.choice(12, size=3, replace=False).tolist()), 12
        ),
    ]
    config = ShardedConfig(
        shards=shards,
        transport="inline",
        segment_size=16,
        buffer_pages=8,
        engine=engine,
    )
    with ShardedQueryService(values, spec, config) as sharded:
        sharded_results = sharded.execute_many(queries)
    index = BitmapIndex.build(values, spec)
    with QueryService(
        index, ServiceConfig(engine=engine, buffer_pages=8)
    ) as single:
        single_results = single.execute_many(queries)
    for query, ours, theirs in zip(queries, sharded_results, single_results):
        expected = naive(query, values)
        assert ours.bitmap == expected, (scheme, codec, shards, query)
        assert theirs.bitmap == expected, (scheme, codec, shards, query)


class TestShardBoundaries:
    """Row ids at ``k * shard_size +/- 1`` survive query/append/split."""

    SHARDS = 4

    def column(self, num_rows):
        # Row i holds i % CARDINALITY: every global row id is
        # reconstructible from its value, so an off-by-one anywhere in
        # the merge shows up as a wrong id, not a wrong count.
        return np.arange(num_rows) % CARDINALITY

    def boundary_row_counts(self):
        # chunk = ceil(n / shards); exercise n = k*chunk exactly and
        # one row either side of every multiple near it.
        return [
            self.SHARDS * 32 - 1,
            self.SHARDS * 32,
            self.SHARDS * 32 + 1,
        ]

    @pytest.mark.parametrize("num_rows", [127, 128, 129])
    def test_query_at_boundary_row_counts(self, num_rows):
        values = self.column(num_rows)
        config = inline_config(shards=self.SHARDS, segment_size=16)
        with ShardedQueryService(values, make_spec(), config) as s:
            for target in (0, 1, 7, CARDINALITY - 1):
                query = MembershipQuery.of({target}, CARDINALITY)
                result = s.execute(query)
                expected = np.flatnonzero(values == target)
                assert np.array_equal(result.row_ids(), expected), num_rows

    @pytest.mark.parametrize("num_rows", [127, 128, 129])
    def test_append_at_boundary_row_counts(self, num_rows):
        values = self.column(num_rows)
        config = inline_config(shards=self.SHARDS, segment_size=16)
        with ShardedQueryService(values, make_spec(), config) as s:
            tail_before = s.shard_info()[-1]
            extra = self.column(33)
            report = s.append(extra)
            assert report.shard == tail_before["id"]
            assert report.records_appended == 33
            combined = np.concatenate([values, extra])
            query = MembershipQuery.of({3}, CARDINALITY)
            result = s.execute(query)
            assert np.array_equal(
                result.row_ids(), np.flatnonzero(combined == 3)
            )

    def test_appended_rows_feed_split_and_recovery(self):
        values = self.column(64)
        batches = [self.column(5 + i) for i in range(4)]
        combined = np.concatenate([values, *batches])
        config = inline_config(shards=2, segment_size=16)
        query = MembershipQuery.of({3}, CARDINALITY)
        expected = np.flatnonzero(combined == 3)
        with ShardedQueryService(values, make_spec(), config) as s:
            for batch in batches:
                s.append(batch.copy())
            tail = s.shard_info()[-1]
            assert tail["num_records"] == 32 + 5 + 6 + 7 + 8
            # Cut inside the first appended batch: both children are
            # rebuilt from the acked rows, base and appended alike.
            s.split(shard_id=tail["id"], at_row=35)
            assert np.array_equal(s.execute(query).row_ids(), expected)
            assert s.recover(s.shard_info()[-1]["id"])
            assert np.array_equal(s.execute(query).row_ids(), expected)

    def test_acked_rows_kept_in_the_code_dtype(self):
        values = self.column(64)
        with ShardedQueryService(values, make_spec(), inline_config(shards=2)) as s:
            s.append(self.column(9))
            shards = s._layout.shards
            assert {shard.acked_rows().dtype for shard in shards} == {np.dtype(np.uint8)}
            assert np.array_equal(shards[-1].acked_rows()[-9:], self.column(9))

    def test_out_of_domain_rows_rejected_before_narrowing(self):
        with pytest.raises(EncodingSchemeError):
            ShardedQueryService(
                np.array([0, CARDINALITY + 236]), make_spec(), inline_config(shards=1)
            )

    def test_appends_racing_recoveries_lose_no_rows(self):
        values = self.column(64)
        batches = [self.column(3 + i % 5) for i in range(40)]
        combined = np.concatenate([values, *batches])
        config = inline_config(shards=2, segment_size=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardedQueryService(values, make_spec(), config) as s:
                tail = s.shard_info()[-1]["id"]
                done = threading.Event()

                def recover_until_done():
                    while not done.is_set():
                        s.recover(tail)

                recoverer = threading.Thread(target=recover_until_done)
                recoverer.start()
                try:
                    for batch in batches:
                        s.append(batch)
                finally:
                    done.set()
                    recoverer.join(timeout=30)
                assert not recoverer.is_alive()
                assert s.recover(tail)  # rebuild from the acked rows alone
                query = IntervalQuery(0, CARDINALITY - 1, CARDINALITY)
                assert s.execute(query).row_count == len(combined)
                assert s.shard_info()[-1]["num_records"] == len(combined) - 32
        finally:
            sys.setswitchinterval(interval)

    def test_append_bumps_only_tail_epoch(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            before = {i["id"]: i["epoch"] for i in s.shard_info()}
            report = s.append(np.array([1, 2, 3]))
            after = {i["id"]: i["epoch"] for i in s.shard_info()}
            tail = s.shard_info()[-1]["id"]
            assert report.shard == tail
            assert after[tail] == before[tail] + 1
            for shard_id, epoch in before.items():
                if shard_id != tail:
                    assert after[shard_id] == epoch

    def test_append_into_empty_tail_shard(self):
        # n=8 over 5 shards: chunk 2 -> 2,2,2,2,0; the tail starts empty
        # at epoch 0 and must still accept the append.
        values = self.column(8)
        config = inline_config(shards=5, segment_size=4)
        with ShardedQueryService(values, make_spec(), config) as s:
            info = s.shard_info()
            assert info[-1]["num_records"] == 0
            assert info[-1]["epoch"] == 0
            report = s.append(np.array([9, 9, 9]))
            assert report.shard == info[-1]["id"]
            assert report.epoch == 1
            combined = np.concatenate([values, [9, 9, 9]])
            query = MembershipQuery.of({9}, CARDINALITY)
            assert np.array_equal(
                s.execute(query).row_ids(), np.flatnonzero(combined == 9)
            )

    def test_query_with_empty_tail_shard(self):
        values = self.column(8)
        config = inline_config(shards=5, segment_size=4)
        with ShardedQueryService(values, make_spec(), config) as s:
            query = IntervalQuery(0, CARDINALITY - 1, CARDINALITY)
            result = s.execute(query)
            assert result.shard_count == 5
            assert result.row_count == 8

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_split_at_segment_boundary_and_neighbors(self, offset):
        values = self.column(160)
        config = inline_config(shards=2, segment_size=16)
        query = MembershipQuery.of({5}, CARDINALITY)
        expected = np.flatnonzero(values == 5)
        with ShardedQueryService(values, make_spec(), config) as s:
            before = s.execute(query)
            assert np.array_equal(before.row_ids(), expected)
            parent = s.shard_info()[0]
            report = s.split(shard_id=parent["id"], at_row=48 + offset)
            assert report.parent == parent["id"]
            assert len(s.shard_info()) == 3
            after = s.execute(query)
            assert np.array_equal(after.row_ids(), expected)

    def test_split_default_targets_largest_shard(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            sizes = {i["id"]: i["num_records"] for i in s.shard_info()}
            largest = max(sizes, key=sizes.get)
            report = s.split()
            assert report.parent == largest
            assert report.row == sizes[largest] // 2

    def test_split_validation(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            with pytest.raises(ServeError):
                s.split(shard_id=999)
            parent = s.shard_info()[0]
            with pytest.raises(ServeError):
                s.split(shard_id=parent["id"], at_row=0)
            with pytest.raises(ServeError):
                s.split(
                    shard_id=parent["id"], at_row=parent["num_records"]
                )

    def test_repeated_splits_preserve_answers(self):
        values = self.column(96)
        config = inline_config(shards=1, segment_size=8)
        query = IntervalQuery(4, 9, CARDINALITY)
        expected = naive(query, values)
        with ShardedQueryService(values, make_spec(), config) as s:
            for _ in range(4):
                s.split()
                assert s.execute(query).bitmap == expected
            assert len(s.shard_info()) == 5
            assert sum(i["num_records"] for i in s.shard_info()) == 96


class TestCacheAccounting:
    def test_repeat_is_global_hit_once_per_request(self, values):
        query = IntervalQuery(3, 11, CARDINALITY)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            first = s.execute(query)
            second = s.execute(query)
            assert not first.cached
            assert second.cached
            assert s.stats.cache_hits == 1
            assert s.stats.cache_misses == 1

    def test_hits_plus_misses_equals_completed(self, values):
        queries = sample_queries() * 4
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            s.execute_many(queries)
            snapshot = s.metrics_snapshot()
        assert (
            snapshot["cache_hits"] + snapshot["cache_misses"]
            == snapshot["completed"]
            == len(queries)
        )

    def test_append_invalidates_only_tail_part(self, values):
        query = IntervalQuery(3, 11, CARDINALITY)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            s.execute(query)
            s.append(np.array([4, 4]))
            combined = np.concatenate([values, [4, 4]])
            result = s.execute(query)
            # Tail part re-evaluated -> not a global hit, but the other
            # shards served from cache (visible in the shard sums).
            assert not result.cached
            assert result.bitmap == naive(query, combined)
            snapshot = s.metrics_snapshot()
            assert snapshot["shard_cache_hits"] >= 2

    def test_global_hit_requires_every_shard_part(self, values):
        # Epoch vector of a cached answer must match the first answer's.
        query = MembershipQuery.of({2, 9}, CARDINALITY)
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            first = s.execute(query)
            second = s.execute(query)
            assert second.cached
            assert second.epochs == first.epochs


class TestAdmissionAndClose:
    def test_overload_sheds_typed(self, values):
        # Stall the single router worker so submissions pile up past the
        # queue bound and shed with a typed Overloaded.
        config = inline_config(max_queue=2, workers=1, max_batch=1)
        s = ShardedQueryService(values, make_spec(), config)
        blocker = threading.Event()
        original = s._evaluate_requests

        def stalled(requests):
            blocker.wait(5.0)
            original(requests)

        s._evaluate_requests = stalled
        try:
            tickets = [s.submit(q) for q in sample_queries()[:2]]
            with pytest.raises(Overloaded):
                for query in sample_queries() * 3:
                    tickets.append(s.submit(query))
            assert s.stats.shed >= 1
            blocker.set()
            for ticket in tickets:
                ticket.result()
        finally:
            blocker.set()
            s.close()

    def test_close_is_idempotent(self, values):
        s = ShardedQueryService(values, make_spec(), inline_config())
        s.close()
        s.close()
        assert s.closed

    def test_submit_after_close_raises(self, values):
        s = ShardedQueryService(values, make_spec(), inline_config())
        s.close()
        with pytest.raises(ServiceClosed):
            s.submit(IntervalQuery(0, 5, CARDINALITY))

    def test_close_drains_queued_requests(self, values):
        """Close while requests are queued: drain completes them all."""
        config = inline_config(workers=1, max_batch=1)
        s = ShardedQueryService(values, make_spec(), config)
        gate = threading.Event()
        original = s._evaluate_requests

        def gated(requests):
            gate.wait(10.0)
            original(requests)

        s._evaluate_requests = gated
        queries = sample_queries()
        tickets = [s.submit(q) for q in queries]
        closer = threading.Thread(target=s.close)
        closer.start()
        gate.set()
        closer.join(10.0)
        assert not closer.is_alive()
        for query, ticket in zip(queries, tickets):
            assert ticket.result().bitmap == naive(query, values)
        assert s.stats.completed == len(queries)

    def test_close_without_drain_cancels_queued(self, values):
        config = inline_config(workers=1, max_batch=1)
        s = ShardedQueryService(values, make_spec(), config)
        gate = threading.Event()
        original = s._evaluate_requests

        def gated(requests):
            gate.wait(10.0)
            original(requests)

        s._evaluate_requests = gated
        tickets = [s.submit(q) for q in sample_queries()]
        closer = threading.Thread(
            target=lambda: s.close(drain=False, timeout=0.2)
        )
        closer.start()
        gate.set()
        closer.join(10.0)
        s.close()
        outcomes = []
        for ticket in tickets:
            try:
                ticket.result()
                outcomes.append("ok")
            except ServiceClosed:
                outcomes.append("cancelled")
        assert "cancelled" in outcomes
        assert s.stats.cancelled >= 1

    def test_append_and_split_after_close_raise(self, values):
        s = ShardedQueryService(values, make_spec(), inline_config())
        s.close()
        with pytest.raises(ServiceClosed):
            s.append(np.array([1]))
        with pytest.raises(ServiceClosed):
            s.split()


class TestMetricsAndObs:
    def test_snapshot_has_driver_keys(self, values):
        with ShardedQueryService(values, make_spec(), inline_config()) as s:
            s.execute_many(sample_queries())
            snapshot = s.metrics_snapshot()
        for key in (
            "submitted",
            "completed",
            "pages_read",
            "read_requests",
            "cache_hits",
            "batches",
            "batched_queries",
            "shards",
            "shard_cache_hits",
            "shard_cache_misses",
        ):
            assert key in snapshot, key
        assert snapshot["pages_read"] > 0
        assert snapshot["shards"] == 3

    def test_obs_mirror(self, values):
        query = IntervalQuery(3, 11, CARDINALITY)
        with obs.observed() as o:
            with ShardedQueryService(
                values, make_spec(), inline_config()
            ) as s:
                s.execute(query)
                s.execute(query)
                s.append(np.array([5]))
                s.split()
        metrics = o.metrics
        assert metrics.find("serve.submitted").value == 2
        assert metrics.find("serve.completed").value == 2
        assert metrics.find("serve.cache.hits").value == 1
        assert metrics.find("serve.cache.misses").value == 1
        assert metrics.find("serve.appends").value == 1
        assert metrics.total("serve.shard.appends") == 1
        assert metrics.find("serve.shard.splits").value == 1
        # 2 requests x 3 shards, per-shard behavior in tagged series.
        assert metrics.total("serve.shard.queries") == 6
        assert metrics.total("serve.shard.cache.hits") == 3
        assert metrics.total("serve.shard.cache.misses") == 3
        assert metrics.find("serve.shard.count") is not None

    def test_compaction_metrics_emitted(self, rng):
        # 60 rows at segment_size 4 lay out as 16,16,16,4,4,4; four more
        # rows seal a fourth 4 and cascade into one 64-row segment.
        values = rng.integers(0, CARDINALITY, size=60)
        config = inline_config(shards=1, segment_size=4)
        o = obs.install()
        try:
            with ShardedQueryService(values, make_spec(), config) as s:
                s.append(np.array([1, 2, 3]))
                assert o.metrics.total("serve.shard.compactions") == 0
                s.append(np.array([4]))
                (info,) = s.shard_info()
        finally:
            obs.uninstall()
        shard = str(info["id"])
        metrics = o.metrics
        assert info["num_segments"] == 1
        assert metrics.find("serve.shard.compactions", shard=shard).value == 2
        timing = metrics.find("serve.shard.compaction_ms", shard=shard)
        assert timing.count == 1 and timing.sum > 0
        assert metrics.find(
            "serve.shard.compacted_bytes", shard=shard
        ).value > 0

    def test_pool_counters_survive_merges(self, rng):
        # A merge drops the merged segments' engines and pools; the
        # summed pool counters must not run backwards with them.
        values = rng.integers(0, CARDINALITY, size=60)
        config = inline_config(shards=1, segment_size=4, cache_entries=0)
        query = IntervalQuery(2, 9, CARDINALITY)
        with ShardedQueryService(values, make_spec(), config) as s:
            s.execute(query)
            before = s.metrics_snapshot()
            assert s.append(np.array([1, 2, 3, 4])).num_records == 64
            s.execute(query)
            after = s.metrics_snapshot()
            assert s.shard_info()[0]["num_segments"] == 1
        for key in ("pool_hits", "pool_misses", "pool_evictions"):
            assert after[key] >= before[key], key
        assert after["pool_misses"] > before["pool_misses"]


class TestRepeatedQueries:
    def test_repeat_in_one_batch_is_evaluated_once(self, values):
        query = MembershipQuery.of({0, 5, 19}, CARDINALITY)
        engine = ShardEngine(
            values, make_spec(), cache_entries=0, segment_size=32
        )
        (single,) = engine.evaluate_batch([query])
        words = engine.clock.words_operated
        first, repeat = engine.evaluate_batch([query, query])
        assert first.operations == single.operations > 0
        assert first.scans == single.scans > 0
        assert (repeat.operations, repeat.scans) == (0, 0)
        assert engine.clock.words_operated == 2 * words
        assert repeat.bitmap == first.bitmap == naive(query, values)
        assert repeat.bitmap is not first.bitmap

    def test_repeats_through_the_service_are_independent(self, values):
        query = IntervalQuery(3, 11, CARDINALITY)
        with ShardedQueryService(
            values, make_spec(), inline_config(shards=1, cache_entries=0)
        ) as s:
            first, repeat = s.execute_many([query, query])
        assert first.bitmap == repeat.bitmap == naive(query, values)
        assert first.bitmap is not repeat.bitmap
