"""Tests for :class:`repro.serve.QueryService`.

Correctness against the naive scan under both engines and every index
layout the service serves (plain, reordered, mapped), the result cache,
answer ownership, admission control (typed :class:`Overloaded`),
deadlines (typed :class:`DeadlineExceeded`), close semantics and the
obs mirror.  Tests that need a request to stay in flight hold the
service's scan lock from the test thread — the worker then blocks
before its shard evaluates, which is exactly the window the behavior
under test lives in.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.bitmap import BitVector
from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    QueryError,
    ServeError,
    ServiceClosed,
)
from repro.index import BitmapIndex, IndexSpec, load_index, save_index
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve import (
    QueryService,
    ServiceConfig,
    ShardedConfig,
    ShardedQueryService,
)

CARDINALITY = 20


@pytest.fixture
def values(rng):
    return rng.integers(0, CARDINALITY, size=400)


def make_index(values, codec="raw"):
    spec = IndexSpec(cardinality=CARDINALITY, scheme="E", codec=codec)
    return BitmapIndex.build(values, spec)


def sample_queries():
    return [
        IntervalQuery(3, 11, CARDINALITY),
        IntervalQuery(0, 0, CARDINALITY),
        MembershipQuery.of({0, 5, 19}, CARDINALITY),
        MembershipQuery.of({2, 3, 4, 5, 6, 7}, CARDINALITY),
        MembershipQuery.of({1}, CARDINALITY),
    ]


def layout_index(values, layout, codec, directory):
    """A ``layout`` ("plain", "reordered" or "mapped") index."""
    reorder = "lexicographic" if layout == "reordered" else "none"
    spec = IndexSpec(
        cardinality=CARDINALITY, scheme="E", codec=codec, reorder=reorder
    )
    index = BitmapIndex.build(values, spec)
    if layout == "mapped":
        save_index(index, directory)
        index = load_index(directory, mapped=True)
    return index


class TestCorrectness:
    @pytest.mark.parametrize(
        "engine,codec", [("decoded", "raw"), ("compressed", "wah")]
    )
    def test_execute_matches_naive_scan(self, values, engine, codec):
        config = ServiceConfig(workers=2, engine=engine, buffer_pages=8)
        with QueryService(make_index(values, codec), config) as service:
            for query in sample_queries():
                result = service.execute(query)
                expected = BitVector.from_bools(query.matches(values))
                assert result.bitmap == expected, query
                assert result.row_count == int(query.matches(values).sum())

    @pytest.mark.parametrize(
        "engine,codec", [("decoded", "raw"), ("compressed", "wah")]
    )
    def test_execute_many_matches_naive_scan(self, values, engine, codec):
        config = ServiceConfig(engine=engine, buffer_pages=8, max_batch=4)
        queries = sample_queries() * 3
        with QueryService(make_index(values, codec), config) as service:
            results = service.execute_many(queries)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.bitmap == BitVector.from_bools(query.matches(values))

    @pytest.mark.parametrize(
        "engine,codec",
        [("decoded", "raw"), ("compressed", "wah"), ("compressed", "auto")],
    )
    @pytest.mark.parametrize("layout", ["plain", "reordered", "mapped"])
    def test_index_layouts_match_naive_scan(
        self, values, tmp_path, layout, engine, codec
    ):
        index = layout_index(values, layout, codec, tmp_path / "index")
        queries = sample_queries() + [
            ThresholdQuery.of(
                2,
                [
                    IntervalQuery(2, 9, CARDINALITY),
                    MembershipQuery.of({3, 4, 15}, CARDINALITY),
                    IntervalQuery(8, 16, CARDINALITY),
                ],
            )
        ]
        extra = np.arange(CARDINALITY)[::-1]
        merged = np.concatenate([values, extra])
        config = ServiceConfig(engine=engine, buffer_pages=8, max_batch=4)
        with QueryService(index, config) as service:
            answers = service.execute_many(queries)
            answers += [service.execute(query) for query in queries]
            service.append(extra)
            after = service.execute_many(queries)
        for query, result in zip(queries * 2, answers):
            assert result.bitmap == BitVector.from_bools(
                query.matches(values)
            ), query
        for query, result in zip(queries, after):
            assert result.bitmap == BitVector.from_bools(
                query.matches(merged)
            ), query

    def test_concurrent_submissions(self, values):
        queries = sample_queries() * 8
        with QueryService(make_index(values), ServiceConfig(workers=3)) as s:
            tickets = [s.submit(q) for q in queries]
            for query, ticket in zip(queries, tickets):
                result = ticket.result(timeout=10)
                assert result.bitmap == BitVector.from_bools(
                    query.matches(values)
                )
        assert s.stats.completed == len(queries)

    def test_unsupported_query_type(self, values):
        with QueryService(make_index(values)) as service:
            with pytest.raises(QueryError):
                service.submit("not a query")


class TestBatching:
    def test_batched_reads_fewer_pages_than_serial(self, values):
        index = make_index(values)
        queries = sample_queries() * 4
        serial_cfg = ServiceConfig(
            max_batch=1, buffer_pages=4, cache_entries=0
        )
        with QueryService(index, serial_cfg) as serial:
            for query in queries:
                serial.execute_many([query])
        batched_cfg = ServiceConfig(
            max_batch=8, buffer_pages=4, cache_entries=0
        )
        with QueryService(index, batched_cfg) as batched:
            batched.execute_many(queries)
        assert batched.clock.pages_read < serial.clock.pages_read

    def test_batch_size_recorded(self, values):
        config = ServiceConfig(max_batch=8, cache_entries=0)
        with QueryService(make_index(values), config) as service:
            results = service.execute_many(sample_queries())
        assert all(r.batch_size >= 1 for r in results)
        assert service.stats.batches >= 1
        assert service.stats.batched_queries == len(results)


class TestResultCache:
    def test_cache_fast_path_reads_no_pages(self, values):
        query = IntervalQuery(2, 9, CARDINALITY)
        with QueryService(make_index(values)) as service:
            first = service.execute(query)
            pages_after_first = service.clock.pages_read
            second = service.execute(query)
            assert not first.cached
            assert second.cached
            assert second.bitmap == first.bitmap
            assert service.clock.pages_read == pages_after_first

    def test_append_invalidates_cache(self, values):
        query = MembershipQuery.of({4, 7}, CARDINALITY)
        with QueryService(make_index(values)) as service:
            before = service.execute(query)
            service.append(np.array([4, 4, 7]))
            pages_before = service.clock.pages_read
            after = service.execute(query)
            assert not after.cached
            assert service.clock.pages_read > pages_before
            assert after.epoch == before.epoch + 1
            merged = np.concatenate([values, [4, 4, 7]])
            assert after.bitmap == BitVector.from_bools(query.matches(merged))
            assert service.cache.stats.invalidated >= 1

    def test_empty_append_preserves_cache(self, values):
        """A zero-row append changes nothing — cached answers survive.

        Regression: an unconditional epoch bump on empty batches swept
        every cached entry (the cache is keyed on the epoch) without a
        single bitmap having changed.
        """
        query = IntervalQuery(2, 9, CARDINALITY)
        with QueryService(make_index(values)) as service:
            epoch_before = service.index.epoch
            first = service.execute(query)
            report = service.append(np.array([], dtype=np.int64))
            assert report.records_appended == 0
            assert service.index.epoch == epoch_before
            assert service.cache.stats.invalidated == 0
            second = service.execute(query)
            assert second.cached
            assert second.bitmap == first.bitmap

    def test_cache_disabled(self, values):
        query = IntervalQuery(2, 9, CARDINALITY)
        config = ServiceConfig(cache_entries=0)
        with QueryService(make_index(values), config) as service:
            service.execute(query)
            result = service.execute(query)
            assert not result.cached


class TestAnswerOwnership:
    """A caller never receives an object the service still holds.

    Regression: the single-index service handed out the very bitmap its
    result cache stored (and, uncached, a bare-leaf answer was the
    buffer pool's resident bitmap), so a caller that changed its answer
    changed every later answer to the same query.
    """

    @pytest.mark.parametrize("cache_entries", [256, 0])
    @pytest.mark.parametrize("kind", ["single", "one-shard"])
    def test_changing_an_answer_changes_no_later_answer(
        self, values, kind, cache_entries
    ):
        query = IntervalQuery(3, 3, CARDINALITY)  # one bare leaf under E
        if kind == "single":
            service = QueryService(
                make_index(values, "wah"),
                ServiceConfig(cache_entries=cache_entries),
            )
        else:
            service = ShardedQueryService(
                values,
                IndexSpec(cardinality=CARDINALITY, scheme="E", codec="wah"),
                ShardedConfig(shards=1, cache_entries=cache_entries),
            )
        with service:
            first = service.execute(query)
            first.bitmap.words[:] = 0
            second = service.execute(query)
        assert second.cached == bool(cache_entries)
        assert second.bitmap == BitVector.from_bools(query.matches(values))


class TestResultEpoch:
    def test_epoch_is_the_one_shards_epoch(self, values):
        query = IntervalQuery(2, 9, CARDINALITY)
        index = make_index(values)
        with QueryService(index) as service:
            assert service.execute(query).epoch == index.epoch
        spec = IndexSpec(cardinality=CARDINALITY, scheme="E", codec="raw")
        with ShardedQueryService(values, spec, ShardedConfig()) as sharded:
            result = sharded.execute(query)
        assert len(result.epochs) == 2
        with pytest.raises(ServeError):
            result.epoch


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, values):
        config = ServiceConfig(
            workers=1, max_queue=2, max_batch=1, cache_entries=0
        )
        service = QueryService(make_index(values), config)
        try:
            with service._scan_lock:  # wedge the worker mid-scan
                with pytest.raises(Overloaded):
                    for query in sample_queries() * 4:
                        service.submit(query)
            assert service.stats.shed == 1
        finally:
            service.close()

    def test_deadline_exceeded_before_evaluation(self, values):
        config = ServiceConfig(workers=1, cache_entries=0)
        service = QueryService(make_index(values), config)
        try:
            with service._scan_lock:
                ticket = service.submit(
                    IntervalQuery(1, 5, CARDINALITY), timeout_s=0.001
                )
                threading.Event().wait(0.05)  # let the deadline lapse
            with pytest.raises(DeadlineExceeded):
                ticket.result(timeout=10)
            assert service.stats.timeouts == 1
        finally:
            service.close()

    def test_ticket_wait_timeout_is_not_a_deadline(self, values):
        service = QueryService(make_index(values), ServiceConfig(workers=1))
        query = IntervalQuery(1, 5, CARDINALITY)
        try:
            with service._scan_lock:
                ticket = service.submit(query)
                with pytest.raises(TimeoutError):
                    ticket.result(timeout=0.01)
            result = ticket.result(timeout=10)  # no deadline: still answers
            assert result.bitmap == BitVector.from_bools(query.matches(values))
        finally:
            service.close()


class TestCacheAccounting:
    """One hit or one miss per completed request — never both, never two.

    Regression for the double-count bug: the submit-path fast probe and
    the worker's re-probe both touched the cache, so a queued request
    that missed at submit and hit (or missed) again at evaluation was
    counted twice.  The fast probe no longer records misses.
    """

    def test_hits_plus_misses_equals_completed(self, values):
        queries = sample_queries() * 4  # repeats guarantee hits
        with QueryService(make_index(values)) as service:
            for query in queries:
                service.execute(query)
            snapshot = service.metrics_snapshot()
        assert (
            snapshot["cache_hits"] + snapshot["cache_misses"]
            == snapshot["completed"]
            == len(queries)
        )
        assert snapshot["cache_hits"] > 0

    def test_queued_duplicate_counts_one_miss_one_hit(self, values):
        # Wedge the worker so both submissions miss the fast probe and
        # queue; at evaluation the first misses, the second re-probes
        # and hits.  Exactly one miss + one hit, not two misses.
        query = IntervalQuery(3, 11, CARDINALITY)
        service = QueryService(
            make_index(values), ServiceConfig(workers=1, max_batch=1)
        )
        try:
            with service._scan_lock:
                first = service.submit(query)
                second = service.submit(query)
            first.result(timeout=10)
            result = second.result(timeout=10)
            assert result.cached
            assert service.cache.stats.misses == 1
            assert service.cache.stats.hits == 1
        finally:
            service.close()

    def test_obs_mirror_matches_completed(self, values):
        queries = sample_queries() * 3
        with obs.observed() as o:
            with QueryService(make_index(values)) as service:
                for query in queries:
                    service.execute(query)
        metrics = o.metrics
        hits = metrics.find("serve.cache.hits")
        misses = metrics.find("serve.cache.misses")
        total = (hits.value if hits else 0) + (misses.value if misses else 0)
        assert total == metrics.find("serve.completed").value == len(queries)


class TestClose:
    def test_submit_after_close_raises(self, values):
        service = QueryService(make_index(values))
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(IntervalQuery(1, 5, CARDINALITY))
        with pytest.raises(ServiceClosed):
            service.execute_many([IntervalQuery(1, 5, CARDINALITY)])

    def test_close_is_idempotent(self, values):
        service = QueryService(make_index(values))
        service.close()
        service.close()
        assert service.closed

    def test_concurrent_close_while_queued(self, values):
        """Racing closers against a wedged queue: one drain, no hang."""
        service = QueryService(make_index(values), ServiceConfig(workers=1))
        queries = sample_queries()
        with service._scan_lock:
            tickets = [service.submit(q) for q in queries]
            closers = [
                threading.Thread(target=service.close) for _ in range(3)
            ]
            for closer in closers:
                closer.start()
        for closer in closers:
            closer.join(10.0)
            assert not closer.is_alive()
        assert service.closed
        for query, ticket in zip(queries, tickets):
            assert ticket.result(timeout=10).bitmap == BitVector.from_bools(
                query.matches(values)
            )

    def test_close_drains_queued_requests(self, values):
        service = QueryService(make_index(values), ServiceConfig(workers=1))
        queries = sample_queries()
        with service._scan_lock:
            tickets = [service.submit(q) for q in queries]
        service.close(drain=True)
        for query, ticket in zip(queries, tickets):
            assert ticket.result(timeout=10).bitmap == BitVector.from_bools(
                query.matches(values)
            )

    def test_close_without_drain_cancels_queued(self, values):
        service = QueryService(
            make_index(values), ServiceConfig(workers=1, cache_entries=0)
        )
        with service._scan_lock:
            tickets = [service.submit(q) for q in sample_queries()]
            service.close(drain=False, timeout=0.1)
        service.close()
        cancelled = 0
        for ticket in tickets:
            try:
                ticket.result(timeout=10)
            except ServiceClosed:
                cancelled += 1
        # The worker may have grabbed a prefix of the queue before the
        # close; everything still queued must fail typed, not hang.
        assert cancelled == service.stats.cancelled
        assert cancelled >= len(tickets) - service.config.max_batch


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue": 0},
            {"workers": 0},
            {"max_batch": 0},
            {"engine": "quantum"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServiceConfig(**kwargs)


class TestObservability:
    def test_serve_metrics_emitted(self, values):
        queries = sample_queries()
        with obs.observed() as o:
            with QueryService(make_index(values)) as service:
                for query in queries:
                    service.execute(query)
                service.execute(queries[0])  # cache hit
                service.append(np.array([3]))
        metrics = o.metrics
        assert metrics.find("serve.submitted").value == len(queries) + 1
        assert metrics.find("serve.completed").value == len(queries) + 1
        assert metrics.find("serve.cache.hits").value == 1
        assert metrics.find("serve.appends").value == 1
        assert metrics.find("serve.cache.invalidated").value >= 1
        assert metrics.find("serve.batch_size").count >= 1
        assert metrics.find("serve.latency_ms").count == len(queries) + 1
        assert metrics.find("serve.queue_depth") is not None

    def test_metrics_snapshot_is_flat_and_consistent(self, values):
        with QueryService(make_index(values)) as service:
            service.execute_many(sample_queries())
            snapshot = service.metrics_snapshot()
        assert snapshot["submitted"] == len(sample_queries())
        assert snapshot["completed"] == len(sample_queries())
        assert snapshot["pages_read"] == service.clock.pages_read
        assert snapshot["pool_misses"] == service.engine.pool.stats.misses
        for value in snapshot.values():
            assert isinstance(value, (int, float))
