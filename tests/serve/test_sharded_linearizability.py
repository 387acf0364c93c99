"""Cross-shard linearizability of the sharded serving tier.

Every :class:`ServeResult` names its composite snapshot: per shard,
the ``(shard_id, epoch)`` it reflects.  The router mirrors each shard's
acknowledged rows, so a test can maintain its own per-``(shard,
epoch)`` row history — seeded from the initial partition, extended on
every acknowledged append, forked on every split — and replay any
answer's snapshot through a naive scan.  The contract checked here:

* every ``(shard_id, epoch)`` an answer names exists in the history
  built purely from acknowledged operations (no answer reflects a row
  state that was never acknowledged);
* the answer's bitmap equals the naive scan over the history rows of
  its snapshot, concatenated in shard order;
* this holds while appends and splits race in-flight queries (real
  router workers; inline shards evaluate on the calling thread under
  the scan lock, process shards behind real dispatcher threads), on
  both transports, and while appends compact segments (every test that
  appends enough rows asserts a merge actually ran).

The deterministic sequential version is hypothesis-driven over random
op sequences; the racing versions interleave mutations with live
tickets.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.errors import ServeError
from repro.index import IndexSpec
from repro.queries import IntervalQuery, MembershipQuery
from repro.serve import ShardedConfig, ShardedQueryService

CARDINALITY = 12
SEGMENT_SIZE = 8


def make_spec():
    return IndexSpec(cardinality=CARDINALITY, scheme="E", codec="raw")


class ShardOracle:
    """Per-``(shard, epoch)`` row history mirroring acknowledged ops."""

    def __init__(self, service: ShardedQueryService, values: np.ndarray):
        self.history: dict[tuple[int, int], np.ndarray] = {}
        #: Current rows per live shard id (the acked state).
        self.current: dict[int, np.ndarray] = {}
        offset = 0
        for info in service.shard_info():
            rows = np.array(values[offset : offset + info["num_records"]])
            offset += info["num_records"]
            self.history[(info["id"], info["epoch"])] = rows
            self.current[info["id"]] = rows
        assert offset == len(values)

    def record_append(self, report, appended: np.ndarray) -> None:
        rows = np.concatenate([self.current[report.shard], appended])
        self.current[report.shard] = rows
        self.history[(report.shard, report.epoch)] = rows

    def record_split(self, report, service: ShardedQueryService) -> None:
        parent_rows = self.current[report.parent]
        left_rows = np.array(parent_rows[: report.row])
        right_rows = np.array(parent_rows[report.row :])
        self.current[report.left] = left_rows
        self.current[report.right] = right_rows
        epochs = {i["id"]: i["epoch"] for i in service.shard_info()}
        self.history[(report.left, epochs[report.left])] = left_rows
        self.history[(report.right, epochs[report.right])] = right_rows

    def check(self, query, result) -> None:
        column_parts = []
        for shard_id, epoch in result.epochs:
            key = (shard_id, epoch)
            assert key in self.history, (
                f"answer names unacknowledged snapshot {key}; "
                f"known: {sorted(self.history)}"
            )
            column_parts.append(self.history[key])
        column = (
            np.concatenate(column_parts)
            if column_parts
            else np.array([], dtype=int)
        )
        expected = BitVector.from_bools(query.matches(column))
        assert result.bitmap == expected, (query, result.epochs)


def assert_compacted(service: ShardedQueryService) -> None:
    """Some shard merged segments: it holds fewer than the
    ``ceil(rows / segment_size)`` segments it would without compaction."""
    service.metrics_snapshot()  # refreshes each shard's segment count
    assert any(
        info["num_segments"] < -(-info["num_records"] // SEGMENT_SIZE)
        for info in service.shard_info()
    ), service.shard_info()


def op_strategy():
    membership = st.frozensets(
        st.integers(min_value=0, max_value=CARDINALITY - 1),
        min_size=1,
        max_size=4,
    ).map(lambda vs: ("query", MembershipQuery(vs, CARDINALITY)))
    interval = st.tuples(
        st.integers(min_value=0, max_value=CARDINALITY - 1),
        st.integers(min_value=0, max_value=CARDINALITY - 1),
    ).map(
        lambda lh: ("query", IntervalQuery(min(lh), max(lh), CARDINALITY))
    )
    append = st.integers(min_value=0, max_value=10).map(
        lambda size: ("append", size)
    )
    split = st.just(("split", None))
    return st.lists(
        st.one_of(membership, interval, append, split),
        min_size=1,
        max_size=14,
    )


@given(seed=st.integers(min_value=0, max_value=2**31 - 1), ops=op_strategy())
@settings(max_examples=15, deadline=None)
def test_sequential_ops_linearize(seed, ops):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, CARDINALITY, size=40)
    config = ShardedConfig(
        shards=2, transport="inline", segment_size=SEGMENT_SIZE, buffer_pages=8
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)
        for kind, arg in ops:
            if kind == "query":
                oracle.check(arg, service.execute(arg))
            elif kind == "append":
                appended = rng.integers(0, CARDINALITY, size=arg)
                report = service.append(appended)
                oracle.record_append(report, appended)
            else:
                try:
                    report = service.split()
                except ServeError:
                    continue  # every shard too small to split
                oracle.record_split(report, service)
        # Four more tail segments' worth of rows always completes a merge.
        appended = rng.integers(0, CARDINALITY, size=4 * SEGMENT_SIZE + 3)
        oracle.record_append(service.append(appended), appended)
        assert_compacted(service)
        # Final sweep: the full column must be visible as one snapshot.
        probe = IntervalQuery(0, CARDINALITY - 1, CARDINALITY)
        oracle.check(probe, service.execute(probe))


def racing_queries():
    return [
        IntervalQuery(2, 8, CARDINALITY),
        MembershipQuery.of({0, 5, 11}, CARDINALITY),
        IntervalQuery(0, 0, CARDINALITY),
        MembershipQuery.of({3}, CARDINALITY),
    ]


def run_race(service, oracle, rng, mutate, rounds=6):
    """Interleave live tickets with ``mutate`` calls; validate all."""
    inflight = []
    for _ in range(rounds):
        for query in racing_queries():
            inflight.append((query, service.submit(query)))
        mutate()
    for query, ticket in inflight:
        oracle.check(query, ticket.result())


def test_appends_race_inflight_queries(rng):
    values = rng.integers(0, CARDINALITY, size=60)
    config = ShardedConfig(
        shards=3, transport="inline", segment_size=SEGMENT_SIZE, buffer_pages=8,
        workers=3,
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)

        def mutate():
            appended = rng.integers(0, CARDINALITY, size=5)
            oracle.record_append(service.append(appended), appended)

        run_race(service, oracle, rng, mutate)
        assert_compacted(service)


def test_splits_race_inflight_queries(rng):
    values = rng.integers(0, CARDINALITY, size=80)
    config = ShardedConfig(
        shards=2, transport="inline", segment_size=SEGMENT_SIZE, buffer_pages=8,
        workers=3,
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)

        def mutate():
            try:
                oracle.record_split(service.split(), service)
            except ServeError:
                pass

        run_race(service, oracle, rng, mutate, rounds=4)


def test_appends_and_splits_race_inflight_queries(rng):
    values = rng.integers(0, CARDINALITY, size=60)
    config = ShardedConfig(
        shards=2, transport="inline", segment_size=SEGMENT_SIZE, buffer_pages=8,
        workers=3,
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)
        step = {"n": 0}

        def mutate():
            step["n"] += 1
            if step["n"] % 2:
                # Enough rows that every append completes a merge, in
                # whichever shard the splits have left at the tail.
                appended = rng.integers(
                    0, CARDINALITY, size=4 * SEGMENT_SIZE + 3
                )
                oracle.record_append(service.append(appended), appended)
            else:
                try:
                    oracle.record_split(service.split(), service)
                except ServeError:
                    pass

        run_race(service, oracle, rng, mutate)
        assert_compacted(service)


def test_concurrent_submitters_observe_consistent_snapshots(rng):
    """Many client threads, main-thread appends, every answer checked."""
    values = rng.integers(0, CARDINALITY, size=60)
    config = ShardedConfig(
        shards=2, transport="inline", segment_size=SEGMENT_SIZE, buffer_pages=8,
        workers=2, max_queue=256,
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)
        collected: list = []
        lock = threading.Lock()

        def client():
            for query in racing_queries() * 3:
                result = service.execute(query)
                with lock:
                    collected.append((query, result))

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for _ in range(5):
            appended = rng.integers(0, CARDINALITY, size=3)
            oracle.record_append(service.append(appended), appended)
        for thread in threads:
            thread.join()
        for query, result in collected:
            oracle.check(query, result)
        assert_compacted(service)


def test_process_transport_appends_race_inflight_queries(rng):
    """The same contract holds across real worker processes."""
    values = rng.integers(0, CARDINALITY, size=40)
    config = ShardedConfig(
        shards=2, transport="process", segment_size=SEGMENT_SIZE, buffer_pages=8,
        workers=2,
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)

        def mutate():
            appended = rng.integers(0, CARDINALITY, size=4)
            oracle.record_append(service.append(appended), appended)

        run_race(service, oracle, rng, mutate, rounds=3)
        assert_compacted(service)


def test_process_transport_split_preserves_snapshots(rng):
    values = rng.integers(0, CARDINALITY, size=40)
    config = ShardedConfig(
        shards=2, transport="process", segment_size=SEGMENT_SIZE, buffer_pages=8
    )
    with ShardedQueryService(values, make_spec(), config) as service:
        oracle = ShardOracle(service, values)
        query = IntervalQuery(1, 9, CARDINALITY)
        oracle.check(query, service.execute(query))
        oracle.record_split(service.split(), service)
        oracle.check(query, service.execute(query))
        appended = rng.integers(0, CARDINALITY, size=6)
        oracle.record_append(service.append(appended), appended)
        oracle.check(query, service.execute(query))
