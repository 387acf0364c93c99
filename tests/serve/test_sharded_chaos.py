"""Chaos tests: shard workers crash or hang mid-query, never lie.

The process transport's failure contract: a dead worker surfaces as
``WorkerCrashed``, a silent one as ``WorkerUnresponsive`` after
``call_timeout_s``, and either fails the affected requests with a
typed :class:`ShardFailed` — the scatter fails whole, so the router
never returns a partial or wrong answer.  Recovery (automatic or via
:meth:`recover`) rebuilds the shard from the router's acknowledged
rows, after which answers must again equal the naive scan.

Crash points are deterministic :class:`repro.parallel.WorkerFault`
plans shipped to the child at spawn (mirroring the
``repro.storage.faults`` style), plus one external ``SIGKILL`` through
the pid the router exposes.  Sizes are tiny: every test forks real
processes.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.bitmap import BitVector
from repro.errors import ShardFailed
from repro.index import IndexSpec
from repro.parallel import WorkerFault
from repro.queries import IntervalQuery, MembershipQuery
from repro.serve import ShardedConfig, ShardedQueryService

CARDINALITY = 12


def make_spec():
    return IndexSpec(cardinality=CARDINALITY, scheme="E", codec="raw")


def process_config(**overrides):
    defaults = dict(
        shards=2,
        transport="process",
        segment_size=8,
        buffer_pages=8,
        workers=2,
    )
    defaults.update(overrides)
    return ShardedConfig(**defaults)


def naive(query, values):
    return BitVector.from_bools(query.matches(values))


@pytest.fixture
def values(rng):
    return rng.integers(0, CARDINALITY, size=48)


class TestCrash:
    def test_crash_mid_query_fails_typed_then_recovers(self, values):
        faults = {0: WorkerFault(kind="crash", at_task=0)}
        query = IntervalQuery(2, 9, CARDINALITY)
        with ShardedQueryService(
            values, make_spec(), process_config(), faults=faults
        ) as s:
            with pytest.raises(ShardFailed):
                s.execute(query)
            assert s.stats.shard_failures == 1
            # auto_recover rebuilt the shard from its acked rows.
            result = s.execute(query)
            assert result.bitmap == naive(query, values)
            assert s.stats.shard_recoveries == 1
            assert not any(i["failed"] for i in s.shard_info())

    def test_crash_at_later_task_spares_earlier_queries(self, values):
        # Two clean scatters first (tasks 0 and 1 on each worker), then
        # the third trips the fault on shard 1.
        faults = {1: WorkerFault(kind="crash", at_task=2)}
        queries = [
            IntervalQuery(0, 4, CARDINALITY),
            MembershipQuery.of({1, 7}, CARDINALITY),
            IntervalQuery(5, 11, CARDINALITY),
        ]
        with ShardedQueryService(
            values, make_spec(), process_config(cache_entries=0),
            faults=faults,
        ) as s:
            assert s.execute(queries[0]).bitmap == naive(queries[0], values)
            assert s.execute(queries[1]).bitmap == naive(queries[1], values)
            with pytest.raises(ShardFailed):
                s.execute(queries[2])
            assert s.execute(queries[2]).bitmap == naive(queries[2], values)

    def test_no_auto_recover_stays_failed_until_recover(self, values):
        faults = {0: WorkerFault(kind="crash", at_task=0)}
        query = IntervalQuery(1, 8, CARDINALITY)
        config = process_config(auto_recover=False)
        with ShardedQueryService(
            values, make_spec(), config, faults=faults
        ) as s:
            with pytest.raises(ShardFailed):
                s.execute(query)
            # Still failed: the dispatcher fast-fails without touching
            # the dead worker.
            with pytest.raises(ShardFailed):
                s.execute(query)
            failed = [i for i in s.shard_info() if i["failed"]]
            assert len(failed) == 1
            assert s.recover(failed[0]["id"])
            assert s.execute(query).bitmap == naive(query, values)
            assert s.stats.shard_recoveries == 1

    def test_external_sigkill_recovers(self, values):
        query = IntervalQuery(3, 10, CARDINALITY)
        with ShardedQueryService(values, make_spec(), process_config()) as s:
            assert s.execute(query).bitmap == naive(query, values)
            victim = s.shard_info()[0]
            os.kill(victim["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            recovered = None
            while time.monotonic() < deadline:
                try:
                    recovered = s.execute(query)
                    break
                except ShardFailed:
                    continue  # the kill landed mid-call; retry
            assert recovered is not None, "shard never recovered"
            assert recovered.bitmap == naive(query, values)
            assert s.stats.shard_failures >= 1
            assert s.stats.shard_recoveries >= 1
            # The rebuilt worker is a different process.
            assert s.shard_info()[0]["pid"] != victim["pid"]


class TestHang:
    def test_hang_fails_typed_after_timeout_then_recovers(self, values):
        faults = {1: WorkerFault(kind="hang", at_task=0)}
        query = MembershipQuery.of({0, 6, 11}, CARDINALITY)
        config = process_config(call_timeout_s=0.75)
        with ShardedQueryService(
            values, make_spec(), config, faults=faults
        ) as s:
            start = time.monotonic()
            with pytest.raises(ShardFailed):
                s.execute(query)
            # Typed and prompt: the timeout bounds the stall.
            assert time.monotonic() - start < 10.0
            assert s.stats.shard_failures == 1
            result = s.execute(query)
            assert result.bitmap == naive(query, values)
            assert s.stats.shard_recoveries == 1


class TestAppendFailures:
    def test_crashed_append_is_cleanly_unapplied(self, values):
        # Fault the tail shard; its first task is the append itself.
        faults = {1: WorkerFault(kind="crash", at_task=0)}
        with ShardedQueryService(
            values, make_spec(), process_config(), faults=faults
        ) as s:
            before = [i["num_records"] for i in s.shard_info()]
            with pytest.raises(ShardFailed):
                s.append(np.array([3, 3, 3]))
            # The batch never acked, so the router's authoritative rows
            # — and the rebuilt shard — exclude it.
            assert [i["num_records"] for i in s.shard_info()] == before
            query = MembershipQuery.of({3}, CARDINALITY)
            assert s.execute(query).bitmap == naive(query, values)
            # A retry against the recovered shard lands normally.
            report = s.append(np.array([3, 3, 3]))
            assert report.records_appended == 3
            combined = np.concatenate([values, [3, 3, 3]])
            assert s.execute(query).bitmap == naive(query, combined)

    def test_acked_appends_survive_crash_recovery(self, values):
        # Ack three appends, the last of which compacts the tail's
        # segments, then kill the tail worker: the rebuild must
        # reproduce all of them (and the epoch must not regress).
        query = MembershipQuery.of({5}, CARDINALITY)
        with ShardedQueryService(values, make_spec(), process_config()) as s:
            s.append(np.array([5, 5]))
            s.append(np.array([5]))
            s.append(np.array([5] * 6))
            tail = s.shard_info()[-1]
            # 24 + 9 rows at segment_size 8: a 32-row merged segment and
            # a 1-row tail, not five 8-row segments.
            assert tail["num_segments"] == 2
            combined = np.concatenate([values, [5] * 9])
            assert s.execute(query).bitmap == naive(query, combined)
            os.kill(tail["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            recovered = None
            while time.monotonic() < deadline:
                try:
                    recovered = s.execute(query)
                    break
                except ShardFailed:
                    continue
            assert recovered is not None, "shard never recovered"
            assert recovered.bitmap == naive(query, combined)
            after = [i for i in s.shard_info() if i["id"] == tail["id"]][0]
            assert after["epoch"] >= tail["epoch"]
            assert after["num_records"] == tail["num_records"]


class TestNeverWrong:
    def test_chaos_round_never_returns_wrong_answers(self, rng):
        """Crash, hang, recover, append — every answer right or typed."""
        values = rng.integers(0, CARDINALITY, size=40)
        faults = {0: WorkerFault(kind="crash", at_task=1)}
        config = process_config(call_timeout_s=2.0)
        queries = [
            IntervalQuery(0, 5, CARDINALITY),
            MembershipQuery.of({2, 8}, CARDINALITY),
            IntervalQuery(6, 11, CARDINALITY),
        ]
        column = np.array(values)
        with ShardedQueryService(
            values, make_spec(), config, faults=faults
        ) as s:
            answered = failures = 0
            for round_no in range(4):
                for query in queries:
                    try:
                        result = s.execute(query)
                    except ShardFailed:
                        failures += 1
                        continue
                    assert result.bitmap == naive(query, column), query
                    answered += 1
                appended = rng.integers(0, CARDINALITY, size=3)
                try:
                    s.append(appended)
                    column = np.concatenate([column, appended])
                except ShardFailed:
                    failures += 1
            assert failures >= 1  # the fault actually fired
            assert answered >= len(queries)  # and service kept serving
            # The tail shard's 20 + 12 acked rows compacted into one
            # 32-row segment while the fault and recovery played out.
            s.metrics_snapshot()
            tail = s.shard_info()[-1]
            assert tail["num_records"] == 32
            assert tail["num_segments"] == 1
