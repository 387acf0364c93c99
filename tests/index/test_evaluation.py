"""Tests for the Section 6.3 evaluation strategies and buffer effects."""

import numpy as np
import pytest

from repro.bitmap import BitVector, or_all
from repro.encoding import ALL_SCHEME_NAMES, EXTENDED_SCHEME_NAMES
from repro.errors import QueryError
from repro.expr import EvalStats, evaluate
from repro.expr.evaluator import BLOCK_WORDS
from repro.expr.nodes import Const, Leaf
from repro.index import BitmapIndex, IndexSpec
from repro.index.evaluation import component_order, schedule_constituents
from repro.queries import IntervalQuery, MembershipQuery
from repro.serve import QueryService, ServiceConfig
from repro.serve.driver import paper_mix
from repro.storage import CostClock


@pytest.fixture
def index(rng):
    values = rng.integers(0, 50, size=5000)
    return BitmapIndex.build(
        values, IndexSpec(cardinality=50, scheme="R", bases=(7, 8), codec="raw")
    ), values


def overlapping_membership() -> MembershipQuery:
    """Constituents that share prefix bitmaps in a base-<7,8> R index."""
    # {10, 11, 12} and {14, 15} and {40}: nearby digit prefixes overlap.
    return MembershipQuery.of({10, 11, 12, 14, 15, 40}, 50)


class TestStrategies:
    def test_same_answer_both_strategies(self, index):
        idx, values = index
        query = overlapping_membership()
        component_wise = idx.engine(strategy="component-wise").execute(query)
        query_wise = idx.engine(strategy="query-wise").execute(query)
        assert component_wise.bitmap == query_wise.bitmap
        assert component_wise.row_count == int(query.matches(values).sum())

    def test_component_wise_never_refetches(self, index):
        idx, _ = index
        engine = idx.engine(strategy="component-wise")
        result = engine.execute(overlapping_membership())
        # Each distinct bitmap fetched exactly once per query.
        assert result.stats.scans == len(set(result.stats.fetched_keys))

    def test_query_wise_refetches_shared_bitmaps(self, index):
        idx, _ = index
        engine = idx.engine(strategy="query-wise")
        result = engine.execute(overlapping_membership())
        assert result.stats.scans >= len(set(result.stats.fetched_keys))

    def test_component_wise_fetch_order(self, index):
        idx, _ = index
        engine = idx.engine(strategy="component-wise")
        result = engine.execute(overlapping_membership())
        components = [key[0] for key in result.stats.fetched_keys]
        assert components == sorted(components)

    def test_unknown_strategy_rejected(self, index):
        idx, _ = index
        with pytest.raises(QueryError):
            idx.engine(strategy="random")


class TestBufferEffects:
    def test_large_pool_hits_across_queries(self, index):
        idx, _ = index
        engine = idx.engine()  # default: everything fits
        engine.execute(IntervalQuery(0, 30, 50))
        misses_before = engine.buffer_stats.misses
        engine.execute(IntervalQuery(0, 30, 50))
        assert engine.buffer_stats.misses == misses_before

    def test_tiny_pool_forces_rescans(self, index):
        idx, _ = index
        clock = CostClock()
        engine = idx.engine(buffer_pages=1, clock=clock)
        query = overlapping_membership()
        engine.execute(query)
        first = clock.read_requests
        engine.execute(query)
        assert clock.read_requests > first  # everything evicted between

    def test_query_wise_costs_more_io_under_small_pool(self, index):
        """The §6.3 tradeoff: with a tight buffer, query-wise evaluation
        re-reads shared bitmaps that component-wise reads once."""
        idx, _ = index
        query = overlapping_membership()

        clock_cw = CostClock()
        idx.engine(buffer_pages=1, clock=clock_cw, strategy="component-wise").execute(query)
        clock_qw = CostClock()
        idx.engine(buffer_pages=1, clock=clock_qw, strategy="query-wise").execute(query)
        assert clock_qw.read_requests >= clock_cw.read_requests

    def test_simulated_time_accumulates(self, index):
        idx, _ = index
        clock = CostClock()
        engine = idx.engine(clock=clock)
        r1 = engine.execute(IntervalQuery(3, 3, 50))
        r2 = engine.execute(IntervalQuery(0, 44, 50))
        assert clock.total_ms == pytest.approx(r1.simulated_ms + r2.simulated_ms)


class TestAnswerOwnership:
    """Query answers belong to the caller: never a read-only view of
    pool/store memory, even when a constituent is a bare leaf."""

    def _single_leaf_query(self):
        values = np.arange(120) % 4
        idx = BitmapIndex.build(values, IndexSpec(cardinality=4, scheme="E"))
        # Equality on an E-encoded index is a bare-leaf expression.
        result = idx.query(IntervalQuery(2, 2, 4))
        return idx, result

    # ``fused`` is a deprecated no-op the serving config still accepts:
    # every value must leave the served answer the caller's to write.
    @pytest.mark.parametrize("fused", [False, True, "auto"])
    def test_answer_is_writable(self, fused):
        idx, result = self._single_leaf_query()
        assert result.bitmap.words.flags.writeable
        result.bitmap.words[0] = 0  # must not raise
        with QueryService(idx, ServiceConfig(fused=fused)) as service:
            served = service.execute(IntervalQuery(2, 2, 4))
        assert served.bitmap.words.flags.writeable
        served.bitmap.words[0] = 0  # must not raise

    def test_mutating_answer_leaves_index_intact(self):
        idx, result = self._single_leaf_query()
        before = result.row_count
        result.bitmap.words[:] = 0
        assert idx.query(IntervalQuery(2, 2, 4)).row_count == before


def _per_constituent(index, constituents, strategy, buffer_pages, cache=None):
    """Reference: one :func:`evaluate` per constituent, then a pairwise OR
    of the full-length answers, charged as ``n - 1`` extra operations.

    ``cache`` given means the shared-scan path (prefetched by the caller,
    component-wise sharing); otherwise the engine's own strategy runs.
    Returns (answer in original row order, stats, clock).
    """
    clock = CostClock()
    engine = index.engine(buffer_pages=buffer_pages, clock=clock)
    length = index.num_records
    stats = EvalStats()
    if cache is not None:
        for key in component_order({k for e in constituents for k in e.leaf_keys()}):
            cache[key] = engine.pool.fetch(key)
    elif strategy == "component-wise":
        cache = {}
        for key in sorted(
            {k for e in constituents for k in e.leaf_keys()},
            key=lambda key: (key[0], repr(key[1])),
        ):
            cache[key] = engine.pool.fetch(key)
            stats.scans += 1
            stats.fetched_keys.append(key)
    if cache is not None:
        results = [evaluate(e, engine.pool.fetch, length, stats, cache) for e in constituents]
    else:
        if strategy == "scheduled":
            constituents = schedule_constituents(constituents)
        results = [evaluate(e, engine.pool.fetch, length, stats, {}) for e in constituents]
    stats.operations += len(results) - 1
    answer = or_all(results) if len(results) > 1 else results[0].copy()
    clock.charge_word_ops(stats.operations, max(1, -(-length // 64)))
    return index.restore_row_order(answer), stats, clock


def _shares_subtree(constituents) -> bool:
    """Whether two constituents contain the same non-leaf subtree."""
    owners: dict = {}
    for i, expr in enumerate(constituents):
        for node in set(expr.walk()):
            if type(node) not in (Leaf, Const):
                owners.setdefault(node, set()).add(i)
    return any(len(found) > 1 for found in owners.values())


class TestOneWalkDifferential:
    """A membership query's constituents OR inside one range walk; the
    answer, the scans, the operations, the fetch order and the simulated
    clock all equal the per-constituent evaluation's."""

    CARDINALITY = 30

    def _queries(self):
        c = self.CARDINALITY
        return [
            *paper_mix(c, 12, seed=4),
            MembershipQuery.of({0, 1, 2, 4, 6, 7, 8, 12, 14, 20, 21, 25, 29}, c),
            MembershipQuery.of(set(range(c)), c),
            MembershipQuery.of({7}, c),
            IntervalQuery(3, 20, c, negated=True),
        ]

    @pytest.mark.parametrize("path", ["component-wise", "query-wise", "scheduled", "shared"])
    @pytest.mark.parametrize("bases", [(30,), (5, 6), (2, 3, 5)])
    @pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
    def test_matches_naive_scan_and_per_constituent_accounting(self, scheme, bases, path):
        rng = np.random.default_rng(17)
        values = rng.integers(0, self.CARDINALITY, size=777)
        index = BitmapIndex.build(
            values,
            IndexSpec(cardinality=self.CARDINALITY, scheme=scheme, bases=bases, codec="raw"),
        )
        shared_subtrees = 0
        for query in self._queries():
            if isinstance(query, MembershipQuery):
                constituents = index.rewriter.rewrite_membership(query)
            else:
                constituents = [index.rewriter.rewrite_interval(query)]
            shared_subtrees += _shares_subtree(constituents)
            expected = BitVector.from_bools(query.matches(values))
            for buffer_pages in (None, 2):
                strategy = "component-wise" if path == "shared" else path
                ref_cache = {} if path == "shared" else None
                ref_answer, ref_stats, ref_clock = _per_constituent(
                    index, constituents, strategy, buffer_pages, ref_cache
                )
                assert ref_answer == expected
                clock = CostClock()
                engine = index.engine(buffer_pages=buffer_pages, clock=clock, strategy=strategy)
                if path == "shared":
                    cache: dict = {}
                    for key in component_order(ref_cache):
                        cache[key] = engine.pool.fetch(key)
                    stats = EvalStats()
                    answer = engine.evaluate_shared(constituents, cache, stats)
                else:
                    result = engine.execute(query)
                    answer, stats = result.bitmap, result.stats
                assert answer == expected, (query, buffer_pages)
                assert answer.words.flags.writeable
                assert stats.scans == ref_stats.scans
                assert stats.operations == ref_stats.operations
                assert stats.fetched_keys == ref_stats.fetched_keys
                assert clock.total_ms == ref_clock.total_ms
                assert clock.pages_read == ref_clock.pages_read
        if len(bases) > 1:
            assert shared_subtrees, "no query exercised shared subtrees"

    @pytest.mark.parametrize("scheme, bases", [("I", (30,)), ("R", (5, 6))])
    def test_several_word_ranges(self, scheme, bases):
        """Past one 256 KiB range, with a ragged tail word."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, self.CARDINALITY, size=64 * BLOCK_WORDS + 65)
        index = BitmapIndex.build(
            values,
            IndexSpec(cardinality=self.CARDINALITY, scheme=scheme, bases=bases, codec="raw"),
        )
        query = MembershipQuery.of({0, 1, 2, 4, 6, 7, 8, 12, 14, 20, 21, 25, 29}, 30)
        constituents = index.rewriter.rewrite_membership(query)
        ref_answer, ref_stats, ref_clock = _per_constituent(
            index, constituents, "component-wise", None
        )
        clock = CostClock()
        result = index.engine(clock=clock).execute(query)
        assert result.bitmap == ref_answer == BitVector.from_bools(query.matches(values))
        assert result.stats.operations == ref_stats.operations
        assert result.stats.fetched_keys == ref_stats.fetched_keys
        assert clock.total_ms == ref_clock.total_ms
