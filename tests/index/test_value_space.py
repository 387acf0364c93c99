"""Value-space evaluation against row space on the same stored bitmaps.

An index sorted on its one column keeps its reordering as codes and is
evaluated value by value (:meth:`BitmapIndex.value_probe`): each bitmap
is read at one stored row per value and the answer is rebuilt from the
codes.  The same bitmaps under the permutation form of that reordering
are evaluated over whole rows.  Answers, ``EvalStats``, ``CostClock``,
``BufferStats`` and pool pages must be identical, under either cost
convention, and answers must equal a naive scan.
"""

import numpy as np
import pytest

from repro.compress import COMPRESSED_DOMAIN_CODECS, available_codecs
from repro.encoding import ALL_SCHEME_NAMES, EXTENDED_SCHEME_NAMES
from repro.expr import EvalStats, compile_query
from repro.expr.nodes import And, Const, Not, Or, leaf
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.sharded import ShardedConfig, ShardedQueryService
from repro.table.reorder import RowReordering

STRATEGIES = ("component-wise", "query-wise", "scheduled")
#: The default pool, and one that evicts on nearly every fetch.
POOLS = (None, 2)


def skewed(rng, cardinality, size):
    return (rng.zipf(1.4, size) - 1) % cardinality


def twins(values, spec):
    """The codes-form index and a row-space twin over the same layout."""
    index = BitmapIndex.build(values, spec)
    reordering = index.reordering
    twin = BitmapIndex.build(
        values,
        spec,
        reordering=RowReordering(
            reordering.permutation, reordering.num_sorted, reordering.strategy
        ),
    )
    assert index.value_probe() is not None and twin.value_probe() is None
    return index, twin


def query_mix(rng, cardinality, count=10):
    """Interval (plain, negated, full domain), membership and threshold
    queries: the rewrites contain NOT and Const nodes."""
    out = [IntervalQuery(0, cardinality - 1, cardinality)]
    for _ in range(count):
        low = int(rng.integers(0, cardinality))
        high = int(rng.integers(low, cardinality))
        out.append(IntervalQuery(low, high, cardinality, bool(rng.random() < 0.4)))
        size = int(rng.integers(1, min(cardinality, 5) + 1))
        out.append(
            MembershipQuery.of(rng.choice(cardinality, size, replace=False), cardinality)
        )
    out.append(ThresholdQuery.of(2, out[1:4]))
    return out


def assert_engines_agree(index, twin, values, queries, **engine_kwargs):
    engine, other = QueryEngine(index, **engine_kwargs), QueryEngine(twin, **engine_kwargs)
    for query in queries:
        got, expected = engine.execute(query), other.execute(query)
        assert got.bitmap == expected.bitmap
        assert np.array_equal(got.bitmap.to_bools(), query.matches(values))
        assert got.bitmap.words.flags.writeable
        assert (got.stats.scans, got.stats.operations, got.stats.fetched_keys) == (
            expected.stats.scans,
            expected.stats.operations,
            expected.stats.fetched_keys,
        )
        assert got.simulated_ms == expected.simulated_ms
    assert engine.clock.total_ms == other.clock.total_ms
    assert engine.clock.pages_read == other.clock.pages_read
    assert engine.buffer_stats == other.buffer_stats
    assert engine.pool.used_pages == other.pool.used_pages


@pytest.mark.parametrize("cardinality", [2, 7, 50, 200])
@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES + EXTENDED_SCHEME_NAMES)
def test_value_space_equals_row_space(scheme, cardinality):
    rng = np.random.default_rng(cardinality)
    values = skewed(rng, cardinality, 1500)
    spec = IndexSpec(cardinality, scheme, codec="wah", reorder="lexicographic")
    index, twin = twins(values, spec)
    queries = query_mix(rng, cardinality, count=4)
    for buffer_pages in POOLS:
        for strategy in STRATEGIES:
            assert_engines_agree(
                index, twin, values, queries, buffer_pages=buffer_pages, strategy=strategy
            )


@pytest.mark.parametrize("codec", available_codecs())
def test_every_codec_probes_like_it_decodes(codec):
    rng = np.random.default_rng(5)
    values = skewed(rng, 30, 2000)
    index, twin = twins(values, IndexSpec(30, "E", codec=codec, reorder="lexicographic"))
    for buffer_pages in POOLS:
        assert_engines_agree(
            index, twin, values, query_mix(rng, 30), buffer_pages=buffer_pages
        )


@pytest.mark.parametrize("scheme", ["E", "R", "I"])
@pytest.mark.parametrize("codec", sorted(COMPRESSED_DOMAIN_CODECS))
def test_compressed_convention_probes_like_row_space(codec, scheme):
    """Each probed entry is charged as the decoded copy it stands in for
    (or, without room for one, as its uncharged stream), and every node
    its operands' encoded bytes, as in row space."""
    rng = np.random.default_rng(8)
    values = skewed(rng, 30, 2000)
    index, twin = twins(values, IndexSpec(30, scheme, codec=codec, reorder="lexicographic"))
    for buffer_pages in POOLS:
        assert_engines_agree(
            index, twin, values, query_mix(rng, 30), buffer_pages=buffer_pages,
            engine="compressed",
        )


def test_hand_built_expressions_with_not_and_const():
    rng = np.random.default_rng(9)
    values = skewed(rng, 9, 700)
    index, twin = twins(values, IndexSpec(9, "E", codec="wah", reorder="lexicographic"))
    a, b = (0, 2), (0, 5)
    expressions = [
        Const(True),
        Const(False),
        Not(leaf(a)),
        And((Const(True), Not(leaf(b)))),
        Or((Const(False), leaf(a), Not(And((leaf(a), leaf(b)))))),
    ]
    engine, other = index.engine(), twin.engine()
    for expr in expressions:
        got_stats, expected_stats = EvalStats(), EvalStats()
        got = engine.evaluate_shared(compile_query([expr]), {}, got_stats)
        assert got == other.evaluate_shared(compile_query([expr]), {}, expected_stats)
        assert got_stats == expected_stats
    assert engine.clock.total_ms == other.clock.total_ms
    assert engine.buffer_stats == other.buffer_stats


@pytest.mark.parametrize("buffer_pages", POOLS)
def test_appends_move_the_probe_positions(buffer_pages):
    """``BitmapIndex.append`` extends the reordering: values first seen
    in a batch get probe positions past the sorted prefix."""
    rng = np.random.default_rng(2)
    values = skewed(rng, 40, 900) % 20  # values 20..39 arrive only later
    index, twin = twins(values, IndexSpec(40, "I", codec="wah", reorder="lexicographic"))
    engine, other = index.engine(buffer_pages=buffer_pages), twin.engine(
        buffer_pages=buffer_pages
    )
    queries = query_mix(rng, 40)
    for step in range(3):
        batch = skewed(rng, 40, 150 + step)
        index.append(batch)
        twin.append(batch)
        values = np.concatenate([values, batch])
        for query in queries:
            got, expected = engine.execute(query), other.execute(query)
            assert got.bitmap == expected.bitmap
            assert np.array_equal(got.bitmap.to_bools(), query.matches(values))
            assert got.stats.fetched_keys == expected.stats.fetched_keys
    assert index.value_probe()[0].size == 40
    assert engine.clock.total_ms == other.clock.total_ms
    assert engine.buffer_stats == other.buffer_stats


def test_sharded_service_with_appends_and_compaction():
    rng = np.random.default_rng(4)
    cardinality = 60
    values = skewed(rng, cardinality, 3000)
    spec = IndexSpec(cardinality, "I", codec="wah", reorder="lexicographic")
    config = ShardedConfig(shards=2, transport="inline", segment_size=128, cache_entries=0)
    queries = query_mix(rng, cardinality)
    with ShardedQueryService(values, spec, config) as service:
        for _ in range(6):
            batch = skewed(rng, cardinality, 300)
            service.append(batch)
            values = np.concatenate([values, batch])
            for query, result in zip(queries, service.execute_many(queries)):
                assert np.array_equal(result.bitmap.to_bools(), query.matches(values))
        service.metrics_snapshot()  # refreshes each shard's segment count
        info = service.shard_info()
        # Compaction ran: fewer segments than ``segment_size`` tails.
        assert any(s["num_segments"] < -(-s["num_records"] // 128) for s in info), info
