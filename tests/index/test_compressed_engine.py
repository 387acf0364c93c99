"""Tests for the compressed-domain query engine."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS
from repro.errors import QueryError
from repro.expr import EvalStats, compile_query
from repro.expr.nodes import And, Const, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.queries import IntervalQuery, MembershipQuery
from repro.storage import CostClock
from repro.storage.pages import pages_for
from repro.workload import zipf_column

#: Every codec the engine accepts, including ``auto`` and the
#: list codecs registered on import.
ENGINE_CODECS = sorted(COMPRESSED_DOMAIN_CODECS)


@pytest.fixture(scope="module")
def index_and_values():
    values = zipf_column(8000, 50, 2.0, seed=9)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=50, scheme="I", bases=(7, 8), codec="ewah")
    )
    return index, values


class TestCorrectness:
    def test_requires_compressed_domain_codec(self, rng):
        values = rng.integers(0, 10, size=100)
        index = BitmapIndex.build(
            values, IndexSpec(cardinality=10, scheme="I", codec="raw")
        )
        with pytest.raises(QueryError, match="compressed-domain"):
            QueryEngine(index, engine="compressed")

    @pytest.mark.parametrize("codec", ENGINE_CODECS)
    def test_all_compressed_domain_codecs_agree(self, rng, codec):
        values = rng.integers(0, 10, size=400)
        index = BitmapIndex.build(
            values, IndexSpec(cardinality=10, scheme="I", codec=codec)
        )
        engine = QueryEngine(index, engine="compressed")
        for query in (
            IntervalQuery(2, 7, 10),
            MembershipQuery.of({0, 3, 9}, 10),
        ):
            result = engine.execute(query)
            assert result.row_count == int(query.matches(values).sum())

    def test_interval_queries_match_standard_engine(self, index_and_values):
        index, values = index_and_values
        compressed = QueryEngine(index, engine="compressed")
        standard = index.engine()
        for low, high in [(0, 0), (5, 20), (0, 30), (44, 49), (17, 17)]:
            query = IntervalQuery(low, high, 50)
            assert compressed.execute(query).bitmap == (
                standard.execute(query).bitmap
            ), (low, high)

    def test_membership_queries_match(self, index_and_values):
        index, values = index_and_values
        engine = QueryEngine(index, engine="compressed")
        query = MembershipQuery.of({1, 2, 3, 20, 33, 34}, 50)
        result = engine.execute(query)
        assert result.row_count == int(query.matches(values).sum())
        assert result.strategy == "compressed-domain"

    def test_scan_accounting(self, index_and_values):
        index, _ = index_and_values
        engine = QueryEngine(index, engine="compressed")
        result = engine.execute(IntervalQuery(5, 20, 50))
        assert result.stats.scans == len(set(result.stats.fetched_keys))
        assert result.stats.scans >= 1


class TestAccounting:
    def test_only_final_answer_decoded(self, index_and_values):
        index, _ = index_and_values
        clock = CostClock()
        engine = QueryEngine(index, engine="compressed", clock=clock)
        engine.execute(IntervalQuery(5, 20, 50))
        # Operand fetches are never decoded; the standard engine
        # decompresses every fetched bitmap.
        standard_clock = CostClock()
        index.engine(clock=standard_clock).execute(IntervalQuery(5, 20, 50))
        assert clock.bytes_decompressed < standard_clock.bytes_decompressed

    def test_cpu_cheaper_on_compressible_data(self):
        # Highly skewed data -> tiny payloads -> compressed-domain CPU
        # must be far below the standard engine's.
        values = zipf_column(20_000, 50, 3.0, seed=3)
        index = BitmapIndex.build(
            values, IndexSpec(cardinality=50, scheme="E", codec="ewah")
        )
        query = MembershipQuery.of({1, 2, 3, 4, 10, 11}, 50)

        compressed_clock = CostClock()
        QueryEngine(index, engine="compressed", clock=compressed_clock).execute(query)
        standard_clock = CostClock()
        index.engine(clock=standard_clock).execute(query)
        assert compressed_clock.cpu_ms < standard_clock.cpu_ms

    def test_payload_pool_hits(self, index_and_values):
        index, _ = index_and_values
        engine = QueryEngine(index, engine="compressed")
        engine.execute(IntervalQuery(5, 20, 50))
        misses = engine.buffer_stats.misses
        engine.execute(IntervalQuery(5, 20, 50))
        assert engine.buffer_stats.misses == misses
        assert engine.buffer_stats.hits > 0

    def test_clear_drops_payloads_and_copies(self, index_and_values):
        index, _ = index_and_values
        engine = QueryEngine(index, engine="compressed")
        query = IntervalQuery(5, 20, 50)
        engine.execute(query)
        assert engine.pool.used_pages > 0
        engine.pool.clear()
        assert engine.pool.used_pages == 0
        misses = engine.buffer_stats.misses
        engine.execute(query)
        assert engine.buffer_stats.misses > misses

    def test_tiny_pool_still_correct(self, index_and_values):
        index, values = index_and_values
        engine = QueryEngine(index, engine="compressed", buffer_pages=1)
        query = IntervalQuery(3, 40, 50)
        assert engine.execute(query).row_count == int(
            query.matches(values).sum()
        )


DIFF_CARDINALITY = 9
#: Roaring chunk edges and the engine's default block window (2048 words).
DIFF_LENGTHS = [2**16 - 1, 2**16 + 1, 2048 * 64 - 1, 2048 * 64 + 1]


@lru_cache(maxsize=None)
def _diff_values(length: int) -> np.ndarray:
    """Runs of mid-frequency values plus one sparse value, so ``auto``
    mixes run-length, container and list inner codecs."""
    rng = np.random.default_rng(length)
    runs = rng.geometric(1 / 40, size=length)
    values = np.repeat(rng.integers(0, DIFF_CARDINALITY - 1, size=length), runs)
    values = values[:length]
    values[rng.random(length) < 0.0005] = DIFF_CARDINALITY - 1
    return values


#: Payload-pool regimes: the default pool holds every leaf encoded and
#: decoded (nodes run on words); ``no_decoded`` is smaller than one
#: decoded bitmap, so no copy ever fits and nodes stream their leaves.
POOLS = ["default", "no_decoded"]


def _pool_pages(pool: str, length: int) -> int | None:
    if pool == "default":
        return None
    # One page smaller than a decoded bitmap, and a pool has one page at least.
    return max(1, pages_for(8 * -(-length // 64)) - 1)


@lru_cache(maxsize=None)
def _diff_index(codec: str, reorder: str, length: int) -> BitmapIndex:
    return BitmapIndex.build(
        _diff_values(length),
        IndexSpec(
            cardinality=DIFF_CARDINALITY, scheme="E", codec=codec,
            reorder=reorder,
        ),
    )


@lru_cache(maxsize=None)
def _diff_engine(
    codec: str, reorder: str, length: int, pool: str
) -> QueryEngine:
    return QueryEngine(
        _diff_index(codec, reorder, length),
        buffer_pages=_pool_pages(pool, length),
        engine="compressed",
    )


def _or3(a, b, c):
    return Or((Leaf((0, a)), Leaf((0, b)), Leaf((0, c))))


#: Constituent lists whose decoded (multi-way) intermediates meet every
#: operand kind: a word NOT, a compressed leaf on either side, threshold
#: counting, constants and the constituent combine.
DECODED_INTERMEDIATE_CASES = {
    "not_of_multiway": [Not(_or3(0, 1, 2))],
    "and_multiway_leaf": [And((_or3(0, 1, 3), Leaf((0, 3))))],
    "and_leaf_multiway": [And((Leaf((0, 4)), _or3(3, 4, 5)))],
    "xor_multiway_leaf": [Xor((_or3(0, 1, 2), Leaf((0, 2))))],
    "xor_multiway_multiway": [Xor((_or3(0, 1, 2), _or3(2, 3, 8)))],
    "threshold_of_multiways": [
        Threshold(2, (_or3(0, 1, 2), _or3(2, 3, 4), _or3(4, 5, 0)))
    ],
    "threshold_mixed": [
        Threshold(2, (_or3(0, 1, 2), Leaf((0, 1)), Not(Leaf((0, 2)))))
    ],
    "const_children": [
        Or((Const(False), Leaf((0, 1)), Leaf((0, 8)))),
        And((Const(True), Leaf((0, 5)))),
        Xor((Const(True), Not(Const(False)), Leaf((0, 6)))),
    ],
    "not_of_const": [Not(Const(True)), Not(Const(False))],
    "two_constituents_decoded_and_leaf": [_or3(0, 1, 2), Leaf((0, 5))],
    "two_constituents_both_decoded": [_or3(0, 1, 2), _or3(5, 6, 8)],
}


def _naive(expr, values: np.ndarray) -> np.ndarray:
    """Row-by-row truth of ``expr`` over the raw column (E-scheme keys)."""
    if isinstance(expr, Leaf):
        return values == expr.key[1]
    if isinstance(expr, Const):
        return np.full(len(values), expr.value)
    if isinstance(expr, Not):
        return ~_naive(expr.child, values)
    children = [_naive(child, values) for child in expr.children()]
    if isinstance(expr, Threshold):
        return np.sum(children, axis=0) >= expr.k
    op = {And: np.logical_and, Or: np.logical_or, Xor: np.logical_xor}
    return op[type(expr)].reduce(children)


class TestDecodedIntermediates:
    """Inner nodes over leaves read as decoded words or as streams; every
    consumer must agree with a naive scan of the column."""

    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("length", DIFF_LENGTHS)
    @pytest.mark.parametrize("reorder", ["none", "lexicographic"])
    @pytest.mark.parametrize("codec", ENGINE_CODECS)
    @pytest.mark.parametrize("case", sorted(DECODED_INTERMEDIATE_CASES))
    def test_matches_naive_scan(self, case, codec, reorder, length, pool):
        engine = _diff_engine(codec, reorder, length, pool)
        values = _diff_values(length)
        constituents = DECODED_INTERMEDIATE_CASES[case]
        with obs.observed() as o:
            bitmap = engine.evaluate_shared(compile_query(constituents), {}, EvalStats())
        want = np.logical_or.reduce([_naive(c, values) for c in constituents])
        # Word-level equality: padding bits past ``length`` must be clear.
        assert bitmap == BitVector.from_bools(want)
        # One count per leaf source: none without leaves, decoded
        # copies in the default pool, streams in one too small for them.
        paths = set(o.metrics.to_dict().get("compress.physical", {}))
        if case == "not_of_const":
            assert paths == set()
        elif pool == "default":
            assert paths == {"path=words"}
        else:
            assert paths == {"path=stream"}

    @pytest.mark.parametrize("pool", POOLS)
    @pytest.mark.parametrize("length", DIFF_LENGTHS)
    @pytest.mark.parametrize("reorder", ["none", "lexicographic"])
    @pytest.mark.parametrize("codec", ENGINE_CODECS)
    def test_queries_match_naive_scan(self, codec, reorder, length, pool):
        engine = _diff_engine(codec, reorder, length, pool)
        values = _diff_values(length)
        for query in (
            IntervalQuery(1, 6, DIFF_CARDINALITY),
            IntervalQuery(0, 2, DIFF_CARDINALITY),
            MembershipQuery.of({0, 1, 2, 5, 6, 7}, DIFF_CARDINALITY),
            MembershipQuery.of({1, 8}, DIFF_CARDINALITY),
        ):
            result = engine.execute(query)
            assert result.bitmap == BitVector.from_bools(query.matches(values))
            assert result.row_count == int(query.matches(values).sum())


class TestPhysicalChoice:
    """The words/stream choice moves no simulated charge, and an
    explicit ``buffer_pages`` bounds payloads and decoded copies
    together."""

    @pytest.mark.parametrize("codec", ENGINE_CODECS)
    def test_charges_identical_on_both_paths(self, codec):
        length = DIFF_LENGTHS[1]
        index = _diff_index(codec, "none", length)
        clocks, answers = [], []
        for pool in POOLS:
            clock = CostClock()
            engine = QueryEngine(
                index, buffer_pages=_pool_pages(pool, length), clock=clock,
                engine="compressed",
            )
            stats = EvalStats()
            answers.append([
                engine.evaluate_shared(compile_query(constituents), {}, stats)
                for constituents in DECODED_INTERMEDIATE_CASES.values()
            ] + [engine.execute(IntervalQuery(4, 4, DIFF_CARDINALITY)).bitmap])
            clocks.append((clock.words_operated, clock.cpu_ms,
                           clock.bytes_decompressed, stats.operations))
        assert clocks[0] == clocks[1]
        assert answers[0] == answers[1]

    def test_explicit_pool_bounds_payloads_and_copies(self):
        length = DIFF_LENGTHS[0]
        index = _diff_index("wah", "none", length)
        capacity = index.size_pages() + 2 * pages_for(8 * -(-length // 64))
        engine = QueryEngine(index, engine="compressed", buffer_pages=capacity)
        values = _diff_values(length)
        for low in range(DIFF_CARDINALITY - 1):
            for query in (
                IntervalQuery(low, low + 1, DIFF_CARDINALITY),
                MembershipQuery.of({low, 8}, DIFF_CARDINALITY),
            ):
                result = engine.execute(query)
                assert result.bitmap == BitVector.from_bools(query.matches(values))
                assert engine.pool.used_pages <= capacity


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scheme=st.sampled_from(["E", "R", "I", "EI*", "O"]),
    low_frac=st.floats(min_value=0, max_value=1),
    width_frac=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_compressed_engine_property(seed, scheme, low_frac, width_frac):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 24, size=300)
    index = BitmapIndex.build(
        values, IndexSpec(cardinality=24, scheme=scheme, codec="ewah")
    )
    low = int(low_frac * 23)
    high = min(23, low + int(width_frac * (23 - low)))
    query = IntervalQuery(low, high, 24)
    result = QueryEngine(index, engine="compressed").execute(query)
    assert result.row_count == int(query.matches(values).sum())
