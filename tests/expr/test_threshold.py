"""Differential oracle suite for the threshold (k-of-N) algebra.

Three independent answers must agree bit-for-bit:

* ``Threshold(k, ...)`` through the real evaluators — materializing,
  compressed-domain multiway kernel per codec, and the index engines;
* the **naive count scan** — numpy integer counts per row, no bitmaps;
* the **OR/AND-chain expansion** — ``k = 1`` as a pairwise OR fold,
  ``k = N`` as a pairwise AND fold, and general ``k`` (small N) as the
  full OR-of-AND-subsets blowup the threshold node exists to avoid.

The sweeps cover every registered codec x 7 schemes, ``k in {1, 2, N-1, N}``
with N up to 32, and lengths straddling the counting-block and roaring
container boundaries (block +/- 1 word, 2^16 +/- 1).  The suite also
pins the helper algebra (``at_least``/``exactly``/``majority``,
``lower_wide_ors``) and the two deliberate ``simplify`` non-rewrites:
no child deduplication (multiset semantics) and no rewriting of
children that contain NOT nodes.
"""

from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import COMPRESSED_DOMAIN_CODECS, available_codecs, get_codec
from repro.compress.multiway import multiway_threshold, threshold_vectors
from repro.encoding import ALL_SCHEME_NAMES
from repro.errors import BitmapError, QueryError
from repro.expr import (
    Threshold,
    at_least,
    evaluate,
    evaluate_fused,
    exactly,
    expression_operation_count,
    lower_wide_ors,
    majority,
    simplify,
)
from repro.expr.fused import MIN_BLOCK_WORDS
from repro.expr.nodes import And, Const, Leaf, Not, Or, leaf, one, zero
from repro.index import BitmapIndex, CompressedQueryEngine, IndexSpec
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery

#: Every registered codec / every one with compressed-domain operations.
CODEC_NAMES = available_codecs()
COMPRESSED_CODECS = sorted(COMPRESSED_DOMAIN_CODECS)

#: Counting-block edges (the multiway kernel runs at ``block_words``
#: words per window; 32 words = 2048 bits here), roaring container
#: edges, and word edges.
TEST_BLOCK_WORDS = 32
BLOCK_BITS = TEST_BLOCK_WORDS * 64
BOUNDARY_LENGTHS = sorted(
    {1, 63, 64, 65, 1000}
    | {BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1}
    | {2 * BLOCK_BITS - 64, 2 * BLOCK_BITS + 64}
    | {2**16 - 1, 2**16, 2**16 + 1}
)

lengths = st.sampled_from(BOUNDARY_LENGTHS)
densities = st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0])


def interesting_ks(n: int) -> list[int]:
    """The issue's k sweep: {1, 2, N-1, N} clamped into [1, N]."""
    return sorted({1, min(2, n), max(1, n - 1), n})


def random_vectors(n: int, length: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    return [
        BitVector.from_bools(rng.random(length) < density) for _ in range(n)
    ]


def naive_count_scan(k: int, vectors) -> np.ndarray:
    """Oracle 1: per-row integer counting over plain boolean arrays."""
    counts = np.zeros(len(vectors[0]), dtype=np.int64)
    for vector in vectors:
        counts += vector.to_bools()
    return counts >= k


def chain_expansion(k: int, children):
    """Oracle 2: the OR-of-AND-subsets blowup, as pairwise chains."""
    terms = [
        reduce(lambda a, b: a & b, subset)
        for subset in combinations(children, k)
    ]
    return reduce(lambda a, b: a | b, terms)


class TestKernelDifferential:
    """threshold kernels == naive count scan, every codec x boundary."""

    @pytest.mark.parametrize("codec", COMPRESSED_CODECS)
    @given(
        n=st.integers(min_value=1, max_value=32),
        length=lengths,
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=20, deadline=None)
    def test_multiway_threshold_matches_naive(
        self, codec, n, length, density, seed
    ):
        vectors = random_vectors(n, length, density, seed)
        payloads = [get_codec(codec).encode(v) for v in vectors]
        for k in interesting_ks(n):
            result = multiway_threshold(
                k, codec, payloads, length, block_words=TEST_BLOCK_WORDS
            )
            oracle = naive_count_scan(k, vectors)
            assert result.to_bools().tolist() == oracle.tolist(), (codec, k)

    @given(
        n=st.integers(min_value=1, max_value=32),
        length=lengths,
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_threshold_vectors_matches_naive(self, n, length, density, seed):
        vectors = random_vectors(n, length, density, seed)
        for k in interesting_ks(n):
            result = threshold_vectors(k, vectors)
            oracle = naive_count_scan(k, vectors)
            assert result.to_bools().tolist() == oracle.tolist(), k


class TestChainExpansionOracle:
    """Threshold node == the expanded OR/AND chain, evaluated for real."""

    @given(
        n=st.integers(min_value=2, max_value=32),
        length=st.sampled_from([65, 1000, BLOCK_BITS + 1]),
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_or_and_chain_ends(self, n, length, density, seed):
        """k=1 is the OR chain, k=N the AND chain, at any width."""
        vectors = random_vectors(n, length, density, seed)
        bitmaps = {i: v for i, v in enumerate(vectors)}
        children = [leaf(i) for i in range(n)]
        for k, chain in (
            (1, reduce(lambda a, b: a | b, children)),
            (n, reduce(lambda a, b: a & b, children)),
        ):
            node = Threshold(k, tuple(children))
            assert evaluate(node, bitmaps.get, length) == evaluate(
                chain, bitmaps.get, length
            ), k

    @given(
        n=st.integers(min_value=2, max_value=6),
        length=st.sampled_from([63, 100, 1000]),
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_general_k_subset_expansion(self, n, length, density, seed):
        """Every k against the full OR-of-AND-subsets expansion."""
        vectors = random_vectors(n, length, density, seed)
        bitmaps = {i: v for i, v in enumerate(vectors)}
        children = [leaf(i) for i in range(n)]
        for k in range(1, n + 1):
            node = Threshold(k, tuple(children))
            expanded = chain_expansion(k, children)
            got = evaluate(node, bitmaps.get, length)
            assert got == evaluate(expanded, bitmaps.get, length), k
            assert got == evaluate_fused(
                node, bitmaps.get, length, block_words=MIN_BLOCK_WORDS
            ), k


# Small per-(scheme, codec) indexes for the engine-level sweep.
INDEX_RECORDS = 403  # not word-aligned, crosses several segments
INDEX_CARDINALITY = 9


@pytest.fixture(scope="module")
def matrix_indexes():
    rng = np.random.default_rng(31)
    values = rng.integers(0, INDEX_CARDINALITY, INDEX_RECORDS)
    indexes = {}
    for scheme in ALL_SCHEME_NAMES:
        for codec in CODEC_NAMES:
            spec = IndexSpec(
                cardinality=INDEX_CARDINALITY, scheme=scheme, codec=codec
            )
            indexes[scheme, codec] = BitmapIndex.build(values, spec)
    return values, indexes


def draw_threshold_query(data) -> ThresholdQuery:
    n = data.draw(st.integers(2, 6), label="n")
    predicates = []
    for i in range(n):
        if data.draw(st.booleans(), label=f"interval{i}"):
            lo = data.draw(st.integers(0, INDEX_CARDINALITY - 1), label=f"lo{i}")
            hi = data.draw(st.integers(lo, INDEX_CARDINALITY - 1), label=f"hi{i}")
            predicates.append(IntervalQuery(lo, hi, INDEX_CARDINALITY))
        else:
            members = data.draw(
                st.frozensets(
                    st.integers(0, INDEX_CARDINALITY - 1),
                    min_size=1,
                    max_size=4,
                ),
                label=f"members{i}",
            )
            predicates.append(MembershipQuery(members, INDEX_CARDINALITY))
    k = data.draw(st.sampled_from(interesting_ks(n)), label="k")
    return ThresholdQuery.of(k, predicates)


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
@pytest.mark.parametrize("codec", CODEC_NAMES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_threshold_queries_all_schemes_and_codecs(
    matrix_indexes, scheme, codec, data
):
    """ThresholdQuery through every engine == the naive count scan."""
    values, indexes = matrix_indexes
    index = indexes[scheme, codec]
    query = draw_threshold_query(data)
    oracle = query.matches(values)
    expected = BitVector.from_bools(oracle)

    materialized = index.query(query, fused=False)
    fused = index.query(query, fused=True, block_words=MIN_BLOCK_WORDS)
    assert materialized.bitmap == expected, (scheme, codec, str(query))
    assert fused.bitmap == expected, (scheme, codec, str(query))
    assert materialized.row_count == int(oracle.sum())

    if codec in COMPRESSED_DOMAIN_CODECS:
        compressed = CompressedQueryEngine(index).execute(query)
        assert compressed.bitmap == expected, (scheme, codec, str(query))


class TestHelpers:
    def test_at_least_degenerate_bounds(self):
        children = (leaf("a"), leaf("b"))
        assert at_least(0, children) == one()
        assert at_least(-3, children) == one()
        assert at_least(3, children) == zero()
        assert at_least(1, (leaf("a"),)) == leaf("a")
        assert at_least(2, children) == Threshold(2, children)

    def test_exactly_bounds(self):
        children = (leaf("a"), leaf("b"), leaf("c"))
        assert exactly(-1, children) == zero()
        assert exactly(4, children) == zero()
        assert exactly(3, children) == Threshold(3, children)
        assert exactly(0, children) == Not(Threshold(1, children))

    @given(
        n=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=0, max_value=9),
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=50, deadline=None)
    def test_exactly_and_majority_semantics(self, n, k, density, seed):
        length = 500
        vectors = random_vectors(n, length, density, seed)
        bitmaps = {i: v for i, v in enumerate(vectors)}
        children = [leaf(i) for i in range(n)]
        counts = np.zeros(length, dtype=np.int64)
        for vector in vectors:
            counts += vector.to_bools()
        got_exact = evaluate(exactly(k, children), bitmaps.get, length)
        assert got_exact.to_bools().tolist() == (counts == k).tolist()
        got_major = evaluate(majority(children), bitmaps.get, length)
        assert got_major.to_bools().tolist() == (
            counts > n / 2
        ).tolist()

    def test_multiset_semantics_duplicate_counts_twice(self):
        x = leaf("x")
        vec = BitVector.from_bools(np.array([True, False, True]))
        node = Threshold(2, (x, x))
        assert evaluate(node, {"x": vec}.get, 3) == vec

    def test_constructor_validation(self):
        with pytest.raises(BitmapError):
            Threshold(1, ())
        with pytest.raises(BitmapError):
            Threshold(0, (leaf("a"),))


class TestLowerWideOrs:
    def test_wide_equal_cost_or_becomes_threshold(self):
        children = tuple(leaf(k) for k in "abcd")
        lowered = lower_wide_ors(Or(children))
        assert lowered == Threshold(1, children)

    def test_narrow_or_untouched(self):
        expr = Or((leaf("a"), leaf("b"), leaf("c")))
        assert lower_wide_ors(expr) == expr

    def test_unequal_cost_children_untouched(self):
        children = (leaf("a"), leaf("b"), leaf("c"), leaf("d") & leaf("e"))
        expr = Or(children)
        assert lower_wide_ors(expr) == expr

    def test_min_fanin_is_tunable(self):
        expr = Or((leaf("a"), leaf("b")))
        assert lower_wide_ors(expr, min_fanin=2) == Threshold(
            1, (leaf("a"), leaf("b"))
        )

    @given(
        length=st.sampled_from([100, 1000]),
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_lowering_preserves_semantics(self, length, density, seed):
        vectors = random_vectors(6, length, density, seed)
        bitmaps = {i: v for i, v in enumerate(vectors)}
        expr = And((Or(tuple(leaf(i) for i in range(5))), ~leaf(5)))
        lowered = lower_wide_ors(expr)
        assert lowered != expr  # the wide OR really was rewritten
        assert evaluate(lowered, bitmaps.get, length) == evaluate(
            expr, bitmaps.get, length
        )


class TestSimplifyRegression:
    """The two deliberate non-rewrites, plus constant folding."""

    def test_not_children_kept_verbatim(self):
        # A child containing NOT anywhere is not rewritten — not even
        # its double negation, which plain simplify would strip.
        child = Not(Not(leaf("a")))
        node = Threshold(2, (child, leaf("b"), leaf("c")))
        assert simplify(node) == node

    def test_nested_not_blocks_rewrite_too(self):
        child = And((leaf("a"), Not(leaf("b"))))
        node = Threshold(1, (child, leaf("c"), leaf("c")))
        simplified = simplify(node)
        assert isinstance(simplified, Threshold)
        assert simplified.operands[0] == child

    def test_duplicates_never_deduplicated(self):
        node = Threshold(2, (leaf("x"), leaf("x")))
        assert simplify(node) == node

    def test_true_child_decrements_k(self):
        node = Threshold(2, (Const(True), leaf("a"), leaf("b")))
        assert simplify(node) == Threshold(1, (leaf("a"), leaf("b")))

    def test_false_child_drops(self):
        node = Threshold(2, (Const(False), leaf("a"), leaf("b")))
        assert simplify(node) == Threshold(2, (leaf("a"), leaf("b")))

    def test_k_exhausted_by_constants_is_true(self):
        node = Threshold(2, (Const(True), Const(True), leaf("a")))
        assert simplify(node) == Const(True)

    def test_k_above_survivors_is_false(self):
        node = Threshold(3, (Const(False), leaf("a"), leaf("b")))
        assert simplify(node) == Const(False)

    def test_single_survivor_unwraps(self):
        node = Threshold(1, (Const(False), leaf("a")))
        assert simplify(node) == leaf("a")

    @given(
        n=st.integers(min_value=1, max_value=6),
        length=st.sampled_from([100, 1000]),
        density=densities,
        seed=st.integers(min_value=0, max_value=2**20),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_simplify_preserves_threshold_semantics(
        self, n, length, density, seed, data
    ):
        vectors = random_vectors(n, length, density, seed)
        bitmaps = {i: v for i, v in enumerate(vectors)}
        pool = (
            [leaf(i) for i in range(n)]
            + [~leaf(i) for i in range(n)]
            + [one(), zero()]
        )
        children = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=6),
            label="children",
        )
        k = data.draw(st.integers(1, len(children)), label="k")
        node = Threshold(k, tuple(children))
        assert evaluate(simplify(node), bitmaps.get, length) == evaluate(
            node, bitmaps.get, length
        )


class TestCostConvention:
    def test_threshold_counts_n_operations(self):
        node = Threshold(2, tuple(leaf(k) for k in "abcd"))
        assert expression_operation_count(node) == 4

    def test_nested_children_cost_included(self):
        inner = leaf("a") & leaf("b")  # 1 op
        node = Threshold(1, (inner, leaf("c"), leaf("d")))  # + 3 ops
        assert expression_operation_count(node) == 4


class TestThresholdQueryModel:
    def test_validation(self):
        p = IntervalQuery(0, 2, 8)
        with pytest.raises(QueryError):
            ThresholdQuery.of(1, [])
        with pytest.raises(QueryError):
            ThresholdQuery.of(0, [p])
        with pytest.raises(QueryError):
            ThresholdQuery.of(3, [p, p])
        with pytest.raises(QueryError):
            ThresholdQuery.of(1, [p, IntervalQuery(0, 1, 9)])
        with pytest.raises(QueryError):
            ThresholdQuery.of(1, [p, object()])

    def test_value_set_counts_multiplicity(self):
        p1 = IntervalQuery(0, 3, 8)
        p2 = IntervalQuery(2, 5, 8)
        query = ThresholdQuery.of(2, [p1, p2])
        assert query.value_set() == frozenset({2, 3})

    def test_str_and_class(self):
        query = ThresholdQuery.of(
            2, [IntervalQuery(0, 1, 8), MembershipQuery.of({5}, 8)]
        )
        assert query.query_class == "TH"
        assert str(query).startswith("AT-LEAST-2 OF (")
