"""Naive-scan differential suite for :func:`repro.expr.evaluate`.

The one decoded evaluator must agree with a per-row boolean evaluation
of the tree (numpy boolean arrays, no words, no ranges) on random
And/Or/Xor/Not/Const/Threshold trees — thresholds with ``k > n`` and
repeated subtrees included.  Each case also checks the contract the
cost model rests on: padding bits are zero, leaves are fetched once in
first-touch depth-first order, ``operations`` is the memoized logical
count, and a bare leaf evaluates to the fetched vector itself.

Lengths straddle the word and range edges: 0, 1, 63, 64, 65,
``64 * BLOCK_WORDS +- 1`` bits (the one-range edge) and
``128 * BLOCK_WORDS + 1`` (three ranges, ragged tail).  The engine test
drives every scheme's rewrite output through the three strategies and
checks their fetch orders.  (The module keeps its historical name and
test names, from when it compared a fused and a materializing
evaluator.)
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bitmap import BitVector
from repro.compress import get_codec
from repro.expr import EvalStats, Threshold, evaluate, expression_operation_count
from repro.expr.evaluator import BLOCK_WORDS
from repro.expr.nodes import And, Const, Leaf, Not, Or, Xor, leaf, one, zero
from repro.index import BitmapIndex, IndexSpec
from repro.index.evaluation import schedule_constituents
from repro.queries.model import IntervalQuery, MembershipQuery

CODEC_NAMES = ("raw", "bbc", "wah", "ewah", "roaring")
SCHEME_NAMES = ("E", "R", "I", "ER", "O", "EI", "EI*")
KEYS = ("a", "b", "c", "d")

RANGE_BITS = BLOCK_WORDS * 64
BOUNDARY_LENGTHS = (
    0, 1, 63, 64, 65, RANGE_BITS - 1, RANGE_BITS + 1, 2 * RANGE_BITS + 1
)
#: Codec round trips are slow at range-sized lengths; codec edges are
#: word, byte, 31-bit-group and roaring-container ones.
CODEC_LENGTHS = (1, 63, 64, 65, 1000, 2**16 + 1)

densities = st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0])
seeds = st.integers(min_value=0, max_value=3)


def expression_trees():
    leaves = st.sampled_from([leaf(k) for k in KEYS] + [one(), zero()])

    def grow(child):
        pairs = st.tuples(child, child)
        return st.one_of(
            child.map(lambda c: ~c),
            pairs.map(lambda ab: ab[0] & ab[1]),
            pairs.map(lambda ab: ab[0] | ab[1]),
            pairs.map(lambda ab: ab[0] ^ ab[1]),
            child.map(lambda c: c | ~c),  # a repeated subtree
            st.lists(child, min_size=1, max_size=4).flatmap(
                lambda cs: st.integers(1, len(cs) + 1).map(  # k > n too
                    lambda k: Threshold(k, tuple(cs))
                )
            ),
        )

    return st.recursive(leaves, grow, max_leaves=8)


def negated_child_thresholds():
    """Thresholds whose children mix plain and NOT-wrapped leaves."""
    children = st.lists(
        st.sampled_from([leaf(k) for k in KEYS] + [~leaf(k) for k in KEYS]),
        min_size=2,
        max_size=6,
    ).filter(lambda cs: any(isinstance(c, Not) for c in cs))
    return children.flatmap(
        lambda cs: st.integers(1, len(cs)).map(lambda k: Threshold(k, tuple(cs)))
    )


@lru_cache(maxsize=16)
def random_bitmaps(length: int, density: float, seed: int):
    rng = np.random.default_rng(seed)
    return {
        key: BitVector.from_bools(rng.random(length) < density) for key in KEYS
    }


def naive(expr, bitmaps, length) -> np.ndarray:
    """Reference semantics on plain boolean arrays, row by row."""
    if isinstance(expr, Leaf):
        return bitmaps[expr.key].to_bools()
    if isinstance(expr, Const):
        return np.full(length, bool(expr.value))
    if isinstance(expr, Not):
        return ~naive(expr.child, bitmaps, length)
    parts = [naive(child, bitmaps, length) for child in expr.children()]
    if isinstance(expr, Threshold):
        return np.sum(parts, axis=0, dtype=np.int64) >= expr.k
    op = {And: np.logical_and, Or: np.logical_or, Xor: np.logical_xor}[type(expr)]
    result = parts[0]
    for part in parts[1:]:
        result = op(result, part)
    return result


def first_touch_keys(expr) -> list:
    """Leaf keys in depth-first first-touch order."""
    return list(dict.fromkeys(node.key for node in expr.leaves()))


def check_evaluate(expr, bitmaps, length):
    """Every contract of one evaluation, against the naive oracle."""
    fetches = []

    def fetch(key):
        fetches.append(key)
        return bitmaps[key]

    stats = EvalStats()
    result = evaluate(expr, fetch, length, stats)
    assert len(result) == length
    assert result.to_bools().tolist() == naive(expr, bitmaps, length).tolist()
    if length % 64:
        assert int(result.words[-1]) >> (length % 64) == 0, "padding bits set"
    assert fetches == stats.fetched_keys == first_touch_keys(expr)
    assert stats.scans == len(fetches)
    assert stats.operations == expression_operation_count(expr)
    if isinstance(expr, Leaf):
        assert result is bitmaps[expr.key]
    return result


@given(
    expr=expression_trees(),
    length=st.sampled_from(BOUNDARY_LENGTHS),
    density=densities,
    seed=seeds,
)
@settings(max_examples=80, deadline=None)
def test_fused_matches_materializing_and_naive(expr, length, density, seed):
    check_evaluate(expr, random_bitmaps(length, density, seed), length)


@given(
    expr=negated_child_thresholds(),
    length=st.sampled_from(BOUNDARY_LENGTHS),
    density=densities,
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_fused_threshold_with_negated_children(expr, length, density, seed):
    """Complemented children counted per range: the nodes ``simplify``
    refuses to touch, checked only here."""
    check_evaluate(expr, random_bitmaps(length, density, seed), length)


def decoded_from(codec, bitmaps, length):
    """The bitmaps round-tripped through ``codec`` (read-only views
    where the codec decodes zero-copy)."""
    impl = get_codec(codec)
    return {
        key: impl.decode_view(impl.encode(vector), length)
        for key, vector in bitmaps.items()
    }


@pytest.mark.parametrize("codec", CODEC_NAMES)
@given(
    expr=expression_trees(),
    length=st.sampled_from(CODEC_LENGTHS),
    density=densities,
    seed=seeds,
)
@settings(max_examples=15, deadline=None)
def test_streamed_leaves_match_all_codecs(codec, expr, length, density, seed):
    bitmaps = decoded_from(codec, random_bitmaps(length, density, seed), length)
    check_evaluate(expr, bitmaps, length)


@pytest.mark.parametrize("codec", CODEC_NAMES)
@given(
    expr=negated_child_thresholds(),
    length=st.sampled_from(CODEC_LENGTHS),
    density=densities,
    seed=seeds,
)
@settings(max_examples=10, deadline=None)
def test_streamed_threshold_negated_children(codec, expr, length, density, seed):
    bitmaps = decoded_from(codec, random_bitmaps(length, density, seed), length)
    check_evaluate(expr, bitmaps, length)


INDEX_RECORDS = 5_000 + 17
INDEX_CARDINALITY = 12


@pytest.fixture(scope="module")
def scheme_indexes():
    values = np.random.default_rng(7).integers(0, INDEX_CARDINALITY, INDEX_RECORDS)
    indexes = {
        scheme: BitmapIndex.build(
            values, IndexSpec(cardinality=INDEX_CARDINALITY, scheme=scheme)
        )
        for scheme in SCHEME_NAMES
    }
    return values, indexes


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_engine_modes_agree_per_scheme(scheme_indexes, scheme, data):
    """Every strategy answers like a naive scan, fetching in its order:
    component-wise prefetches each distinct key once, query-wise and
    scheduled fetch each constituent's leaves in first-touch order."""
    values, indexes = scheme_indexes
    index = indexes[scheme]
    lo = data.draw(st.integers(0, INDEX_CARDINALITY - 1), label="lo")
    hi = data.draw(st.integers(lo, INDEX_CARDINALITY - 1), label="hi")
    members = data.draw(
        st.frozensets(st.integers(0, INDEX_CARDINALITY - 1), min_size=1, max_size=5),
        label="members",
    )
    query = MembershipQuery(members, INDEX_CARDINALITY)
    constituents = index.rewriter.rewrite_membership(query)
    orders = {
        "query-wise": constituents,
        "scheduled": schedule_constituents(constituents),
    }
    for q in (IntervalQuery(lo, hi, INDEX_CARDINALITY), query):
        expected = BitVector.from_bools(q.matches(values))
        for strategy in ("component-wise", "query-wise", "scheduled"):
            result = index.query(q, strategy=strategy)
            assert result.bitmap == expected, (strategy, str(q))
    for strategy, order in orders.items():
        result = index.query(query, strategy=strategy)
        assert result.stats.fetched_keys == [
            key for expr in order for key in first_touch_keys(expr)
        ], strategy
