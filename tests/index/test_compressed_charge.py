"""The compiled charge against the recursive charge it replaced.

:func:`~repro.expr.compile_query` flattens the compressed convention's
charge into a list of operator terms, read once per segment.  The
oracles below are the recursive charge and the per-constituent
operation count it replaced, kept verbatim in spirit: a closure walking
the constituents with a shared-subtree memo, and a seen-set walk per
constituent.  Over arbitrary expressions (shared subtrees, one-operand
``And``/``Or``, constants, nested ``Not`` and ``Threshold``, bare
leaves) every :class:`~repro.storage.CostClock` field, every
:class:`~repro.expr.EvalStats` field and the answer must match exactly,
under both pools of ``test_compressed_convention.py``: the default one,
which keeps every leaf decoded, and one too small for a decoded bitmap.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.expr import EvalStats, compile_query, evaluate
from repro.expr.nodes import And, Const, Expr, Leaf, Not, Or, Xor
from repro.expr.threshold import Threshold
from repro.index import BitmapIndex, IndexSpec, QueryEngine
from repro.storage import CostClock
from tests.index.test_compressed_convention import C, POOLS, _values


def oracle_operation_count(expr: Expr) -> int:
    """The seen-set walk: a subtree repeated inside ``expr`` once."""
    seen: set[Expr] = set()

    def walk(kind, children) -> int:
        ops = 0
        for child in children:
            child_kind = type(child)
            if child_kind is Leaf or child_kind is Const:
                continue
            if child not in seen:
                seen.add(child)
                ops += walk(child_kind, child.children())
        if kind is Not:
            return ops + 1
        if kind is Threshold:
            return ops + len(children)
        return ops + len(children) - 1

    kind = type(expr)
    return 0 if kind is Leaf or kind is Const else walk(kind, expr.children())


def oracle_plan(constituents: list[Expr]) -> tuple[Expr, int]:
    """The flattened OR and the decoded convention's operations."""
    if len(constituents) == 1:
        return constituents[0], oracle_operation_count(constituents[0])
    operands = [
        op for expr in constituents
        for op in (expr.operands if type(expr) is Or else (expr,))
    ]
    return Or(tuple(operands)), (
        sum(map(oracle_operation_count, constituents)) + len(constituents) - 1
    )


def oracle_charge(engine: QueryEngine, constituents: list[Expr]) -> int:
    """The recursive compressed charge; returns its operations."""
    word_bytes = 8 * -(-engine.index.num_records // 64)
    payload = engine.index.store.get_payload
    memo: dict[Expr, list] = {}
    operations = 0

    def charge(kind, children, shared: bool = True) -> tuple[int, bool]:
        nonlocal operations
        touched = 0
        for child in children:
            child_kind = type(child)
            if child_kind is Leaf:
                value = len(payload(child.key)[0]), True
            elif child_kind is Const:
                value = word_bytes, False
            elif not shared:
                value = charge(child_kind, child.children())
            else:
                slot = memo.setdefault(child, [])
                if not slot:
                    slot.append(charge(child_kind, child.children()))
                value = slot[0]
            touched += value[0]
        if len(children) == 1 and kind is not Not and kind is not Threshold:
            return value
        if kind is Not:
            operations += 1
        elif kind is Threshold:
            operations += len(children)
        else:
            operations += len(children) - 1
        engine.clock.charge_word_ops(1, max(1, touched // 8))
        return word_bytes, False

    nbytes, is_leaf = charge(Or, constituents, len(constituents) > 1)
    if is_leaf:
        engine.clock.charge_decompress(nbytes)
    return operations


@lru_cache(maxsize=None)
def _index(codec: str) -> BitmapIndex:
    """A two-component range index: 3 + 4 stored bitmaps."""
    return BitmapIndex.build(
        _values(), IndexSpec(cardinality=C, scheme="R", bases=(3, 4), codec=codec)
    )


def _expressions(keys: list) -> st.SearchStrategy[list[Expr]]:
    """Constituent lists drawn from a small pool of subtrees, so a
    subtree often repeats inside a constituent and across them."""
    nodes = st.recursive(
        st.sampled_from([Leaf(key) for key in keys]) | st.builds(Const, st.booleans()),
        lambda children: st.one_of(
            st.builds(Not, children),
            *(
                st.builds(kind, st.lists(children, min_size=1, max_size=4).map(tuple))
                for kind in (And, Or, Xor)
            ),
            st.lists(children, min_size=1, max_size=4).flatmap(
                lambda ops: st.integers(1, len(ops) + 1).map(
                    lambda k: Threshold(k, tuple(ops))
                )
            ),
        ),
        max_leaves=12,
    )

    def reuse(pool: list[Expr]) -> st.SearchStrategy[list[Expr]]:
        picks = st.sampled_from(pool)
        shared = st.one_of(
            picks,
            st.builds(Not, picks),
            *(st.builds(kind, st.lists(picks, min_size=1, max_size=3).map(tuple))
              for kind in (And, Or)),
        )
        return st.lists(shared, min_size=1, max_size=4)

    return st.lists(nodes, min_size=1, max_size=4).flatmap(reuse)


def _engine(codec: str, pool: str) -> QueryEngine:
    return QueryEngine(
        _index(codec), buffer_pages=POOLS[pool], clock=CostClock(), engine="compressed"
    )


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("codec", ["wah", "roaring"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_compiled_charge_matches_recursive_charge(codec, pool, data):
    index = _index(codec)
    constituents = data.draw(_expressions(sorted(index.store.keys())))
    plan = compile_query(constituents)
    expr, operations = oracle_plan(constituents)
    assert plan.expr == expr
    assert plan.operations == operations
    assert plan.keys == tuple(dict.fromkeys(leaf.key for leaf in expr.leaves()))

    got, want = _engine(codec, pool), _engine(codec, pool)
    got_stats, want_stats = EvalStats(), EvalStats()
    answer = got.evaluate_shared(plan, {}, got_stats)
    charged = oracle_charge(want, constituents)
    expected = want._finish(
        evaluate(expr, want.pool.fetch, index.num_records, want_stats, {}, charged)
    )
    assert answer == expected
    assert got_stats == want_stats
    assert got.clock == want.clock
    assert got.buffer_stats == want.buffer_stats
