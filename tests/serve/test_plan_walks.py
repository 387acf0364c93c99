"""One compile per query: no expression-tree walk per segment.

A :class:`~repro.serve.shard_worker.ShardEngine` compiles each query's
rewritten constituents once into a :class:`~repro.expr.QueryPlan`, and
every segment's engine reads the plan: the batch key union, the
batched fetch, the charge and the range walk.  So the tree walkers
(``Expr.leaves``, ``Expr.leaf_keys``, ``expression_operation_count``)
and the compiler run as often on a shard of one segment as on a shard
of ten.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import repro.expr.evaluator
import repro.serve.shard_worker
from repro.expr import Expr
from repro.index import IndexSpec
from repro.queries import IntervalQuery, MembershipQuery, ThresholdQuery
from repro.serve.shard_worker import ShardEngine

C = 24
ROWS = 1_013
QUERIES = [
    IntervalQuery(3, 3, C),
    IntervalQuery(2, 17, C),
    MembershipQuery.of({1, 2, 5, 6, 9, 10, 20}, C),
    ThresholdQuery(
        2, (IntervalQuery(1, 9, C), IntervalQuery(5, 14, C), MembershipQuery.of({0, 7, 22}, C))
    ),
    IntervalQuery(2, 17, C),  # a repeat inside the batch
]
SPECS = {
    "E": IndexSpec(cardinality=C, scheme="E", codec="wah"),
    "R2": IndexSpec(cardinality=C, scheme="R", bases=(4, 6), codec="raw"),
    "I-sorted": IndexSpec(cardinality=C, scheme="I", codec="wah", reorder="lexicographic"),
}


def _counted(monkeypatch) -> Counter:
    """Count every call of the tree walkers and of the compiler."""
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("leaves", "leaf_keys"):
        monkeypatch.setattr(Expr, name, counting(name, getattr(Expr, name)))
    targets = {
        "expression_operation_count": repro.expr.evaluator.expression_operation_count,
        "compile_query": repro.serve.shard_worker.compile_query,
    }
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, fn in targets.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    return calls


def _walks(monkeypatch, spec: IndexSpec, segment_size: int) -> tuple[Counter, list, int]:
    values = np.random.default_rng(5).integers(0, C, size=ROWS)
    engine = ShardEngine(values, spec, cache_entries=0, segment_size=segment_size)
    segments = len(engine.segments())
    with monkeypatch.context() as patch:
        calls = _counted(patch)
        answers = engine.evaluate_batch(QUERIES)
    expected = [query.matches(values) for query in QUERIES]
    assert [a.bitmap.to_bools().tolist() for a in answers] == [e.tolist() for e in expected]
    return calls, answers, segments


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_walks_do_not_grow_with_segments(monkeypatch, spec):
    one, one_answers, one_segments = _walks(monkeypatch, SPECS[spec], 4 * ROWS)
    many, many_answers, many_segments = _walks(monkeypatch, SPECS[spec], 16)
    assert one_segments == 1 and many_segments >= 8
    assert one == many
    assert one["compile_query"] == len(QUERIES)
    assert [a.scans for a in one_answers] == [a.scans for a in many_answers]
