"""One plan per query: its rewritten constituents compiled in one walk.

A query's cost is fixed by the shape of its rewritten expression: the
distinct bitmaps it scans and the bulk operations that combine them
(Sections 3 and 6.3).  :func:`compile_query` works that shape out once,
and :func:`~repro.expr.evaluate`, the buffer pool's batched fetch, both
cost conventions and the serving tier's batch planner read the
:class:`QueryPlan` instead of walking the tree again, for every segment
a query reaches.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

from repro.expr.nodes import Const, Expr, Leaf, Not, Or
from repro.expr.threshold import Threshold

#: A memo entry not yet walked.
_FRESH = object()


@dataclass(frozen=True, slots=True, eq=False)
class QueryPlan:
    """What evaluating and charging one query needs, in one object."""

    #: The rewritten constituents: the result-cache and repeat key.
    constituents: tuple[Expr, ...]
    #: The one expression they are OR-ed through: an ``Or``
    #: constituent's operands join the top-level OR directly.
    expr: Expr
    #: Distinct leaf keys in depth-first first-touch order, the order
    #: :func:`~repro.expr.evaluate` fetches misses in.
    keys: tuple[Hashable, ...]
    #: Bulk operations of evaluating the constituents one by one and
    #: OR-ing the results: each constituent's own count (a subtree
    #: repeated inside it once), plus ``n - 1`` ORs.
    operations: int
    #: The leaf the answer passes through (a bare leaf, or one under
    #: one-operand ``And``/``Or``/``Xor`` nodes), else None.
    leaf: Hashable | None
    #: The compressed convention's operator terms, children before
    #: parents: each charged node's operand leaf keys and its count of
    #: inner or constant operands.  A subtree shared anywhere in the
    #: query appears once, and a one-operand n-ary node passes its
    #: operand through uncharged.
    terms: tuple[tuple[tuple[Hashable, ...], int], ...]
    #: Bulk operations the terms count (a shared subtree once).
    term_operations: int

    def leaf_keys(self) -> set[Hashable]:
        """The distinct leaf keys, as :meth:`Expr.leaf_keys` returns them
        (so :func:`~repro.index.evaluation.schedule_constituents` orders
        plans as it orders expressions, without a walk)."""
        return set(self.keys)


def compile_query(constituents: Iterable[Expr]) -> QueryPlan:
    """Compile a query's rewritten constituents in one walk.

    Each inner node is hashed once per visit into one memo, which
    records its value as an operand (a passed-through :class:`Leaf`, or
    None for words) and the last constituent that counted it.  A node
    already counted in this constituent is skipped; one first met in an
    earlier constituent is walked again for this constituent's
    operation count only.
    """
    constituents = tuple(constituents)
    keys: dict[Hashable, None] = {}
    memo: dict[Expr, list] = {}
    terms: list[tuple[tuple[Hashable, ...], int]] = []
    term_operations = 0

    def operand(node: Expr, part: int) -> tuple[Leaf | None, int]:
        """(``node``'s value as an operand, its operations in ``part``)."""
        kind = type(node)
        if kind is Leaf:
            keys[node.key] = None
            return node, 0
        if kind is Const:
            return None, 0
        entry = memo.setdefault(node, [_FRESH, part])  # one hash per visit
        if entry[0] is _FRESH:
            entry[0], operations = operator(kind, node.children(), part, True)
            return entry[0], operations
        if entry[1] == part:
            return entry[0], 0
        entry[1] = part
        return entry[0], operator(kind, node.children(), part, False)[1]

    def operator(kind, children, part, fresh: bool) -> tuple[Leaf | None, int]:
        """``part`` None gives each child its own constituent index;
        ``fresh`` emits the node's term."""
        nonlocal term_operations
        operations = inner = 0
        leaf_keys = []
        for i, child in enumerate(children):
            if type(child) is Leaf:  # the common operand, inlined
                keys[child.key] = None
                leaf_keys.append(child.key)
                value = child
                continue
            value, child_operations = operand(child, i if part is None else part)
            operations += child_operations
            if value is None:
                inner += 1
            else:
                leaf_keys.append(value.key)
        if len(children) == 1 and kind is not Not and kind is not Threshold:
            return value, operations
        count = 1 if kind is Not else len(children) if kind is Threshold else len(children) - 1
        if fresh:
            terms.append((tuple(leaf_keys), inner))
            term_operations += count
        return None, operations + count

    if len(constituents) > 1:
        value, operations = operator(Or, constituents, None, True)
        expr = Or(tuple(
            op for c in constituents for op in (c.operands if type(c) is Or else (c,))
        ))
    else:
        (expr,) = constituents
        kind = type(expr)
        value, operations = (
            operand(expr, 0) if kind is Leaf or kind is Const
            else operator(kind, expr.children(), 0, True)
        )
    return QueryPlan(
        constituents, expr, tuple(keys), operations,
        None if value is None else value.key, tuple(terms), term_operations,
    )
