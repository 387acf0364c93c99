"""Algebraic simplification of bitmap expressions.

The rewrite phase (Section 6) can generate expressions with constants,
duplicate operands, nested same-operator chains and double negations.
:func:`simplify` normalizes them:

* constant folding (``x AND ZERO -> ZERO``, ``x OR ONE -> ONE``,
  ``x XOR ONE -> NOT x``, ...);
* flattening of nested ``And``/``Or``/``Xor`` chains;
* idempotence for ``And``/``Or`` (duplicate operands dropped) and
  pair-cancellation for ``Xor``;
* annihilation (``x AND NOT x -> ZERO``, ``x OR NOT x -> ONE``);
* double negation elimination;
* threshold folding (constant children absorbed into ``k``, degenerate
  ``k`` bounds collapsed to constants).

Simplification never increases the number of distinct leaves, so the
scan-count accounting of an expression can only improve.

Two deliberate non-rewrites under :class:`~repro.expr.threshold.Threshold`:

* children are **never deduplicated** — threshold operands are a
  multiset, and a duplicated child legitimately counts twice;
* a child containing a ``Not`` anywhere is left **untouched** (not even
  recursively simplified).  Complements under counting (rather than
  boolean) combination are verified only for the trees the differential
  suite generates — the conservative rule keeps simplification inside
  that envelope.  See ``tests/expr/test_threshold.py``.
"""

from __future__ import annotations

from collections import Counter, deque

from repro.expr.nodes import And, Const, Expr, Leaf, Not, Or, Xor, not_of
from repro.expr.threshold import Threshold


def simplify(expr: Expr) -> Expr:
    """Return an equivalent, normalized expression."""
    if isinstance(expr, (Leaf, Const)):
        return expr
    if isinstance(expr, Not):
        return not_of(simplify(expr.child))
    if isinstance(expr, And):
        return _simplify_and_or(expr, is_and=True)
    if isinstance(expr, Or):
        return _simplify_and_or(expr, is_and=False)
    if isinstance(expr, Xor):
        return _simplify_xor(expr)
    if isinstance(expr, Threshold):
        return _simplify_threshold(expr)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _flatten(expr: Expr, cls) -> list[Expr]:
    """Simplify children and flatten same-operator nesting."""
    out: list[Expr] = []
    for child in expr.children():
        child = simplify(child)
        if isinstance(child, cls):
            out.extend(child.children())
        else:
            out.append(child)
    return out


def _simplify_and_or(expr: Expr, is_and: bool) -> Expr:
    cls = And if is_and else Or
    identity = Const(True) if is_and else Const(False)
    annihilator = Const(False) if is_and else Const(True)

    seen: list[Expr] = []
    seen_set: set[Expr] = set()
    for child in _flatten(expr, cls):
        if child == annihilator:
            return annihilator
        if child == identity:
            continue
        if child in seen_set:
            continue  # idempotence
        seen.append(child)
        seen_set.add(child)

    # Annihilation: x op NOT x.
    for child in seen:
        if not_of(child) in seen_set:
            return annihilator

    if not seen:
        return identity
    if len(seen) == 1:
        return seen[0]
    return cls(tuple(seen))


def _simplify_threshold(expr: Threshold) -> Expr:
    """Fold constants into ``k``; keep duplicates and negated children.

    A ``Const(True)`` child always counts, so it drops out and ``k``
    decreases; a ``Const(False)`` child never counts and just drops.
    ``k <= 0`` after folding is always satisfied, ``k`` above the
    surviving arity never.  Children containing a ``Not`` are kept
    verbatim (see the module docstring), and duplicates are preserved
    because threshold counting is multiset semantics.
    """
    k = expr.k
    kept: list[Expr] = []
    for child in expr.operands:
        if any(isinstance(node, Not) for node in child.walk()):
            simplified = child
        else:
            simplified = simplify(child)
        if isinstance(simplified, Const):
            if simplified.value:
                k -= 1
            continue
        kept.append(simplified)
    if k <= 0:
        return Const(True)
    if k > len(kept):
        return Const(False)
    if len(kept) == 1:
        return kept[0]
    return Threshold(k, tuple(kept))


def _simplify_xor(expr: Expr) -> Expr:
    # XOR with ONE toggles an overall complement; pairs cancel.  A
    # worklist is used because stripping a Not can expose another Xor
    # chain that must also be flattened.
    complement = False
    counts: Counter[Expr] = Counter()
    worklist = deque(_flatten(expr, Xor))
    while worklist:
        child = worklist.popleft()
        if isinstance(child, Const):
            if child.value:
                complement = not complement
            continue
        if isinstance(child, Not):
            complement = not complement
            child = child.child
        if isinstance(child, Xor):
            worklist.extend(child.children())
            continue
        counts[child] += 1

    survivors = [node for node, count in counts.items() if count % 2]
    if not survivors:
        result: Expr = Const(False)
    elif len(survivors) == 1:
        result = survivors[0]
    else:
        result = Xor(tuple(survivors))
    return not_of(result) if complement else result
